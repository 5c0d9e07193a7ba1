#!/usr/bin/env bash
# CI gate for the repro package:
#   1. lint  — no bare print() in library code (cli.py is the
#              presentation layer and is allowlisted), no
#              DeprecationWarning shim in src/repro, and no score
#              formula called outside the one scoring kernel
#              (score_rows in repro/manifolds/scoring.py), no Eq. 12
#              level weighting ("exclusion_levels" or "exp(eta")
#              outside taxonomy/ and the one consistency kernel in
#              core/weighting.py, no assignment to an instance's
#              .prepare, no FrontendConfig/ServiceConfig field
#              that src/repro never reads outside its defining module,
#              no HdrHistogram constructed outside obs/ and the one
#              load harness (serve/bench.py), and no hashlib.sha256 or
#              os.replace outside the one artifact module
#              (repro/artifact.py; spec.py's digest hashes a payload);
#              benchmarks/ must collect and every
#              examples/*.py must import, because the tier-1 tests
#              import neither and a deleted library name they still
#              use would otherwise pass; every `python -m repro` line
#              of README.md and scripts/reproduce_all.sh must parse
#              with repro.cli.build_parser, and cli.py prints
#              `error: {exc}` only in main (one error→exit-code table);
#              importing repro.cli loads no scipy.stats (~1 s of every
#              CLI call; import it inside the function that needs it);
#              serve/frontend/ creates no Queue( (its one transport is
#              a pipe per worker in each direction);
#   2. tests — the tier-1 pytest suite;
#   3. smoke — a tiny --telemetry training run must leave a readable
#              manifest + event log that `repro obs summarize` renders;
#   4. serve — train --save, export an index, and answer queries:
#              output must be non-empty and deterministic across runs;
#   5. fault — injected NaN at epoch 2 must roll back and still
#              complete; a killed run must resume to completion;
#              injected scoring failures must degrade to fallbacks
#              with zero unhandled exceptions; a corrupted checkpoint
#              must be rejected;
#   6. backend — a 2-epoch train on the fast tensor backend must run
#              end to end and agree with the reference backend's
#              losses within tolerance on a tiny config;
#   7. observability — a traced+profiled serve bench must yield a run
#              dir from which export-trace emits valid Chrome trace
#              JSON, `obs slo` exits 0 on the built-in objectives,
#              `obs summarize --json` parses, and `obs profile`
#              renders samples.  The <2% disabled-telemetry overhead
#              budget stays asserted by tests/test_obs.py in gate 2.
#   8. frontend — the multi-worker HTTP front-end over a saved index:
#              2 workers serve /recommend, /status shows every shard
#              ready, SIGTERM drains to exit 0 with clean /dev/shm;
#              then a traced worker-kill drill must answer every
#              request (degraded allowed, errors not), restart the
#              worker, pass `obs slo`, and export a valid trace.
#   9. online — a full ingest→finetune→swap cycle on the synthetic
#              dataset must leave a fresh index version live with
#              streamed-in cold-start users servable, and a fresh
#              process must replay the journal into the dataset
#              (`online status` counts every ingested event); scoring faults
#              fired inside the swap window must be carried by
#              degraded-mode (stale-index) serving with clean
#              recovery on the next swap; a poisoned event stream
#              must be rejected with a typed error and no dataset
#              mutation.
#  10. experiments — a tiny 2-model × 1-dataset × 2-seed spec run
#              through `repro exp run` twice: the second run must
#              report 100% cache hits and zero retrains; `exp status`
#              must honor its exit-code contract (0 complete /
#              1 partial / 2 nothing run).
#  11. benchmark — each repo-benchmark workload runs a 3 s window and
#              must exit 0 reporting "correct": true, so its own output
#              checks (finite falling losses, evaluator bit-identity,
#              served-vs-live rankings) run in CI.
#
# Usage: bash scripts/ci.sh            (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== lint: no print() outside the CLI presentation layer =="
violations=$(grep -rn --include='*.py' '^[^#]*\bprint(' src/repro \
    | grep -v '^src/repro/cli\.py:' || true)
if [ -n "$violations" ]; then
    echo "bare print() in library code (use repro.obs.get_logger):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: no DeprecationWarning shims in library code =="
violations=$(grep -rn --include='*.py' 'DeprecationWarning' src/repro \
    || true)
if [ -n "$violations" ]; then
    echo "deprecation shim in library code (migrate its callers, then" \
         "delete it):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: score formulas are called only by score_rows =="
formulas='(lorentz_ranking_scores|poincare_ranking_scores|neg_dist_scores|neg_sq_dist_scores|gdcf_mixed_scores)[(]'
violations=$( (grep -rnE --include='*.py' "^[^#]*\b$formulas" src/repro \
        | grep -v '^src/repro/manifolds/scoring\.py:' || true
    awk -v pat="$formulas" '/^(def|class) / { inside = /^def score_rows[(]/ }
        !inside && !/^def / && $0 ~ pat { print FILENAME ":" FNR ":" $0 }' \
        src/repro/manifolds/scoring.py) )
if [ -n "$violations" ]; then
    echo "score formula called outside score_rows (score through" \
         "repro.manifolds.score_rows on an export_scoring() spec):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: one Eq. 11/12 kernel, no per-instance prepare =="
violations=$( (grep -rnE --include='*.py' '^[^#]*(exclusion_levels|exp[(]eta)' \
        src/repro | grep -vE '^src/repro/(taxonomy/|core/weighting\.py:)' \
        || true
    grep -rnE --include='*.py' \
        "^[^#]*(\.prepare[[:space:]]*=([^=]|$)|setattr[(][^,]+,[[:space:]]*['\"]prepare['\"])" \
        src/repro || true) )
if [ -n "$violations" ]; then
    echo "Eq. 12 level weighting outside repro/core/weighting.py, or a" \
         "per-instance prepare (pass weights through Split.train_weights):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: HdrHistogram is built only in obs/ and the load harness =="
violations=$(grep -rnE --include='*.py' '^[^#]*\bHdrHistogram[(]' src/repro \
    | grep -vE '^src/repro/(obs/|serve/bench\.py:)' || true)
if [ -n "$violations" ]; then
    echo "HdrHistogram constructed outside repro/obs and" \
         "repro/serve/bench.py (record through repro.obs.observe, or time" \
         "load with repro.serve.bench.latency_histogram):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: the serving fleet has one transport (no Queue in frontend/) =="
violations=$(grep -rnE --include='*.py' '^[^#]*\bQueue[(]' \
    src/repro/serve/frontend || true)
if [ -n "$violations" ]; then
    echo "Queue created in src/repro/serve/frontend (workers talk over" \
         "their Channel pipes, see supervisor.py):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: one file hash and one temp-file replace (repro/artifact.py) =="
pattern='(hashlib[.]sha256|os[.]replace)'
violations=$( (grep -rnE --include='*.py' "^[^#]*$pattern" src/repro \
        | grep -vE '^src/repro/(artifact|experiments/dag/spec)\.py:' || true
    awk -v pat="^[^#]*$pattern" '/^(def|class) / { inside = /^def digest[(]/ }
        !inside && $0 ~ pat { print FILENAME ":" FNR ":" $0 }' \
        src/repro/experiments/dag/spec.py) )
if [ -n "$violations" ]; then
    echo "file hash or temp-file replace outside repro/artifact.py (use" \
         "repro.artifact.sha256_of, replaced or ArtifactFormat;" \
         "spec.py's digest hashes a payload, not a file):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: every serving config field is read somewhere =="
python - <<'EOF'
import ast
import pathlib
import sys

# A field is read when some module other than its own loads it from an
# object named config or service (self.config.k, config.service, ...).
DEFINED = {"FrontendConfig": "src/repro/serve/frontend/config.py",
           "ServiceConfig": "src/repro/serve/config.py"}
reads = {}
for path in pathlib.Path("src/repro").rglob("*.py"):
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            continue
        owner = node.value
        owner = owner.attr if isinstance(owner, ast.Attribute) \
            else getattr(owner, "id", None)
        if owner in ("config", "service"):
            reads.setdefault(node.attr, set()).add(str(path))
unread = []
for cls, module in DEFINED.items():
    tree = ast.parse(pathlib.Path(module).read_text())
    body = next(n for n in tree.body
                if isinstance(n, ast.ClassDef) and n.name == cls).body
    for stmt in body:
        if isinstance(stmt, ast.AnnAssign):
            name = stmt.target.id
            if not reads.get(name, set()) - {module}:
                unread.append(f"{cls}.{name} ({module})")
if unread:
    print("config field never read in src/repro outside its defining "
          "module (delete it, or make it a module constant):")
    print("\n".join(unread))
    sys.exit(1)
EOF
echo "ok"

echo "== benchmarks collect, examples import =="
python -m pytest --collect-only -q benchmarks/
python - <<'EOF'
import importlib.util
import pathlib

# Every example keeps its work under `if __name__ == "__main__":`, so
# importing one only resolves its imports and module-level names.
for path in sorted(pathlib.Path("examples").glob("*.py")):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
EOF
echo "ok"

echo "== documented commands parse, one CLI error exit =="
python - <<'EOF'
import pathlib
import re
import shlex
import sys

from repro.cli import build_parser

# A line that runs the CLI, after its env prefix (REPRO_BACKEND=fast).
COMMAND = re.compile(r"^\s*(?:[A-Za-z_]\w*=\S*\s+)*python3? -m repro\b(.*)$")
STOP = {"|", "||", "&", "&&", ";", ">", ">>", "2>&1"}
failed = []
for name in ("README.md", "scripts/reproduce_all.sh"):
    lines = pathlib.Path(name).read_text().splitlines()
    end = 0
    while end < len(lines):
        start, line = end, lines[end]
        while line.endswith("\\") and end + 1 < len(lines):
            end += 1
            line = line[:-1] + " " + lines[end]
        end += 1
        match = COMMAND.match(line)
        if not match:
            continue
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if token in STOP:
                break
            if "$" in token:
                # A shell expansion stands in as 1 where it is an
                # option's value ("--workers $(nproc)"), else drops out.
                if argv and argv[-1].startswith("--"):
                    argv.append("1")
                continue
            argv.append(token)
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            failed.append(f"{name}:{start + 1}: {line.strip()}")
if failed:
    print("documented command does not parse with repro.cli:")
    print("\n".join(failed))
    sys.exit(1)
EOF
violations=$(awk '/^(def|class) / { inside = /^def main[(]/ }
    !inside && /print[(]f"error: [{]exc[}]"/ {
        print FILENAME ":" FNR ":" $0 }' src/repro/cli.py)
if [ -n "$violations" ]; then
    echo "per-command error exit in cli.py (let the exception reach" \
         "main, whose _exit_code table maps it to an exit code):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== lint: importing the CLI loads no scipy.stats =="
imports=$(python -X importtime -c "import repro.cli" 2>&1)
violations=$(echo "$imports" | grep -E '[|] *scipy[.]stats([.]|$)' || true)
if [ -n "$violations" ]; then
    echo "import repro.cli pulls in scipy.stats (import it inside the" \
         "function that calls it):"
    echo "$violations"
    exit 1
fi
echo "ok"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== telemetry smoke =="
smoke_dir=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; \
     rm -rf "$smoke_dir"' EXIT
python -m repro train BPRMF --dataset cd --epochs 2 \
    --telemetry --run-dir "$smoke_dir/runs"
run_dir=$(ls -d "$smoke_dir"/runs/*/ | head -n 1)
test -s "$run_dir/events.jsonl"
test -s "$run_dir/manifest.json"
summary=$(python -m repro obs summarize "$run_dir")
echo "$summary" | head -n 20
echo "$summary" | grep -q "span tree:"
echo "$summary" | grep -q "coverage:"
echo "ok"

echo "== serving smoke =="
python -m repro train BPRMF --dataset cd --epochs 2 \
    --save "$smoke_dir/ck"
python -m repro serve export "$smoke_dir/ck" --out "$smoke_dir/index"
python -m repro serve query "$smoke_dir/index" --users 0,1,2,3,4 \
    > "$smoke_dir/q1.txt"
python -m repro serve query "$smoke_dir/index" --users 0,1,2,3,4 \
    --no-cache > "$smoke_dir/q2.txt"
test "$(wc -l < "$smoke_dir/q1.txt")" -eq 5
grep -q "user 0: [0-9]" "$smoke_dir/q1.txt"
cmp "$smoke_dir/q1.txt" "$smoke_dir/q2.txt"
echo "ok"

echo "== fault-injection smoke =="
# NaN gradient at epoch 2: rollback must recover and the run complete.
python -m repro robust inject train --epochs 4 --nan-epoch 2 \
    --checkpoint-dir "$smoke_dir/rck" > "$smoke_dir/f1.txt"
grep -q "completed" "$smoke_dir/f1.txt"
grep -q "rollbacks: 1" "$smoke_dir/f1.txt"

# Kill after epoch 1 (exit 3 by contract), then --resume to completion.
rm -rf "$smoke_dir/rck"
set +e
python -m repro robust inject train --epochs 4 --kill-epoch 1 \
    --checkpoint-dir "$smoke_dir/rck" > "$smoke_dir/f2.txt"
kill_status=$?
set -e
test "$kill_status" -eq 3
grep -q "crashed" "$smoke_dir/f2.txt"
python -m repro robust inject train --epochs 4 --resume \
    --checkpoint-dir "$smoke_dir/rck" > "$smoke_dir/f3.txt"
grep -q "completed" "$smoke_dir/f3.txt"
grep -q "resumed_from: 2" "$smoke_dir/f3.txt"

# 10% scoring failures: every response still a valid ranked list.
python -m repro robust inject serve --epochs 1 --requests 50 \
    --fail-rate 0.1 > "$smoke_dir/f4.txt"
grep -q "all responses valid" "$smoke_dir/f4.txt"

# Corrupting one checkpoint byte must be detected, not silently loaded.
python -m repro robust inject checkpoint "$smoke_dir/rck" \
    > "$smoke_dir/f5.txt"
grep -q "corruption detected" "$smoke_dir/f5.txt"
echo "ok"

echo "== fast-backend smoke =="
# End-to-end CLI train on the fast backend must succeed...
python -m repro train BPRMF --dataset cd --epochs 2 --backend fast \
    > "$smoke_dir/b1.txt"
grep -q "recall" "$smoke_dir/b1.txt"
# ...and fast-vs-reference per-epoch losses must agree on a tiny config.
python - <<'EOF'
import numpy as np
from repro.data import SyntheticConfig, generate_dataset, temporal_split
from repro.models import HGCF, TrainConfig
from repro.tensor import use_backend

ds = generate_dataset(SyntheticConfig(n_users=40, n_items=60, depth=3,
                                      branching=3, mean_interactions=10.0,
                                      seed=4))
split = temporal_split(ds)
losses = {}
for backend in ("reference", "fast"):
    with use_backend(backend):
        model = HGCF(ds.n_users, ds.n_items,
                     TrainConfig(dim=8, epochs=2, batch_size=1024,
                                 lr=0.01, margin=0.5, n_negatives=1,
                                 seed=0))
        model.fit(ds, split)
        losses[backend] = np.asarray(model.loss_history)
np.testing.assert_allclose(losses["fast"], losses["reference"],
                           rtol=1e-4)
EOF
echo "ok"

echo "== observability smoke =="
python -m repro serve bench --dataset ciao --epochs 1 --requests 40 \
    --trace --profile --run-dir "$smoke_dir/obsruns" \
    > "$smoke_dir/o1.txt"
grep -q "PASS latency-p99" "$smoke_dir/o1.txt"
obs_run=$(ls -d "$smoke_dir"/obsruns/*/ | head -n 1)
test -s "$obs_run/events.jsonl"
test -s "$obs_run/profile.collapsed"
python -m repro obs export-trace "$obs_run"
python - "$obs_run/trace.json" <<'EOF'
import json, sys
from repro.obs.export import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
errors = validate_chrome_trace(doc)
assert not errors, errors
assert len(doc["traceEvents"]) > 0
EOF
python -m repro obs slo "$obs_run"
python -m repro obs summarize "$obs_run" --json \
    | python -c "import json, sys; json.load(sys.stdin)"
python -m repro obs profile "$obs_run" --top 5 > "$smoke_dir/o2.txt"
grep -q "samples" "$smoke_dir/o2.txt"
echo "ok"

echo "== serving front-end smoke =="
# Reuses gate 4's exported index.  Start the HTTP edge with 2 workers,
# exercise every route, then SIGTERM: the contract is a graceful drain
# (exit 0) and no leaked shared-memory segments.
python -m repro serve http "$smoke_dir/index" --workers 2 \
    --port-file "$smoke_dir/port.txt" > "$smoke_dir/http.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 300); do
    [ -s "$smoke_dir/port.txt" ] && break
    sleep 0.1
done
test -s "$smoke_dir/port.txt"
port=$(cat "$smoke_dir/port.txt")
curl -sf "http://127.0.0.1:$port/recommend?user=3&k=5" \
    > "$smoke_dir/h1.json"
grep -q '"items"' "$smoke_dir/h1.json"
curl -sf "http://127.0.0.1:$port/health" > /dev/null
python -m repro serve http --status --port "$port" > "$smoke_dir/h2.txt"
grep -q "2/2 worker(s) ready" "$smoke_dir/h2.txt"
grep -q "shard 1:" "$smoke_dir/h2.txt"
kill -TERM "$server_pid"
set +e
wait "$server_pid"
drain_status=$?
set -e
test "$drain_status" -eq 0
server_pid=""
grep -q "drained" "$smoke_dir/http.log"
if ls /dev/shm/repro_shm_* > /dev/null 2>&1; then
    echo "leaked shared-memory segments:"; ls /dev/shm/repro_shm_*
    exit 1
fi

# Worker-kill drill under open-loop load: every request answered
# (degraded fallbacks allowed, hard failures not), worker restarted.
python -m repro robust inject serve --frontend --kill-after 20 \
    --requests 150 --qps 300 --epochs 1 > "$smoke_dir/h3.txt"
grep -q "survived: every request answered, fleet recovered" \
    "$smoke_dir/h3.txt"
grep -q "hard_failures: 0" "$smoke_dir/h3.txt"
grep -q "worker_restarts: 1" "$smoke_dir/h3.txt"

# Traced front-end bench: queue-wait histogram recorded, SLO passes,
# and the cross-process request spans export as a valid Chrome trace.
python -m repro serve bench --dataset ciao --epochs 1 --requests 40 \
    --frontend-workers 2 --telemetry --run-dir "$smoke_dir/feruns" \
    > "$smoke_dir/h4.txt"
grep -q "frontend bench: 2 worker(s)" "$smoke_dir/h4.txt"
grep -q "kill drill:" "$smoke_dir/h4.txt"
grep -q "frontend slo: 3 objective(s), 0 violation(s)" \
    "$smoke_dir/h4.txt"
fe_run=$(ls -d "$smoke_dir"/feruns/*/ | head -n 1)
python -m repro obs slo "$fe_run"
python -m repro obs export-trace "$fe_run"
python - "$fe_run/trace.json" <<'EOF'
import json, sys
from repro.obs.export import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
errors = validate_chrome_trace(doc)
assert not errors, errors
names = {event.get("name") for event in doc["traceEvents"]}
assert "serve/request" in names, sorted(names)[:20]
EOF
echo "ok"

echo "== online-learning smoke =="
# Full cycle: bootstrap, stream 30 events (2 cold users, 1 cold item),
# ingest, fine-tune the warm checkpoint, swap.  The contract: a new
# index version is live and the streamed-in users are servable from
# the index (cold-start hit rate 1.0), not a fallback.
python -m repro online run --workdir "$smoke_dir/online" \
    --events 30 --new-users 2 --new-items 1 \
    --bootstrap-epochs 2 --finetune-epochs 2 > "$smoke_dir/n1.txt"
grep -q "online run: v2 live" "$smoke_dir/n1.txt"
grep -q "cold-start hit rate 1.00" "$smoke_dir/n1.txt"
grep -q "n_appended: 30" "$smoke_dir/n1.txt"
test -d "$smoke_dir/online/index.v2"
grep -q "index.v2" "$smoke_dir/online/CURRENT"
# A second cycle on the same workdir must not re-bootstrap.
python -m repro online run --workdir "$smoke_dir/online" \
    --events 10 --new-users 0 --new-items 0 --finetune-epochs 1 \
    > "$smoke_dir/n2.txt"
grep -q "online run: v3 live" "$smoke_dir/n2.txt"
grep -q "bootstrapped: False" "$smoke_dir/n2.txt"
python -m repro online status --workdir "$smoke_dir/online" \
    > "$smoke_dir/n3.txt"
grep -q "current: 3" "$smoke_dir/n3.txt"
grep -q "lag_bytes: 0" "$smoke_dir/n3.txt"
# Each process rebuilds the live dataset from the snapshot plus the
# journal it has not absorbed: both cycles' 30 + 10 events must be there.
base=$(python -c "from repro.data import load_dataset
print(load_dataset('cd').n_interactions)")
grep -q "n_interactions: $((base + 40))$" "$smoke_dir/n3.txt"

# Scoring faults fired inside the swap window: the demoted v1 index
# must carry all traffic as the stale-index fallback (degraded mode),
# and the next clean swap must recover primary scoring.
python -m repro robust inject serve --swap --epochs 1 --requests 50 \
    --events 20 > "$smoke_dir/n4.txt" 2>&1
grep -q "degraded-mode serving held through the faulty swap" \
    "$smoke_dir/n4.txt"
grep -q "recovered: True" "$smoke_dir/n4.txt"
grep -q "phase2_stale: 50" "$smoke_dir/n4.txt"

# Poisoned event streams: typed rejection, zero dataset mutation.
for kind in journal_corrupt event_disorder event_duplicate; do
    python -m repro robust inject stream --kind "$kind" \
        > "$smoke_dir/n5.txt"
    grep -q "fault detected and contained" "$smoke_dir/n5.txt"
    grep -q "contained: True" "$smoke_dir/n5.txt"
done
echo "ok"

echo "== experiment DAG cache/resume =="
exp_dir="$smoke_dir/exp"
exp_flags="--kind comparison --models BPRMF CML --datasets ciao \
    --seeds 0 1 --epochs 2"
# First run executes every node over a 2-wide process pool...
python -m repro exp run $exp_flags --workdir "$exp_dir" --workers 2 \
    --no-tables > "$smoke_dir/x1.txt"
grep -q "cached (0%)" "$smoke_dir/x1.txt"
# ...and an identical rerun must skip all of them: 100% cache hits,
# zero retrains.
python -m repro exp run $exp_flags --workdir "$exp_dir" --no-tables \
    > "$smoke_dir/x2.txt"
grep -q "cached (100%)" "$smoke_dir/x2.txt"
grep -q "0 retrain(s)" "$smoke_dir/x2.txt"
# exp status exit-code contract: 0 complete / 1 partial / 2 nothing run.
python -m repro exp status $exp_flags --workdir "$exp_dir" > /dev/null
rc=0
python -m repro exp status --kind comparison --models BPRMF CML \
    --datasets ciao --seeds 0 1 2 --epochs 2 --workdir "$exp_dir" \
    > /dev/null || rc=$?
[ "$rc" -eq 1 ]
rc=0
python -m repro exp status $exp_flags --workdir "$smoke_dir/exp-empty" \
    > /dev/null || rc=$?
[ "$rc" -eq 2 ]
echo "ok"

echo "== repo benchmark output checks =="
for workload in train-eval serve-uniform online-skewed; do
    python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 3 --trace 0 > "$smoke_dir/bench-$workload.json"
    python - "$smoke_dir/bench-$workload.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["correct"] is True, doc
EOF
done
echo "ok"

echo "== all gates passed =="
