"""Command-line interface: ``python -m repro <command>``.

Commands
--------
stats        Print Table-I statistics for the named datasets.
train        Train one zoo model on one dataset and report test metrics.
exp          Resumable experiment DAG, the one path to every paper
             table: declare an ExperimentSpec (``run --kind
             comparison|ablation|sweep|lambda|robustness|cases|grid``),
             inspect completion against the node cache (``status``,
             exit 0 complete / 1 partial / 2 nothing run), continue a
             killed run bit-identically (``resume``), or drop the cache
             (``clean``).  ``--workers N`` fans training out over a
             process pool; every cached node is skipped on rerun;
             ``--ephemeral`` keeps nothing.
obs          Telemetry utilities: summarize (``--json`` for machines) /
             list run directories, export a Chrome/Perfetto trace
             (``export-trace``), evaluate service-level objectives
             (``slo``, exit 0 pass / 1 violation / 2 no data), and
             render a recorded profile (``profile``).
serve        Offline serving: export an index from a checkpoint, answer
             top-K queries, micro-benchmark request latency, and run
             the multi-worker HTTP front-end (``serve http``: sharded
             shared-memory index, admission control, graceful drain;
             ``--status`` inspects a running one).
robust       Fault-injection drills: provoke NaN divergence, process
             kills, scoring failures, and checkpoint corruption, and
             verify the recovery machinery end to end — including
             worker kills/stalls against the multi-worker front-end
             (``inject serve --frontend``), scoring faults fired inside
             a hot-swap window (``inject serve --swap``), and poisoned
             event streams (``inject stream``).
online       Online learning: append/ingest journal events
             (``ingest``), incrementally fine-tune the warm checkpoint
             on the recency-weighted stream tail (``finetune``), flip
             the live index version (``swap``), run one full
             ingest→finetune→swap cycle (``run``), or inspect the loop
             state (``status``).  All state lives under ``--workdir``.

``train``, ``exp run|resume``, ``serve bench|http`` and ``online run``
accept ``--telemetry`` (record spans, metrics, and a run manifest under
``runs/<run_id>/``), ``--trace`` (telemetry plus NaN/inf gradient
scanning in the autograd engine), and ``--profile`` (telemetry plus a
sampling profiler writing ``profile.collapsed``).  ``train`` also
accepts ``--checkpoint-dir`` (auto-checkpoint every N epochs with
NaN/divergence rollback) and ``--resume`` (continue a killed run from
its auto-checkpoint, bit-identically).

``train`` and ``exp run|status|resume`` accept ``--backend
{reference,fast}`` to pick the tensor execution backend (see
``repro.tensor.backend``): ``reference`` is the bit-identical float64
engine, ``fast`` enables float32 compute with fused hyperbolic kernels
(~3-4x train-step throughput, metrics equal within tolerance).  The
``REPRO_BACKEND`` environment variable sets the default.

A flag that sets a config field (``ExperimentSpec``,
``ResilienceConfig``, ``FrontendConfig``, ``ServiceConfig``) defaults
to ``None`` and is passed on only when given, so the dataclass owns the
default.  Exit codes: 0 on success; the command's own contract where it
states one (``exp status``, ``obs slo``, the drills, 3 for a simulated
kill); otherwise :func:`_exit_code` is the one table of expected
failures, each reported as one ``error: ...`` line on stderr.  Any
other exception propagates with its traceback.

This module is the presentation layer: its ``print`` calls are the
command output and are allowlisted by the ``scripts/ci.sh`` lint gate;
library diagnostics go through ``repro.obs.get_logger`` instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.dag.spec import ALL_DATASETS, SPEC_KINDS


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None,
                        choices=["reference", "fast"],
                        help="tensor execution backend (default: "
                             "REPRO_BACKEND env var, else 'reference')")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", action="store_true",
                        help="record spans/metrics/manifest under "
                             "--run-dir")
    parser.add_argument("--trace", action="store_true",
                        help="--telemetry plus NaN/inf gradient checks "
                             "(slower; for debugging divergence)")
    parser.add_argument("--profile", action="store_true",
                        help="sample Python stacks during the run and "
                             "write profile.collapsed (implies "
                             "--telemetry)")
    parser.add_argument("--run-dir", default="runs",
                        help="base directory for run artifacts "
                             "(default: runs/)")


def _given(**values) -> dict:
    """The config fields among ``values`` that the user set (not
    ``None``); the dataclass they build keeps its own defaults."""
    return {name: value for name, value in values.items()
            if value is not None}


# The active --profile sampler; one CLI invocation runs one command, so
# a module global (not a Run attribute — Run is slotted) is enough.
_PROFILER = None


def _maybe_start_run(args, command: str, **config):
    """Start a repro.obs run when --telemetry/--trace/--profile was given."""
    global _PROFILER
    profile = getattr(args, "profile", False)
    if not (getattr(args, "telemetry", False)
            or getattr(args, "trace", False) or profile):
        return None
    from repro import obs
    config = {"command": command, "seed": getattr(args, "seed", None),
              **config}
    run = obs.start_run(run_dir=args.run_dir, config=config,
                        nan_checks=getattr(args, "trace", False))
    if profile:
        _PROFILER = obs.SamplingProfiler().start()
    return run


def _finish_run(run, final_metrics=None, dataset_stats=None) -> None:
    global _PROFILER
    if run is None:
        return
    from repro import obs
    from repro.tensor.backend import publish_metrics
    run_dir = run.dir
    if _PROFILER is not None:
        profiler, _PROFILER = _PROFILER, None
        profiler.stop()
        path = profiler.write(run_dir)
        print(f"[profile] {profiler.n_samples} samples in {path} "
              f"(inspect with: repro obs profile {run_dir})")
    publish_metrics()
    obs.finish_run(final_metrics=final_metrics,
                   dataset_stats=dataset_stats)
    print(f"[telemetry] run artifacts in {run_dir} "
          f"(inspect with: repro obs summarize {run_dir})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LogiRec/LogiRec++ reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="dataset statistics (Table I)")
    stats.add_argument("--datasets", nargs="*", default=list(ALL_DATASETS))

    train = sub.add_parser("train", help="train one model")
    train.add_argument("model", help="zoo model name, e.g. LogiRec++")
    train.add_argument("--save", default=None, metavar="DIR",
                       help="write a checkpoint of the trained model "
                            "(loadable by `repro serve export`)")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="auto-checkpoint during training and roll "
                            "back to the last good checkpoint on "
                            "NaN/divergence")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N", help="epochs between auto-"
                                         "checkpoints (default: 5)")
    train.add_argument("--resume", action="store_true",
                       help="continue an interrupted run from "
                            "--checkpoint-dir (bit-identical to an "
                            "uninterrupted run)")
    train.add_argument("--max-retries", type=int, default=None,
                       help="divergence rollback budget (default: 3)")
    train.add_argument("--lr-backoff", type=float, default=None,
                       help="learning-rate multiplier applied on each "
                            "rollback (default: 0.5)")
    train.add_argument("--dataset", default="cd", choices=ALL_DATASETS)
    train.add_argument("--epochs", type=int, default=None,
                       help="override the tuned epoch budget")
    train.add_argument("--seed", type=int, default=0)
    _add_backend(train)
    _add_telemetry(train)

    exp_cmd = sub.add_parser(
        "exp", help="resumable experiment DAG (spec -> graph -> "
                    "process-pool scheduler with a config-hash cache)")
    exp_sub = exp_cmd.add_subparsers(dest="exp_command", required=True)

    def _add_workdir(p):
        p.add_argument("--workdir", default="exp_cache", metavar="DIR",
                       help="node-result cache / resume directory "
                            "(default: exp_cache)")

    def _add_spec_flags(p):
        # Each flag's dest is an ExperimentSpec field; an omitted flag
        # stays None and the spec fills the kind's default.
        p.add_argument("--spec", default=None, metavar="FILE",
                       help="JSON ExperimentSpec file (overrides the "
                            "spec flags below)")
        p.add_argument("--kind", default=None, choices=SPEC_KINDS)
        p.add_argument("--models", nargs="*", default=None,
                       help="[comparison/grid] zoo models (default: all)")
        p.add_argument("--datasets", nargs="*", default=None,
                       choices=ALL_DATASETS,
                       help="datasets (default: the kind's paper choice)")
        p.add_argument("--variants", nargs="*", default=None,
                       help="[ablation/grid] Table-III variants "
                            "(default: all)")
        p.add_argument("--params", nargs="*", default=None,
                       help="[sweep/grid] Table-IV hyperparameters "
                            "(default: all)")
        p.add_argument("--lambdas", nargs="*", type=float, default=None,
                       help="[lambda/grid] λ grid")
        p.add_argument("--fractions", nargs="*", type=float, default=None,
                       help="[robustness/grid] corruption fractions")
        p.add_argument("--baseline", default=None,
                       help="[lambda/grid] fixed comparison model")
        p.add_argument("--seeds", nargs="*", type=int, default=None)
        p.add_argument("--ks", nargs="*", type=int, default=None,
                       help="ranking cutoffs (default: 10 20)")
        p.add_argument("--epochs", type=int, default=None,
                       help="budget override for every training node")
        p.add_argument("--scale", type=float, default=None)
        _add_backend(p)

    exp_run = exp_sub.add_parser(
        "run", help="execute (or continue) the spec's node graph; "
                    "cached nodes are skipped")
    _add_spec_flags(exp_run)
    _add_workdir(exp_run)
    exp_run.add_argument("--workers", type=int, default=0,
                         help="process-pool width; 0/1 runs inline "
                              "(workers re-select --backend after "
                              "fork/spawn)")
    exp_run.add_argument("--ephemeral", action="store_true",
                         help="in-memory store: nothing cached, nothing "
                              "resumable")
    exp_run.add_argument("--no-tables", action="store_true",
                         help="print only the cache summary, not the "
                              "rendered tables")
    _add_telemetry(exp_run)

    exp_status = exp_sub.add_parser(
        "status", help="completion of a spec against the cache; exit 0 "
                       "complete / 1 partial / 2 nothing run")
    _add_spec_flags(exp_status)
    _add_workdir(exp_status)

    exp_resume = exp_sub.add_parser(
        "resume", help="re-run the newest recorded spec (or --spec); "
                       "completed nodes are skipped and interrupted "
                       "training continues from its auto-checkpoint, "
                       "bit-identical to an uninterrupted run")
    exp_resume.add_argument("--spec", default=None, metavar="FILE",
                            help="JSON ExperimentSpec file (default: "
                                 "newest spec recorded in --workdir)")
    _add_workdir(exp_resume)
    exp_resume.add_argument("--workers", type=int, default=0)
    exp_resume.add_argument("--no-tables", action="store_true")
    _add_backend(exp_resume)
    _add_telemetry(exp_resume)

    exp_clean = exp_sub.add_parser(
        "clean", help="drop every cached node result and spec record")
    _add_workdir(exp_clean)

    obs_cmd = sub.add_parser("obs", help="telemetry run utilities")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summ = obs_sub.add_parser("summarize",
                              help="span tree + metrics of one run")
    summ.add_argument("run_dir", help="runs/<run_id> directory")
    summ.add_argument("--json", action="store_true",
                      help="machine-readable JSON instead of text")
    lst = obs_sub.add_parser("list", help="list recorded runs")
    lst.add_argument("--run-dir", default="runs")
    exp_tr = obs_sub.add_parser(
        "export-trace",
        help="Chrome/Perfetto trace JSON from one run's events")
    exp_tr.add_argument("run_dir", help="runs/<run_id> directory")
    exp_tr.add_argument("--out", default=None,
                        help="output path (default: <run_dir>/trace.json)")
    slo_p = obs_sub.add_parser(
        "slo", help="evaluate service-level objectives against one run")
    slo_p.add_argument("run_dir", help="runs/<run_id> directory")
    slo_p.add_argument("--config", default=None,
                       help="SLO JSON file (default: <run_dir>/slo.json "
                            "when present, else the built-in objectives)")
    slo_p.add_argument("--json", action="store_true",
                       help="machine-readable JSON report")
    prof = obs_sub.add_parser(
        "profile", help="hottest stacks from a --profile run")
    prof.add_argument("run_dir", help="runs/<run_id> directory")
    prof.add_argument("--top", type=int, default=15,
                      help="stacks to show (default: 15)")

    serve = sub.add_parser("serve", help="offline serving utilities")
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    exp = serve_sub.add_parser(
        "export", help="build a retrieval index from a checkpoint")
    exp.add_argument("checkpoint", help="checkpoint directory "
                                        "(from `repro train --save`)")
    exp.add_argument("--out", default=None,
                     help="index output directory "
                          "(default: <checkpoint>/index)")
    qry = serve_sub.add_parser("query",
                               help="top-K requests against a saved index")
    qry.add_argument("index", help="index directory "
                                   "(from `repro serve export`)")
    qry.add_argument("--users", required=True,
                     help="comma-separated user ids, e.g. 0,7,12")
    qry.add_argument("--k", type=int, default=None)
    qry.add_argument("--no-cache", action="store_true",
                     help="disable the LRU response cache")
    bch = serve_sub.add_parser("bench",
                               help="serving latency/QPS micro-benchmark")
    bch.add_argument("--model", default="LogiRec++")
    bch.add_argument("--dataset", default="ciao",
                     choices=ALL_DATASETS)
    bch.add_argument("--epochs", type=int, default=3)
    bch.add_argument("--requests", type=int, default=100)
    bch.add_argument("--k", type=int, default=10)
    bch.add_argument("--index", default=None, metavar="DIR",
                     help="benchmark a saved index (from `repro serve "
                          "export`) instead of training in-process")
    bch.add_argument("--frontend-workers", type=int, default=0,
                     metavar="N",
                     help="also run the multi-worker open-loop overload "
                          "benchmark and worker-kill drill with N worker "
                          "processes")
    _add_telemetry(bch)
    htp = serve_sub.add_parser(
        "http", help="multi-worker HTTP serving front-end")
    htp.add_argument("index", nargs="?", default=None,
                     help="index directory (from `repro serve export`); "
                          "not needed with --status")
    htp.add_argument("--status", action="store_true",
                     help="query a running front-end's /status instead "
                          "of starting one (requires --port)")
    htp.add_argument("--workers", type=int, default=None,
                     help="worker processes / index shards (default 2)")
    htp.add_argument("--host", default="127.0.0.1")
    htp.add_argument("--port", type=int, default=0,
                     help="listen port (default: OS-assigned); with "
                          "--status, the port to query")
    htp.add_argument("--port-file", default=None, metavar="FILE",
                     help="write the bound port here once listening "
                          "(for scripts that pass --port 0)")
    htp.add_argument("--k", type=int, default=None,
                     help="default list length when ?k= is omitted")
    htp.add_argument("--deadline-ms", type=float, default=None,
                     help="default per-request deadline budget; <=0 "
                          "disables deadlines")
    htp.add_argument("--queue-depth", type=int, default=None,
                     help="admission bound: max in-flight requests "
                          "before shedding (429)")
    htp.add_argument("--wait-budget-ms", type=float, default=None,
                     help="also shed when the EWMA queue wait exceeds "
                          "this")
    _add_telemetry(htp)

    robust = sub.add_parser(
        "robust", help="fault-injection and recovery drills")
    robust_sub = robust.add_subparsers(dest="robust_command",
                                       required=True)
    inject = robust_sub.add_parser(
        "inject", help="inject faults and exercise recovery")
    inject_sub = inject.add_subparsers(dest="inject_target",
                                       required=True)

    itr = inject_sub.add_parser(
        "train", help="NaN/kill faults against supervised training")
    itr.add_argument("--model", default="BPRMF")
    itr.add_argument("--dataset", default="cd",
                     choices=ALL_DATASETS)
    itr.add_argument("--epochs", type=int, default=4)
    itr.add_argument("--checkpoint-dir", default="robust_ck",
                     metavar="DIR")
    itr.add_argument("--checkpoint-every", type=int, default=1)
    itr.add_argument("--nan-epoch", type=int, default=None,
                     help="inject a NaN fault at this epoch")
    itr.add_argument("--nan-kind", default="nan_grad",
                     choices=["nan_grad", "nan_param"])
    itr.add_argument("--kill-epoch", type=int, default=None,
                     help="simulate a process kill after this epoch's "
                          "checkpoint (exit code 3)")
    itr.add_argument("--max-retries", type=int, default=3)
    itr.add_argument("--lr-backoff", type=float, default=0.5)
    itr.add_argument("--resume", action="store_true",
                     help="resume from --checkpoint-dir")
    itr.add_argument("--seed", type=int, default=0)

    isv = inject_sub.add_parser(
        "serve", help="failing/slow scoring against the serving engine")
    isv.add_argument("--model", default="BPRMF")
    isv.add_argument("--dataset", default="cd",
                     choices=ALL_DATASETS)
    isv.add_argument("--epochs", type=int, default=2)
    isv.add_argument("--requests", type=int, default=100)
    isv.add_argument("--fail-rate", type=float, default=0.1)
    isv.add_argument("--delay-rate", type=float, default=0.0)
    isv.add_argument("--delay", type=float, default=0.05,
                     help="injected delay seconds per slow call")
    isv.add_argument("--timeout", type=float, default=None,
                     help="per-request scoring deadline seconds")
    isv.add_argument("--retries", type=int, default=2)
    isv.add_argument("--k", type=int, default=10)
    isv.add_argument("--seed", type=int, default=0)
    isv.add_argument("--frontend", action="store_true",
                     help="drill the multi-worker front-end with "
                          "process-level faults instead of the "
                          "in-process engine")
    isv.add_argument("--workers", type=int, default=2,
                     help="[--frontend] worker processes")
    isv.add_argument("--kill-after", type=int, default=None,
                     metavar="N",
                     help="[--frontend] kill a worker after it handled "
                          "N requests")
    isv.add_argument("--stall-after", type=int, default=None,
                     metavar="N",
                     help="[--frontend] wedge a worker (no heartbeats) "
                          "after N requests")
    isv.add_argument("--stall-delay", type=float, default=3.0,
                     help="[--frontend] seconds the stalled worker "
                          "stays wedged")
    isv.add_argument("--slow-shard-rate", type=float, default=0.0,
                     help="[--frontend] per-request probability of "
                          "injected shard slowness")
    isv.add_argument("--slow-shard-delay", type=float, default=0.02,
                     help="[--frontend] injected delay seconds per "
                          "slow hit")
    isv.add_argument("--worker", type=int, default=0,
                     help="[--frontend] which worker the kill/stall "
                          "targets")
    isv.add_argument("--qps", type=float, default=200.0,
                     help="[--frontend] offered open-loop rate")
    isv.add_argument("--swap", action="store_true",
                     help="fire the scoring faults inside a hot-swap "
                          "window: the service must hold degraded-mode "
                          "(stale-index) serving and recover on the "
                          "next clean swap")
    isv.add_argument("--events", type=int, default=30,
                     help="[--swap] streamed events before the "
                          "fine-tune that produces the v2 index")

    ick = inject_sub.add_parser(
        "checkpoint", help="flip one checkpoint byte; expect rejection")
    ick.add_argument("path", help="checkpoint directory to corrupt "
                                  "(modified in place)")
    ick.add_argument("--seed", type=int, default=0)

    ist = inject_sub.add_parser(
        "stream", help="poison the event stream; expect typed "
                       "rejection with no dataset mutation")
    ist.add_argument("--kind", default="journal_corrupt",
                     choices=["journal_corrupt", "event_disorder",
                              "event_duplicate"])
    ist.add_argument("--dataset", default="cd",
                     choices=ALL_DATASETS)
    ist.add_argument("--events", type=int, default=20)
    ist.add_argument("--seed", type=int, default=0)

    online = sub.add_parser(
        "online", help="streaming ingest, incremental fine-tune, and "
                       "zero-downtime index swap")
    online_sub = online.add_subparsers(dest="online_command",
                                       required=True)

    def _add_online_common(p):
        p.add_argument("--workdir", default="online_state", metavar="DIR",
                       help="durable loop state directory "
                            "(default: online_state)")
        p.add_argument("--model", default="BPRMF")
        p.add_argument("--dataset", default="cd",
                       choices=ALL_DATASETS)
        p.add_argument("--seed", type=int, default=0)

    oin = online_sub.add_parser(
        "ingest", help="fold pending journal events into the live "
                       "dataset (optionally simulating events first)")
    _add_online_common(oin)
    oin.add_argument("--simulate", type=int, default=0, metavar="N",
                     help="append N synthetic events before ingesting")
    oin.add_argument("--new-users", type=int, default=0,
                     help="[--simulate] cold-start users in the stream")
    oin.add_argument("--new-items", type=int, default=0,
                     help="[--simulate] cold-start items in the stream")
    oin.add_argument("--max-events", type=int, default=None,
                     help="ingest at most this many events (default: "
                          "drain the journal)")

    oft = online_sub.add_parser(
        "finetune", help="incrementally fine-tune the warm checkpoint "
                         "on the recency-weighted stream tail")
    _add_online_common(oft)
    oft.add_argument("--epochs", type=int, default=3)
    oft.add_argument("--tail-frac", type=float, default=0.25,
                     help="most-recent fraction of interactions to "
                          "fine-tune on (default: 0.25)")
    oft.add_argument("--half-life", type=float, default=None,
                     help="recency half-life in timestamp units "
                          "(default: a quarter of the tail's span)")

    osw = online_sub.add_parser(
        "swap", help="atomically flip CURRENT to an exported index "
                     "version and hot-swap attached services")
    _add_online_common(osw)
    osw.add_argument("--version", type=int, default=None,
                     help="index version to activate (default: newest)")

    orn = online_sub.add_parser(
        "run", help="one full ingest -> finetune -> swap cycle with "
                    "simulated events (bootstraps on first run)")
    _add_online_common(orn)
    orn.add_argument("--events", type=int, default=50)
    orn.add_argument("--new-users", type=int, default=2)
    orn.add_argument("--new-items", type=int, default=2)
    orn.add_argument("--bootstrap-epochs", type=int, default=3)
    orn.add_argument("--finetune-epochs", type=int, default=3)
    orn.add_argument("--tail-frac", type=float, default=0.25)
    orn.add_argument("--k", type=int, default=10,
                     help="cold-start probe list length")
    _add_telemetry(orn)

    ost = online_sub.add_parser(
        "status", help="journal lag, index version, and universe size")
    _add_online_common(ost)
    return parser


def cmd_stats(args) -> int:
    from repro.data import dataset_statistics
    for row in dataset_statistics(args.datasets):
        print(row)
    return 0


def cmd_train(args) -> int:
    from repro import obs
    from repro.data import load_dataset, temporal_split
    from repro.eval import Evaluator
    from repro.experiments import build_model
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    run = _maybe_start_run(args, "train", model=args.model,
                           dataset=args.dataset, epochs=args.epochs)
    with obs.trace("run", command="train"):
        with obs.trace("load_dataset", dataset=args.dataset):
            dataset = load_dataset(args.dataset)
            split = temporal_split(dataset)
        supervisor = None
        model = None
        if args.checkpoint_dir:
            from repro.robust import (ResilienceConfig,
                                      TrainingSupervisor, has_fit_state)
            supervisor = TrainingSupervisor(ResilienceConfig(
                checkpoint_dir=args.checkpoint_dir, resume=args.resume,
                **_given(checkpoint_every=args.checkpoint_every,
                         max_retries=args.max_retries,
                         lr_backoff=args.lr_backoff)))
            if args.resume and has_fit_state(args.checkpoint_dir):
                from repro.serve import load_checkpoint
                model = load_checkpoint(args.checkpoint_dir,
                                        dataset=dataset, split=split)
                print(f"[resume] continuing from "
                      f"{args.checkpoint_dir} at epoch "
                      f"{len(model.loss_history)}")
        if model is None:
            model = build_model(args.model, dataset, seed=args.seed)
        if args.epochs is not None:
            model.config.epochs = args.epochs
        evaluator = Evaluator(dataset, split)
        model.fit(dataset, split, evaluator=evaluator,
                  supervisor=supervisor)
        result = evaluator.evaluate_test(model)
    print(f"{args.model} on {args.dataset}: {result.summary()}")
    if supervisor is not None and supervisor.summary()["rollbacks"]:
        s = supervisor.summary()
        print(f"[robust] recovered from {s['rollbacks']} divergence "
              f"event(s); retries left: {s['retries_left']}")
    if args.save:
        from repro.serve import save_checkpoint
        path = save_checkpoint(model, args.save, dataset=dataset)
        print(f"[checkpoint] saved to {path} "
              f"(build an index with: repro serve export {path})")
    _finish_run(run, final_metrics=result.means,
                dataset_stats={"n_users": dataset.n_users,
                               "n_items": dataset.n_items,
                               "n_interactions": dataset.n_interactions})
    return 0


def _spec(args):
    """The ExperimentSpec an ``exp`` command names.

    From ``--spec FILE``, else (``resume``) the newest spec recorded in
    ``--workdir``, else the spec flags the user gave, with the current
    backend; ``ExperimentSpec`` fills every omitted field.  ``--backend``
    overrides the backend of all three.
    """
    import dataclasses

    from repro.experiments.dag import ExperimentSpec, ResultStore, SpecError
    from repro.tensor.backend import get_backend
    if args.spec:
        record = ExperimentSpec.from_file(args.spec).to_dict()
    elif args.exp_command == "resume":
        recorded = ResultStore(args.workdir).recorded_specs()
        if not recorded:
            raise SpecError(f"nothing to resume under {args.workdir}; "
                            f"start with `repro exp run` or pass --spec")
        record = recorded[0].to_dict()
    else:
        record = _given(**{field.name: getattr(args, field.name)
                           for field in dataclasses.fields(ExperimentSpec)})
        record["backend"] = get_backend().name
    if args.backend:
        record["backend"] = args.backend
    return ExperimentSpec.from_dict(record)


def cmd_exp(args) -> int:
    from repro import obs
    from repro.experiments.dag import (clean_experiment, experiment_status,
                                       run_experiment)
    if args.exp_command == "clean":
        n = clean_experiment(args.workdir)
        print(f"[exp] removed {n} cached node(s) under {args.workdir}")
        return 0
    spec = _spec(args)
    if args.exp_command == "status":
        status = experiment_status(spec, args.workdir)
        by_kind = {}
        for node in status["nodes"]:
            slot = by_kind.setdefault(node["kind"], [0, 0])
            slot[0] += node["done"]
            slot[1] += 1
        print(f"[exp] spec {status['spec_hash']} ({spec.describe()}): "
              f"{status['state']} — {status['done']}/{status['total']} "
              f"node(s) under {args.workdir}")
        for kind in ("dataset", "train", "eval", "cases", "aggregate"):
            if kind in by_kind:
                done, total = by_kind[kind]
                print(f"  {kind}: {done}/{total}")
        return {"complete": 0, "partial": 1, "empty": 2}[status["state"]]
    # exp run | resume
    command = f"exp_{args.exp_command}"
    workdir = None if getattr(args, "ephemeral", False) else args.workdir
    run = _maybe_start_run(args, command, kind=spec.kind,
                           spec=spec.spec_hash(), workdir=workdir,
                           workers=args.workers)
    with obs.trace("run", command=command):
        result = run_experiment(spec, workdir=workdir, workers=args.workers)
    print(f"[exp] spec {spec.spec_hash()} ({spec.describe()})")
    print(f"[exp] {result.stats.summary()}")
    if workdir:
        print(f"[exp] cached under {workdir} (inspect with: repro exp "
              f"status --workdir {workdir}; rerun skips cached nodes)")
    if not args.no_tables:
        print(result.format())
    final = {f"exp/{k}": float(v)
             for k, v in result.stats.to_dict().items()
             if isinstance(v, (int, float))}
    _finish_run(run, final_metrics=final)
    return 0


def cmd_obs(args) -> int:
    import json
    import pathlib

    from repro import obs
    run_dir = pathlib.Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"error: no run directory at {run_dir}", file=sys.stderr)
        return 2
    if args.obs_command == "summarize":
        if (obs.read_manifest(run_dir) is None
                and not obs.read_events(run_dir)):
            print(f"error: {run_dir} contains no run artifacts "
                  f"(expected manifest.json or events.jsonl)",
                  file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(obs.summarize_json(run_dir), indent=2))
        else:
            print(obs.summarize(run_dir))
        return 0
    if args.obs_command == "export-trace":
        out = obs.export_chrome_trace(run_dir, out=args.out)
        print(f"[trace] {out} (open in chrome://tracing or "
              f"https://ui.perfetto.dev)")
        return 0
    if args.obs_command == "slo":
        from repro.obs.slo import (evaluate_run, format_report,
                                   load_slo_config)
        config_path = args.config
        if config_path is None and (run_dir / "slo.json").is_file():
            config_path = run_dir / "slo.json"
        report = evaluate_run(run_dir, load_slo_config(config_path))
        if report is None:
            print(f"error: {run_dir} has no manifest.json (run did not "
                  f"finish); nothing to evaluate", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(format_report(report, title=f"slo {run_dir}"))
        if report["n_no_data"] == report["n_objectives"]:
            return 2
        return 0 if report["passed"] else 1
    if args.obs_command == "profile":
        from repro.obs.profile import PROFILE_FILENAME, render_profile
        path = run_dir / PROFILE_FILENAME
        if not path.is_file():
            print(f"error: no {PROFILE_FILENAME} in {run_dir} "
                  f"(record one with --profile)", file=sys.stderr)
            return 2
        print(render_profile(path, top=args.top))
        return 0
    lines = obs.list_runs(run_dir)
    if not lines:
        print(f"error: no runs recorded under {run_dir}/", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


def cmd_serve(args) -> int:
    if args.serve_command == "export":
        return _serve_export(args)
    if args.serve_command == "http":
        return _serve_http(args)
    if args.serve_command == "query":
        from repro.serve import RecommendService, ServiceConfig, load_index
        service = RecommendService(load_index(args.index), ServiceConfig(
            **_given(k=args.k, cache_size=0 if args.no_cache else None)))
        users = [int(u) for u in args.users.split(",") if u.strip()]
        for response in service.query_batch(users):
            items = " ".join(str(i) for i in response["items"])
            note = f" ({response['source']} fallback)" \
                if response["fallback"] else ""
            print(f"user {response['user_id']}: {items}{note}")
        return 0
    from repro.serve.bench import format_results, run_serve_benchmark
    run = _maybe_start_run(args, "serve_bench", model=args.model,
                           dataset=args.dataset, requests=args.requests)
    results = run_serve_benchmark(
        model_name=args.model, dataset_name=args.dataset,
        epochs=args.epochs, n_requests=args.requests, k=args.k,
        index_path=args.index, frontend_workers=args.frontend_workers)
    print(format_results(results))
    final = {"indexed/p99_ms": results["indexed"]["p99_ms"],
             "indexed/qps": results["indexed"]["qps"]}
    if results.get("speedup_indexed_vs_naive"):
        final["speedup"] = results["speedup_indexed_vs_naive"]
    frontend = results.get("frontend")
    if frontend is not None:
        final["frontend/capacity_qps"] = frontend["capacity_qps"]
    _finish_run(run, final_metrics=final)
    return 0


def _serve_http(args) -> int:
    """``repro serve http``: run (or inspect) the multi-worker edge."""
    from repro.serve import ServiceConfig, load_index
    from repro.serve.frontend import (FrontendConfig, ServingFrontend,
                                      fetch_status, run_http_server)
    if args.status:
        if not args.port:
            print("error: --status needs --port PORT", file=sys.stderr)
            return 2
        status = fetch_status(args.port, args.host)
        fleet = status.get("fleet", {})
        print(f"frontend on {args.host}:{args.port}: "
              f"{fleet.get('ready', '?')}/{fleet.get('n_workers', '?')} "
              f"worker(s) ready, queue depth {status['queue_depth']}, "
              f"draining={status['draining']}")
        _print_kv(status["counters"])
        print(f"  ewma_queue_wait_ms: {status['ewma_queue_wait_ms']}")
        print(f"  worker_restarts: {fleet.get('total_restarts')}")
        breakers = fleet.get("breaker_states", {})
        flag = " (!)" if fleet.get("any_breaker_open") else ""
        print(f"  breakers: {breakers}{flag}")
        for shard_id, shard in sorted(fleet.get("shards", {}).items()):
            breaker = shard.get("breaker") or {}
            print(f"  shard {shard_id}: {shard['state']} "
                  f"worker={shard['worker_id']} "
                  f"gen={shard['generation']} "
                  f"restarts={shard['restarts']} "
                  f"handled={shard['handled']} "
                  f"breaker={breaker.get('state', '-')}")
        return 0
    if not args.index:
        print("error: an index directory is required (or --status)",
              file=sys.stderr)
        return 2
    fields = _given(n_workers=args.workers, max_queue_depth=args.queue_depth,
                    wait_budget_ms=args.wait_budget_ms,
                    default_deadline_ms=args.deadline_ms)
    if fields.get("default_deadline_ms", 1.0) <= 0:
        fields["default_deadline_ms"] = None  # <=0 disables deadlines
    config = FrontendConfig(service=ServiceConfig(**_given(k=args.k)),
                            **fields)
    index = load_index(args.index)
    run = _maybe_start_run(args, "serve_http", index=args.index,
                           workers=config.n_workers)
    frontend = ServingFrontend(index, config)

    def _ready(port: int) -> None:
        print(f"[serve] http://{args.host}:{port} -- {config.n_workers} "
              f"worker(s), queue depth {config.max_queue_depth}, deadline "
              f"{config.default_deadline_ms or 'off'}; GET "
              f"/recommend?user=U&k=K, /status, /health; SIGTERM drains",
              flush=True)

    code = run_http_server(frontend, host=args.host, port=args.port,
                           port_file=args.port_file, ready_message=_ready)
    counters = dict(frontend.counters)
    print(f"[serve] drained: {counters['completed']} completed, "
          f"{counters['shed_requests']} shed, "
          f"{counters['draining_rejects']} rejected while draining")
    _finish_run(run, final_metrics={
        "serve/completed": counters["completed"],
        "serve/shed_requests": counters["shed_requests"]})
    return code


def _serve_export(args) -> int:
    import pathlib

    from repro.data import load_dataset, temporal_split
    from repro.serve import (CheckpointError, build_index, load_checkpoint,
                             read_checkpoint_meta)
    meta = read_checkpoint_meta(args.checkpoint)
    dataset_meta = meta.get("dataset")
    if not dataset_meta:
        raise CheckpointError(
            f"checkpoint {args.checkpoint} records no dataset; re-save "
            f"it with save_checkpoint(model, path, dataset=...)")
    dataset = load_dataset(dataset_meta["name"])
    split = temporal_split(dataset)
    model = load_checkpoint(args.checkpoint, dataset=dataset, split=split)
    out = pathlib.Path(args.out) if args.out else (
        pathlib.Path(args.checkpoint) / "index")
    index = build_index(model, dataset, split)
    index.save(out)
    print(f"[index] {meta['model_class']} on {dataset_meta['name']} "
          f"(kind={index.kind}) written to {out} "
          f"(query with: repro serve query {out} --users 0,1,2)")
    return 0


def _print_kv(record: dict, skip=()) -> None:
    for key, value in record.items():
        if key in skip:
            continue
        print(f"  {key}: {value}")


def cmd_robust(args) -> int:
    from repro.robust.drills import (run_checkpoint_drill,
                                     run_frontend_drill,
                                     run_serving_drill,
                                     run_stream_drill,
                                     run_training_drill)
    if args.inject_target == "stream":
        record = run_stream_drill(kind=args.kind,
                                  dataset_name=args.dataset,
                                  n_events=args.events, seed=args.seed)
        verdict = ("fault detected and contained" if record["passed"]
                   else "fault NOT contained")
        print(f"robust inject stream ({record['kind']}): "
              f"{record['dataset']} -> {verdict}")
        _print_kv(record, skip=("kind", "dataset"))
        return 0 if record["passed"] else 1
    if args.inject_target == "serve" and args.swap:
        from repro.online import run_online_serve_drill
        record = run_online_serve_drill(
            model_name=args.model, dataset_name=args.dataset,
            epochs=args.epochs, n_requests=args.requests,
            n_events=args.events, k=args.k, seed=args.seed)
        verdict = ("degraded-mode serving held through the faulty "
                   "swap, recovered on the clean swap"
                   if record["passed"] else
                   f"{record['phase2_valid']}/{record['n_requests']} "
                   f"valid under fault, recovered="
                   f"{record['recovered']}")
        print(f"robust inject serve --swap: {record['model']} on "
              f"{record['dataset']} -> {verdict}")
        _print_kv(record, skip=("model", "dataset"))
        return 0 if record["passed"] else 1
    if args.inject_target == "train":
        record = run_training_drill(
            model_name=args.model, dataset_name=args.dataset,
            epochs=args.epochs, checkpoint_dir=args.checkpoint_dir,
            nan_epoch=args.nan_epoch, nan_kind=args.nan_kind,
            kill_epoch=args.kill_epoch,
            checkpoint_every=args.checkpoint_every,
            max_retries=args.max_retries, lr_backoff=args.lr_backoff,
            resume=args.resume, seed=args.seed)
        status = ("crashed (resume with --resume)" if record["crashed"]
                  else "completed" if record["completed"] else "partial")
        print(f"robust inject train: {record['model']} on "
              f"{record['dataset']} -> {status}")
        _print_kv(record, skip=("model", "dataset", "events"))
        return 3 if record["crashed"] else 0
    if args.inject_target == "serve" and args.frontend:
        if (args.kill_after is None and args.stall_after is None
                and args.slow_shard_rate <= 0):
            print("error: --frontend needs at least one fault "
                  "(--kill-after / --stall-after / --slow-shard-rate)",
                  file=sys.stderr)
            return 2
        record = run_frontend_drill(
            model_name=args.model, dataset_name=args.dataset,
            epochs=args.epochs, n_requests=args.requests,
            n_workers=args.workers, kill_after=args.kill_after,
            stall_after=args.stall_after,
            stall_delay_s=args.stall_delay,
            slow_rate=args.slow_shard_rate,
            slow_delay_s=args.slow_shard_delay, worker=args.worker,
            k=args.k, qps=args.qps, seed=args.seed)
        passed = record["all_answered"] and record["recovered"]
        verdict = ("survived: every request answered, fleet recovered"
                   if passed else
                   f"{record['hard_failures']} hard failure(s), "
                   f"{record['fleet_ready']}/{record['n_workers']} "
                   f"worker(s) ready")
        print(f"robust inject serve --frontend: {record['model']} on "
              f"{record['dataset']} "
              f"({', '.join(record['fault_kinds'])}) -> {verdict}")
        _print_kv(record, skip=("model", "dataset",
                                "frontend_counters"))
        return 0 if passed else 1
    if args.inject_target == "serve":
        record = run_serving_drill(
            model_name=args.model, dataset_name=args.dataset,
            epochs=args.epochs, n_requests=args.requests,
            fail_rate=args.fail_rate, delay_rate=args.delay_rate,
            delay_s=args.delay, timeout_s=args.timeout,
            retries=args.retries, k=args.k, seed=args.seed)
        verdict = "all responses valid" if record["all_valid"] else \
            f"only {record['n_valid']}/{record['n_requests']} valid"
        print(f"robust inject serve: {record['model']} on "
              f"{record['dataset']} -> {verdict}")
        _print_kv(record, skip=("model", "dataset"))
        return 0 if record["all_valid"] else 1
    record = run_checkpoint_drill(args.path, seed=args.seed)
    verdict = ("corruption detected" if record["detected"]
               else "corruption NOT detected")
    print(f"robust inject checkpoint: {record['path']} -> {verdict}")
    _print_kv(record, skip=("path",))
    return 0 if record["detected"] else 1


def cmd_online(args) -> int:
    from repro.online import OnlineLoop

    loop = OnlineLoop(args.workdir, model_name=args.model,
                      dataset_name=args.dataset, seed=args.seed)
    if args.online_command == "ingest":
        if args.simulate:
            sim = loop.simulate(args.simulate, args.new_users,
                                args.new_items)
            print(f"online simulate: {sim['n_events']} events "
                  f"appended ({args.new_users} new users, "
                  f"{args.new_items} new items)")
        record = loop.ingest(max_events=args.max_events)
        print(f"online ingest: {record['n_appended']} events folded "
              f"into the live dataset")
        _print_kv(record)
        _print_kv({"universe": f"{loop.dataset.n_users} users x "
                               f"{loop.dataset.n_items} items"})
        return 0
    if args.online_command == "finetune":
        record = loop.finetune(epochs=args.epochs,
                               tail_frac=args.tail_frac,
                               half_life=args.half_life)
        print(f"online finetune: index v{record['version']} "
              f"exported (activate with: repro online swap "
              f"--workdir {loop.workdir})")
        _print_kv(record)
        return 0
    if args.online_command == "swap":
        record = loop.swap(version=args.version)
        print(f"online swap: v{record['version']} is live "
              f"({record['swap_latency_ms']:.1f} ms)")
        _print_kv(record, skip=("version", "live_swaps"))
        return 0
    if args.online_command == "status":
        record = loop.status()
        print(f"online status: {loop.workdir}")
        _print_kv(record, skip=("workdir",))
        return 0
    # run: one full cycle, with optional telemetry
    run = _maybe_start_run(args, "online", model=args.model,
                           dataset=args.dataset, events=args.events)
    record = loop.run_cycle(
        n_events=args.events, n_new_users=args.new_users,
        n_new_items=args.new_items,
        bootstrap_epochs=args.bootstrap_epochs,
        finetune_epochs=args.finetune_epochs,
        tail_frac=args.tail_frac, probe_k=args.k)
    cold = record["cold_start"]
    swap = record["swap"]
    freshness = swap["event_to_servable_s"]
    fresh_txt = f"{freshness:.3f}s" if freshness is not None else "n/a"
    hit_txt = f"{cold['hit_rate']:.2f}" if cold["n_probed"] else "n/a"
    print(f"online run: v{swap['version']} live, "
          f"{record['ingest']['n_appended']} events ingested, "
          f"cold-start hit rate {hit_txt}, "
          f"event->servable {fresh_txt}")
    for verb in ("bootstrap", "simulate", "ingest", "finetune",
                 "swap", "cold_start"):
        print(f"  [{verb}]")
        sub = {key: value for key, value in record[verb].items()
               if key != "live_swaps"}
        _print_kv({f"  {key}": value for key, value in sub.items()})
    _finish_run(run, final_metrics={
        "online/events_ingested": record["ingest"]["n_appended"],
        "online/cold_start_hit_rate": cold["hit_rate"] or 0.0,
        "online/swap_latency_ms": swap["swap_latency_ms"]})
    return 0


COMMANDS = {
    "stats": cmd_stats,
    "train": cmd_train,
    "exp": cmd_exp,
    "obs": cmd_obs,
    "serve": cmd_serve,
    "robust": cmd_robust,
    "online": cmd_online,
}


def _exit_code(exc: BaseException) -> Optional[int]:
    """The one table of expected failures: 2 when the input is unusable
    (spec, config value, checkpoint, index, dataset snapshot, SLO config,
    a missing file, an unreachable front-end), 1 when the run itself
    failed (training diverged, a poisoned event stream); ``None`` lets the
    exception propagate."""
    from repro.data.dataset import StreamError
    from repro.data.io import SnapshotError
    from repro.experiments.dag import SpecError
    from repro.obs.slo import SloConfigError
    from repro.robust import ConfigError, TrainingDivergedError
    from repro.serve import CheckpointError, IndexFormatError
    if isinstance(exc, (TrainingDivergedError, StreamError)):
        return 1
    if isinstance(exc, (SpecError, ConfigError, CheckpointError,
                        IndexFormatError, SnapshotError, SloConfigError,
                        FileNotFoundError, ConnectionError)):
        return 2
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None):
        from repro.tensor import set_backend
        set_backend(args.backend)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into e.g. `head` that exited early; not an error.
        import os
        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
