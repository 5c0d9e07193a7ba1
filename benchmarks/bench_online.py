"""Online-learning benchmark: the fine-tune vs retrain cost ceiling.

Writes ``BENCH_online.json`` at the repository root, next to
``BENCH_serve.json``, recording the wall-clock of the warm-start
incremental fine-tune (checkpoint load, embedding resize over the
streamed-in cold entities, a few epochs on the recency tail) as a
fraction of retraining the same architecture from scratch on the full
log at its offline epoch budget.  The recorded contract:
**fine-tune <= 25% of the retrain**, the headroom that makes continuous
updating affordable at all.

Ingest throughput and event→servable freshness are not timed here: the
repository benchmark's ``online-skewed`` workload
(``python3 perfbench/run.py --workload online-skewed``) times every
stage of the online cycle.

Run standalone (``PYTHONPATH=src python benchmarks/bench_online.py``) or
through pytest (``pytest benchmarks/bench_online.py``).  Set
``REPRO_BENCH_FAST=1`` for smaller stream and epoch budgets.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
from typing import Dict

from conftest import FAST, REPO_ROOT, bench_meta

RESULT_PATH = REPO_ROOT / "BENCH_online.json"

MODEL = "BPRMF"
DATASET = "cd"
N_EVENTS = 200 if FAST else 600
N_NEW_USERS = 4
N_NEW_ITEMS = 4
RETRAIN_EPOCHS = 4 if FAST else 8
FINETUNE_EPOCHS = 1 if FAST else 2
TAIL_FRAC = 0.25
MAX_COST_RATIO = 0.25


def run_online_suite(write: bool = False) -> Dict[str, object]:
    from repro.data import load_dataset, temporal_split
    from repro.experiments.runner import build_model
    from repro.online import (EventJournal, StreamIngestor,
                              incremental_finetune, simulate_events)
    from repro.serve.checkpoint import save_checkpoint

    with tempfile.TemporaryDirectory(prefix="repro_bench_online_") as tmp:
        workdir = pathlib.Path(tmp)
        # The offline base: the checkpoint the fine-tune warm-starts
        # from, and the from-scratch retrain it is priced against.
        dataset = load_dataset(DATASET)
        split = temporal_split(dataset)
        base = build_model(MODEL, dataset, seed=0)
        base.config.epochs = RETRAIN_EPOCHS
        t0 = time.perf_counter()
        base.fit(dataset, split)
        retrain_s = time.perf_counter() - t0
        save_checkpoint(base, workdir / "ck", dataset=dataset)

        # Stream cold users and items in first, so the fine-tune pays
        # for the embedding resize as it does in the online loop.
        journal = EventJournal(workdir / "journal.jsonl")
        journal.append(simulate_events(dataset, N_EVENTS, N_NEW_USERS,
                                       N_NEW_ITEMS, seed=0))
        StreamIngestor(dataset, journal).drain(batch_size=256)

        t0 = time.perf_counter()
        tuned = incremental_finetune(workdir / "ck", dataset,
                                     epochs=FINETUNE_EPOCHS,
                                     tail_frac=TAIL_FRAC)
        finetune_s = time.perf_counter() - t0

    results = {
        "model": MODEL,
        "dataset": DATASET,
        "finetune": {
            "finetune_s": finetune_s,
            "retrain_s": retrain_s,
            "cost_ratio": finetune_s / max(retrain_s, 1e-9),
            "epochs": FINETUNE_EPOCHS,
            "retrain_epochs": RETRAIN_EPOCHS,
            "tail_frac": TAIL_FRAC,
            "n_tail": tuned["n_tail"],
            "growth": tuned["growth"],
            "final_loss": tuned["final_loss"],
        },
        "meta": {**bench_meta(scale=1.0), "max_cost_ratio": MAX_COST_RATIO},
    }
    if write:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return results


def format_online_results(results: Dict[str, object]) -> str:
    finetune = results["finetune"]
    return (
        f"online benchmark -- {results['model']} on {results['dataset']}\n"
        f"  fine-tune: {finetune['finetune_s']:.2f}s "
        f"({finetune['epochs']} epoch(s) on {finetune['n_tail']} tail "
        f"events) vs retrain {finetune['retrain_s']:.2f}s "
        f"({finetune['retrain_epochs']} epochs) -> "
        f"cost ratio {finetune['cost_ratio']:.1%}")


def check_online_results(results: Dict[str, object]) -> None:
    """The recorded contract; shared by pytest and standalone runs."""
    finetune = results["finetune"]
    assert finetune["cost_ratio"] <= MAX_COST_RATIO, (
        f"incremental fine-tune cost {finetune['cost_ratio']:.1%} of a "
        f"from-scratch retrain exceeds the {MAX_COST_RATIO:.0%} ceiling")


def test_online_bench(benchmark, artifact):
    """Regenerate BENCH_online.json and hold the fine-tune ceiling."""
    results = benchmark.pedantic(run_online_suite,
                                 kwargs=dict(write=not FAST),
                                 rounds=1, iterations=1)
    artifact("online", format_online_results(results))
    check_online_results(results)


if __name__ == "__main__":
    out = run_online_suite(write=True)
    print(format_online_results(out))
    check_online_results(out)
    print(f"[results written to {RESULT_PATH}]")
