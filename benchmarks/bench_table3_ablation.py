"""Table III: ablation study of LogiRec++ on all four datasets.

Variants: w/o L_Mem, w/o L_Hie, w/o L_Ex, w/o HGCN, w/o LRM (= LogiRec),
w/o Hyper (Euclidean), plus the CON-only / GR-only weighting ablations
DESIGN.md calls out.

Shape expectations from the paper:
* every ablation is at or below full LogiRec++ (averaged over datasets);
* among the three logic losses, removing L_Ex hurts the least
  (the extracted exclusions are the noisiest relation).

Known deviation (EXPERIMENTS.md): in the paper removing the HGCN hurts
most; on the synthetic mirrors removing L_Mem hurts most — the planted
tag signal is stronger relative to the collaborative signal than on the
real datasets, so the membership loss carries more of the performance.
"""

import numpy as np

from conftest import EPOCHS_STUDY
from repro.experiments import ABLATIONS, ExperimentSpec, run_experiment
from repro.experiments.ablation import format_ablation_table

DATASETS = ("ciao", "cd", "clothing", "book")
METRIC = "recall@10"


def _mean(results, variant):
    return float(np.mean([results[ds][variant][METRIC]
                          for ds in DATASETS]))


def test_table3_ablation(benchmark, artifact):
    spec = ExperimentSpec(kind="ablation", datasets=DATASETS,
                          variants=ABLATIONS, epochs=EPOCHS_STUDY)
    results = benchmark.pedantic(
        lambda: run_experiment(spec).ablation(), rounds=1, iterations=1)
    artifact("table3_ablation", format_ablation_table(results))

    full = _mean(results, "LogiRec++")
    no_hgcn = _mean(results, "w/o HGCN")
    no_mem = _mean(results, "w/o L_Mem")
    no_hie = _mean(results, "w/o L_Hie")
    no_ex = _mean(results, "w/o L_Ex")
    # Every structural ablation is below the full model.
    assert no_hgcn < full
    assert no_mem < full
    # On this data the membership loss is the most load-bearing piece.
    assert no_mem <= min(no_hgcn, no_hie, no_ex)
    # Removing exclusion hurts least among the three logic losses.
    assert no_ex >= no_mem - 1.0
    assert no_ex >= no_hie - 1.0
    # Full model is at or above every paper ablation (small tolerance
    # for seed noise).  The CON-only / GR-only rows are this repo's own
    # extension and occasionally trade places with the full weighting on
    # single seeds, so they are reported but not asserted.
    for variant in ABLATIONS:
        if variant not in ("LogiRec++", "CON-only", "GR-only"):
            assert _mean(results, variant) <= full + 2.5, variant
