"""Fig. 6: Recall@10 / NDCG@10 of LogiRec++ across λ vs the best baseline.

Sweeps the logical-regularizer weight λ over {0, 0.01, 0.1, 1.0, 1.5} on
all four datasets (the paper plots the same series against HRCF; at bench
scale we compare against the stronger LightGCN as well).

Shape expectations:
* inverted-U in λ: the optimum is interior, λ = 0 clearly suboptimal;
* at its optimal λ, LogiRec++ is at or above the baseline series.
"""

from conftest import EPOCHS_STUDY
from repro.experiments import ExperimentSpec, run_experiment

DATASETS = ("ciao", "cd", "clothing", "book")
LAMBDAS = (0.0, 0.01, 0.1, 1.0, 2.0, 5.0, 10.0)


def _format(results) -> str:
    lines = []
    for ds, payload in results.items():
        lines.append(f"=== {ds} ===")
        base = payload["baseline"]
        lines.append("  baseline (HRCF): "
                     + " ".join(f"{k}={v:.2f}" for k, v in
                                sorted(base.items())))
        for lam, metrics in payload["series"].items():
            lines.append(f"  lambda={lam:<5}: "
                         + " ".join(f"{k}={v:.2f}" for k, v in
                                    sorted(metrics.items())))
        lines.append("")
    return "\n".join(lines)


def test_fig6_lambda_sweep(benchmark, artifact):
    spec = ExperimentSpec(kind="lambda", datasets=DATASETS,
                          lambdas=LAMBDAS, baseline="HRCF", ks=(10,),
                          epochs=EPOCHS_STUDY)
    results = benchmark.pedantic(
        lambda: run_experiment(spec).lambda_sweep(), rounds=1,
        iterations=1)
    artifact("fig6_lambda", _format(results))

    for ds in DATASETS:
        series = {lam: m["recall@10"]
                  for lam, m in results[ds]["series"].items()}
        best_lam = max(series, key=series.get)
        # Interior optimum: λ = 0 is not the best choice.
        assert best_lam != 0.0, ds
        # At optimal λ, LogiRec++ beats the HRCF baseline series.
        assert series[best_lam] >= results[ds]["baseline"]["recall@10"], ds
