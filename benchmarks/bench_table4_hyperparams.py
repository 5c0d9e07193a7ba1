"""Table IV: hyperparameter studies on CD and Clothing.

One-at-a-time sweeps of the graph depth L, the logical weight λ, the
margin m, and the embedding dimension d around the tuned operating point
(the paper sweeps d over {32, 64, 128}; the bench-scale capacity
equivalent is {8, 16, 32}).

Shape expectations from the paper:
* L: interior optimum (L = 3 in the paper); L = 1 clearly worse;
* λ: interior optimum — λ = 0 (no logic) is clearly worse;
* m: small positive margin beats m = 0;
* d: bigger is better with diminishing returns.
"""

from conftest import EPOCHS_STUDY
from repro.experiments import ExperimentSpec, run_experiment

DATASETS = ("cd", "clothing")
METRIC = "recall@10"


def _series(results, ds, param):
    return {value: metrics[METRIC]
            for value, metrics in results[ds][param].items()}


def _format(results) -> str:
    lines = []
    for ds, params in results.items():
        lines.append(f"=== {ds} ===")
        for param, series in params.items():
            row = "  ".join(f"{v}={m[METRIC]:.2f}"
                            for v, m in series.items())
            lines.append(f"{param:10s} {row}")
        lines.append("")
    return "\n".join(lines)


def test_table4_hyperparameters(benchmark, artifact):
    spec = ExperimentSpec(kind="sweep", datasets=DATASETS, ks=(10,),
                          epochs=EPOCHS_STUDY)
    results = benchmark.pedantic(
        lambda: run_experiment(spec).sweep(), rounds=1, iterations=1)
    artifact("table4_hyperparams", _format(results))

    for ds in DATASETS:
        lam = _series(results, ds, "lam")
        # λ = 0 (logic off) must be clearly below the tuned interior value.
        assert max(lam[0.1], lam[1.0]) > lam[0.0]
        dim = _series(results, ds, "dim")
        # Capacity: d = 16 over d = 8 (diminishing returns above).
        assert dim[16] > dim[8] * 0.9
        layers = _series(results, ds, "n_layers")
        assert max(layers[2], layers[3]) >= layers[1] * 0.9
