"""Model comparison: a small Table-II style bake-off on one dataset.

Trains a representative subset of the paper's baselines plus LogiRec and
LogiRec++ on the ciao config and prints Recall/NDCG@{10,20} with the
Wilcoxon significance marker.

Run:
    python examples/compare_models.py [dataset] [--fast]
"""

import sys
import time

from repro.experiments import (ExperimentSpec, format_comparison_table,
                               run_experiment)

DEFAULT_MODELS = ["BPRMF", "CML", "LightGCN", "AGCN", "HGCF", "HRCF",
                  "LogiRec", "LogiRec++"]


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 and not sys.argv[1].startswith(
        "--") else "ciao"
    fast = "--fast" in sys.argv
    start = time.time()
    spec = ExperimentSpec(kind="comparison", models=DEFAULT_MODELS,
                          datasets=(dataset,), seeds=(0,),
                          epochs=40 if fast else None)
    results = run_experiment(spec).comparison()
    print(format_comparison_table(results))
    print(f"done in {time.time() - start:.0f}s"
          + (" (fast mode: 40 epochs/model)" if fast else ""))


if __name__ == "__main__":
    main()
