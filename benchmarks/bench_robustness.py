"""Extension bench: taxonomy-corruption robustness (not a paper table).

Quantifies the paper's motivating claim that extracted relations are
noisy and that behaviour-driven mining compensates: corrupt a growing
fraction of taxonomy edges and compare LogiRec vs LogiRec++ degradation.
"""

from conftest import EPOCHS_STUDY
from repro.experiments import (ExperimentSpec, format_robustness_table,
                               run_experiment)

FRACTIONS = (0.0, 0.25, 0.5)


def test_noise_robustness(benchmark, artifact):
    spec = ExperimentSpec(kind="robustness", datasets=("cd",),
                          fractions=FRACTIONS, epochs=EPOCHS_STUDY)
    results = benchmark.pedantic(
        lambda: run_experiment(spec).robustness(), rounds=1, iterations=1)
    artifact("robustness", format_robustness_table(results))

    # Both models should still clearly work under 50% corruption.
    for fraction in FRACTIONS:
        for name in ("LogiRec", "LogiRec++"):
            assert results[fraction][name]["recall@10"] > 2.0
    # Mining should not be *hurt more* by corruption than no-mining.
    gain_clean = (results[0.0]["LogiRec++"]["recall@10"]
                  - results[0.0]["LogiRec"]["recall@10"])
    gain_noisy = (results[0.5]["LogiRec++"]["recall@10"]
                  - results[0.5]["LogiRec"]["recall@10"])
    assert gain_noisy >= gain_clean - 5.0
