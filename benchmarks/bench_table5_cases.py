"""Table V: interpretable case studies (CON / GR / alpha user profiles).

Trains LogiRec++ on the cd and book configs and prints, for four
contrasting users each, the consistency CON, granularity GR, and
personalized weight alpha together with the tag profile and the tagged
top-K recommendations — the machine-readable version of the paper's
Table V rows.

Shape expectations:
* the highest-CON user's recommendations are concentrated in few tags;
* alpha is the geometric mean of CON and GR (up to normalization), so a
  high-CON high-GR user outranks a low-CON low-GR user.
"""

from conftest import EPOCHS_STUDY
from repro.core import LogiRecConfig, LogiRecPP
from repro.data import load_dataset, temporal_split
from repro.eval import Evaluator
from repro.experiments import case_rows
from repro.experiments.cases import format_case_table
from repro.experiments.runner import LAMBDA_BY_DATASET


def _run(dataset_name: str):
    dataset = load_dataset(dataset_name)
    split = temporal_split(dataset)
    config = LogiRecConfig(dim=16, epochs=EPOCHS_STUDY,
                           lam=LAMBDA_BY_DATASET[dataset_name], seed=0)
    model = LogiRecPP(dataset.n_users, dataset.n_items, dataset.n_tags,
                      config)
    model.fit(dataset, split, evaluator=Evaluator(dataset, split))
    return case_rows(model, dataset, split)


def test_table5_case_studies(benchmark, artifact):
    def run_both():
        return {"cd": _run("cd"), "book": _run("book")}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    text = "\n\n".join(f"=== {ds} ===\n" + format_case_table(rows)
                       for ds, rows in results.items())
    artifact("table5_cases", text)

    for rows in results.values():
        assert len(rows) >= 2
        for row in rows:
            assert 0.0 < row["con"] <= 1.0
            assert row["gr"] >= 0.0
            assert row["alpha"] > 0.0
            assert row["recommended_items"]
        # The contrast the table stages: picked users span a CON range.
        cons = [row["con"] for row in rows]
        assert max(cons) > min(cons)
