"""Aggregation and the shared typed result record.

Every experiment section reduces its evaluation nodes into one
JSON-safe aggregate record (this is the ``aggregate`` node's executor),
and :class:`ExperimentResult` wraps those records behind typed accessors
that return the nested-dict shape each table renderer consumes —
``comparison()``'s ``{dataset: {model: {metric: (mean, std)}}}``,
``ablation()``'s ``{dataset: {variant: {metric: pct}}}``, and so on.

Determinism note: aggregates are pure functions of their entry results,
and node results round-trip through JSON with exact float ``repr``
forms, so an aggregate computed from disk-cached results is bit-equal
to one computed from a fresh run — the property the kill→resume test
pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.dag.spec import ExperimentSpec
from repro.experiments.dag.store import CacheStats


# ----------------------------------------------------------------------
# Section aggregation (the `aggregate` node executor)
# ----------------------------------------------------------------------
def _agg_comparison(entries: List[dict], meta: dict,
                    results: Dict[str, dict]) -> dict:
    seeds = list(meta["seeds"])
    tables: Dict[str, dict] = {}
    per_user: Dict[str, dict] = {}
    for entry in entries:
        record = results[entry["key"]]
        store = (tables.setdefault(entry["dataset"], {})
                 .setdefault(entry["model"], {}))
        for metric, value in record["means"].items():
            store.setdefault(metric, []).append(value)
        # The last seed's per-user vectors feed the significance test.
        if entry["seed"] == seeds[-1]:
            per_user.setdefault(entry["dataset"], {})[entry["model"]] = \
                record["per_user"]
    for models in tables.values():
        for store in models.values():
            for metric in list(store):
                values = np.asarray(store[metric])
                store[metric] = [float(values.mean()),
                                 float(values.std())]
    significance = {}
    for ds_name, model_vectors in per_user.items():
        from repro.experiments.runner import significance_vs_best_baseline
        sig = significance_vs_best_baseline(
            {m: {k: np.asarray(v) for k, v in vecs.items()}
             for m, vecs in model_vectors.items()})
        if sig:
            significance[ds_name] = {
                "best_baseline": sig["best_baseline"],
                "significant": bool(sig["significant"]),
                "p_value": float(sig["p_value"]),
            }
    return {"tables": tables, "per_user": per_user,
            "significance": significance, "meta": meta}


def _agg_ablation(entries: List[dict], meta: dict,
                  results: Dict[str, dict]) -> dict:
    tables: Dict[str, dict] = {}
    for entry in entries:
        record = results[entry["key"]]
        store = (tables.setdefault(entry["dataset"], {})
                 .setdefault(entry["variant"], {}))
        for metric, value in record["means"].items():
            store.setdefault(metric, []).append(value)
    # Mean over seeds; with one seed this is the value itself (exactly —
    # np.mean of a singleton returns the same float64).
    for variants in tables.values():
        for store in variants.values():
            for metric in list(store):
                store[metric] = float(np.mean(store[metric]))
    return {"tables": tables, "meta": meta}


def _agg_sweep(entries: List[dict], meta: dict,
               results: Dict[str, dict]) -> dict:
    series: Dict[str, dict] = {}
    for entry in entries:
        record = results[entry["key"]]
        (series.setdefault(entry["dataset"], {})
         .setdefault(entry["param"], [])
         .append({"value": entry["value"], "means": record["means"]}))
    return {"series": series, "meta": meta}


def _agg_lambda(entries: List[dict], meta: dict,
                results: Dict[str, dict]) -> dict:
    tables: Dict[str, dict] = {}
    for entry in entries:
        record = results[entry["key"]]
        section = tables.setdefault(entry["dataset"],
                                    {"baseline": None, "series": []})
        if entry["role"] == "baseline":
            section["baseline"] = record["means"]
        else:
            section["series"].append({"lam": entry["lam"],
                                      "means": record["means"]})
    return {"tables": tables, "meta": meta}


def _agg_robustness(entries: List[dict], meta: dict,
                    results: Dict[str, dict]) -> dict:
    rows = [{"fraction": entry["fraction"], "model": entry["model"],
             "means": results[entry["key"]]["means"]}
            for entry in entries]
    return {"rows": rows, "meta": meta}


def _agg_cases(entries: List[dict], meta: dict,
               results: Dict[str, dict]) -> dict:
    by_dataset = {entry["dataset"]: results[entry["key"]]["rows"]
                  for entry in entries}
    return {"rows_by_dataset": by_dataset, "meta": meta}


_AGGREGATORS = {
    "comparison": _agg_comparison,
    "ablation": _agg_ablation,
    "sweep": _agg_sweep,
    "lambda": _agg_lambda,
    "robustness": _agg_robustness,
    "cases": _agg_cases,
}


def aggregate_section(section: str, entries: List[dict], meta: dict,
                      results: Dict[str, dict]) -> dict:
    """Reduce one section's node results into its aggregate record."""
    return _AGGREGATORS[section](list(entries), dict(meta), results)


# ----------------------------------------------------------------------
# The shared typed result record
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """One schema out: what every experiment entrypoint returns.

    ``sections`` maps section kind → aggregate record (a single-kind
    spec has one section; a grid has all six).  The ``comparison()`` /
    ``ablation()`` / … accessors rebuild each section as the nested
    dict its table renderer consumes.
    """

    spec: ExperimentSpec
    sections: Dict[str, dict]
    stats: CacheStats = field(default_factory=CacheStats)
    workdir: Optional[str] = None

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def section(self, kind: str) -> dict:
        if kind not in self.sections:
            raise KeyError(f"experiment has no {kind!r} section; "
                           f"available: {sorted(self.sections)}")
        return self.sections[kind]

    # -- per-table accessors -----------------------------------------
    def comparison(self) -> dict:
        """``{dataset: {model: {metric: (mean, std)}, "_per_user": …}}``."""
        agg = self.section("comparison")
        out: dict = {}
        for ds_name, models in agg["tables"].items():
            out[ds_name] = {
                model: {metric: tuple(pair)
                        for metric, pair in store.items()}
                for model, store in models.items()}
            out[ds_name]["_per_user"] = {
                model: {metric: np.asarray(values)
                        for metric, values in vectors.items()}
                for model, vectors in
                agg["per_user"].get(ds_name, {}).items()}
        return out

    def ablation(self) -> dict:
        """``{dataset: {variant: {metric: pct}}}``."""
        agg = self.section("ablation")
        return {ds: {variant: dict(store)
                     for variant, store in variants.items()}
                for ds, variants in agg["tables"].items()}

    def sweep(self) -> dict:
        """``{dataset: {param: {value: {metric: pct}}}}``."""
        agg = self.section("sweep")
        return {ds: {param: {row["value"]: dict(row["means"])
                             for row in rows}
                     for param, rows in params.items()}
                for ds, params in agg["series"].items()}

    def lambda_sweep(self) -> dict:
        """``{dataset: {"baseline": …, "series": {lam: …}}}``."""
        agg = self.section("lambda")
        return {ds: {"baseline": dict(table["baseline"]),
                     "series": {row["lam"]: dict(row["means"])
                                for row in table["series"]}}
                for ds, table in agg["tables"].items()}

    def robustness(self) -> dict:
        """``{fraction: {"LogiRec": …, "LogiRec++": …}}``."""
        agg = self.section("robustness")
        out: dict = {}
        for row in agg["rows"]:
            out.setdefault(row["fraction"], {})[row["model"]] = \
                dict(row["means"])
        return out

    def cases(self, dataset: Optional[str] = None) -> List[dict]:
        """Table V rows for one dataset (the only one, if unambiguous)."""
        agg = self.section("cases")
        by_dataset = agg["rows_by_dataset"]
        if dataset is None:
            if len(by_dataset) != 1:
                raise KeyError(f"cases span datasets "
                               f"{sorted(by_dataset)}; pass one")
            dataset = next(iter(by_dataset))
        return by_dataset[dataset]

    # -- rendering ----------------------------------------------------
    def format(self, kind: Optional[str] = None) -> str:
        """Render one section (or every section of a grid) as text."""
        kinds = [kind] if kind else sorted(self.sections)
        blocks = []
        for name in kinds:
            blocks.append(_FORMATTERS[name](self))
        return "\n\n".join(blocks)

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(),
                "spec_hash": self.spec_hash,
                "sections": self.sections,
                "stats": self.stats.to_dict()}


def _format_comparison(result: ExperimentResult) -> str:
    from repro.experiments.runner import format_comparison_table
    return format_comparison_table(result.comparison(),
                                   ks=result.spec.ks)


def _format_ablation(result: ExperimentResult) -> str:
    from repro.experiments.ablation import format_ablation_table
    return format_ablation_table(result.ablation())


def _format_sweep(result: ExperimentResult) -> str:
    lines = ["Hyperparameter study (Table IV):"]
    for ds_name, params in result.sweep().items():
        lines.append(f"=== {ds_name} ===")
        for param, values in params.items():
            for value, means in values.items():
                cells = " ".join(f"{m}={v:6.2f}"
                                 for m, v in sorted(means.items()))
                lines.append(f"{param}={value!s:<6} {cells}")
    return "\n".join(lines)


def _format_lambda(result: ExperimentResult) -> str:
    spec = result.spec
    lines = [f"λ sweep vs {spec.baseline} (Fig. 6):"]
    for ds_name, table in result.lambda_sweep().items():
        lines.append(f"=== {ds_name} ===")
        base = " ".join(f"{m}={v:6.2f}"
                        for m, v in sorted(table["baseline"].items()))
        lines.append(f"{spec.baseline:<10} {base}")
        for lam, means in table["series"].items():
            cells = " ".join(f"{m}={v:6.2f}"
                             for m, v in sorted(means.items()))
            lines.append(f"λ={lam!s:<8} {cells}")
    return "\n".join(lines)


def _format_robustness(result: ExperimentResult) -> str:
    from repro.experiments.robustness import format_robustness_table
    metric = f"recall@{result.spec.ks[0]}"
    return format_robustness_table(result.robustness(), metric=metric)


def _format_cases(result: ExperimentResult) -> str:
    from repro.experiments.cases import format_case_table
    agg = result.section("cases")
    blocks = []
    for ds_name, rows in agg["rows_by_dataset"].items():
        blocks.append(f"=== {ds_name} ===\n" + format_case_table(rows))
    return "\n".join(blocks)


_FORMATTERS = {
    "comparison": _format_comparison,
    "ablation": _format_ablation,
    "sweep": _format_sweep,
    "lambda": _format_lambda,
    "robustness": _format_robustness,
    "cases": _format_cases,
}
