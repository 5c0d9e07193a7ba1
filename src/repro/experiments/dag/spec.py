"""The declarative :class:`ExperimentSpec`: one schema in, one hash out.

An experiment — a Table-II comparison, a Table-III ablation, a sweep, a
robustness grid, Table-V case studies, or the whole paper grid — is
described by a single frozen dataclass.  The spec is the *only* input to
the orchestration layer: it compiles to a node graph
(:mod:`repro.experiments.dag.graph`), every node result is keyed by a
hash of the fields that determine it, and re-running the same spec skips
every completed node.

Hashing contract
----------------
``spec_hash()`` (and the per-node keys derived from the spec) is a
sha256 over the canonical JSON form: sorted keys, no whitespace
dependence, tuples serialized as lists.  The hash is a pure function of
the spec's fields — stable across processes and Python runs (no
``hash()`` salting) — and *any* field change produces a new hash.
Execution details (worker count, cache directory, telemetry) are
deliberately not spec fields: they must not invalidate cached results.
``backend`` *is* a field, because the fast backend's float32 numerics
are tolerance-equal, not bit-equal, to the reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

SPEC_KINDS = ("comparison", "ablation", "sweep", "lambda", "robustness",
              "cases", "grid")

#: Datasets of the paper's Table I, in presentation order.
ALL_DATASETS = ("ciao", "cd", "clothing", "book")


class SpecError(ValueError):
    """An :class:`ExperimentSpec` is malformed: unknown kind, model,
    dataset, variant, or hyperparameter."""


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact separators.

    Floats round-trip exactly (``json`` emits ``repr``-shortest forms),
    so hashing canonical JSON is bit-stable across processes.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value, n: int = 12) -> str:
    """First ``n`` hex chars of the sha256 of ``value``'s canonical JSON."""
    payload = canonical_json(value).encode()
    return hashlib.sha256(payload).hexdigest()[:n]


def _tup(value, cast=None) -> tuple:
    if value is None:
        return ()
    if isinstance(value, (str, bytes)):
        value = (value,)
    out = tuple(value)
    return tuple(cast(v) for v in out) if cast else out


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen description of one experiment (or the full paper grid).

    Fields unused by a ``kind`` are normalized to their defaults so they
    never perturb the hash: a comparison spec ignores ``variants``, an
    ablation ignores ``models``, and so on.

    Parameters
    ----------
    kind:
        One of :data:`SPEC_KINDS`.
    datasets:
        Dataset names from the registry.  Defaults per kind (the paper's
        choices): comparison/grid run all four, ablation and the λ sweep
        run ciao+cd, sweeps/robustness/cases run cd.
    models:
        Comparison only; empty means the full 15-model zoo.
    variants:
        Ablation only; empty means every Table-III variant.
    params:
        Hyperparameter sweep only; empty means every Table-IV row.
    lambdas:
        λ-sweep grid (Fig. 6).
    fractions:
        Taxonomy-corruption fractions (robustness).
    baseline:
        The fixed comparison model of the λ sweep.
    seeds:
        Run seeds; comparison/ablation aggregate over all of them,
        sweeps and cases use the first (the paper's protocol).
    ks:
        Ranking cutoffs of the evaluation.
    epochs:
        Budget override applied to every training node (``None`` keeps
        each family's tuned budget).
    backend:
        Tensor-execution backend name; every pool worker re-selects it
        after fork/spawn.
    scale:
        Dataset scale multiplier (1.0 = bench scale).
    """

    kind: str = "comparison"
    datasets: Tuple[str, ...] = ()
    models: Tuple[str, ...] = ()
    variants: Tuple[str, ...] = ()
    params: Tuple[str, ...] = ()
    lambdas: Tuple[float, ...] = ()
    fractions: Tuple[float, ...] = ()
    baseline: str = "HRCF"
    seeds: Tuple[int, ...] = (0,)
    ks: Tuple[int, ...] = (10, 20)
    epochs: Optional[int] = None
    backend: str = "reference"
    scale: float = 1.0

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "datasets", _tup(self.datasets, str))
        set_(self, "models", _tup(self.models, str))
        set_(self, "variants", _tup(self.variants, str))
        set_(self, "params", _tup(self.params, str))
        set_(self, "lambdas", _tup(self.lambdas, float))
        set_(self, "fractions", _tup(self.fractions, float))
        set_(self, "seeds", _tup(self.seeds, int))
        set_(self, "ks", _tup(self.ks, int))
        set_(self, "scale", float(self.scale))
        if self.epochs is not None:
            set_(self, "epochs", int(self.epochs))
        self._validate()
        self._normalize()

    # ------------------------------------------------------------------
    # Validation + per-kind normalization
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise SpecError(f"unknown experiment kind {self.kind!r}; "
                            f"known: {list(SPEC_KINDS)}")
        for name in self.datasets:
            if name not in ALL_DATASETS:
                raise SpecError(f"unknown dataset {name!r}; known: "
                                f"{list(ALL_DATASETS)}")
        if self.models or self.kind in ("comparison", "grid"):
            from repro.experiments.runner import ALL_MODEL_NAMES
            for name in self.models:
                if name not in ALL_MODEL_NAMES:
                    raise SpecError(f"unknown model {name!r}; known: "
                                    f"{ALL_MODEL_NAMES}")
        if self.variants:
            from repro.experiments.ablation import ABLATIONS
            for variant in self.variants:
                if variant not in ABLATIONS:
                    raise SpecError(f"unknown ablation variant "
                                    f"{variant!r}; known: {ABLATIONS}")
        if self.params:
            from repro.experiments.sweeps import HYPERPARAM_GRID
            for param in self.params:
                if param not in HYPERPARAM_GRID:
                    raise SpecError(
                        f"unknown sweep hyperparameter {param!r}; "
                        f"known: {list(HYPERPARAM_GRID)}")
        if self.kind == "lambda":
            from repro.experiments.runner import ALL_MODEL_NAMES
            if self.baseline not in ALL_MODEL_NAMES:
                raise SpecError(f"unknown λ-sweep baseline "
                                f"{self.baseline!r}")
        if not self.seeds:
            raise SpecError("spec needs at least one seed")
        if not self.ks:
            raise SpecError("spec needs at least one ranking cutoff k")
        for fraction in self.fractions:
            if not 0.0 <= fraction <= 1.0:
                raise SpecError(f"corruption fraction must be in [0, 1],"
                                f" got {fraction}")
        if self.backend:
            from repro.tensor.backend import available_backends
            if self.backend not in available_backends():
                raise SpecError(
                    f"unknown backend {self.backend!r}; known: "
                    f"{list(available_backends())}")

    _DEFAULT_DATASETS = {
        "comparison": ALL_DATASETS,
        "grid": ALL_DATASETS,
        "ablation": ("ciao", "cd"),
        "lambda": ("ciao", "cd"),
        "sweep": ("cd",),
        "robustness": ("cd",),
        "cases": ("cd",),
    }

    def _normalize(self) -> None:
        """Fill per-kind defaults; zero out fields the kind ignores."""
        set_ = object.__setattr__
        if not self.datasets:
            set_(self, "datasets", self._DEFAULT_DATASETS[self.kind])
        if self.kind in ("comparison", "grid") and not self.models:
            from repro.experiments.runner import ALL_MODEL_NAMES
            set_(self, "models", tuple(ALL_MODEL_NAMES))
        if self.kind in ("ablation", "grid") and not self.variants:
            from repro.experiments.ablation import ABLATIONS
            set_(self, "variants", tuple(ABLATIONS))
        if self.kind in ("sweep", "grid") and not self.params:
            from repro.experiments.sweeps import HYPERPARAM_GRID
            set_(self, "params", tuple(HYPERPARAM_GRID))
        if self.kind in ("lambda", "grid") and not self.lambdas:
            set_(self, "lambdas", (0.0, 0.01, 0.1, 1.0, 1.5))
        if self.kind in ("robustness", "grid") and not self.fractions:
            set_(self, "fractions", (0.0, 0.2, 0.5))
        # Fields foreign to the kind never perturb the hash.
        zeroed = {
            "comparison": ("variants", "params", "lambdas", "fractions"),
            "ablation": ("models", "params", "lambdas", "fractions"),
            "sweep": ("models", "variants", "lambdas", "fractions"),
            "lambda": ("models", "variants", "params", "fractions"),
            "robustness": ("models", "variants", "params", "lambdas"),
            "cases": ("models", "variants", "params", "lambdas",
                      "fractions"),
            "grid": (),
        }[self.kind]
        for name in zeroed:
            set_(self, name, ())
        if self.kind not in ("lambda", "grid"):
            set_(self, "baseline", "HRCF")

    # ------------------------------------------------------------------
    # Serialization + hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "ExperimentSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise SpecError(f"unknown spec field(s): {sorted(unknown)}")
        return cls(**record)

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"unreadable spec file {path}: {exc}") from exc
        if not isinstance(record, dict):
            raise SpecError(f"spec file {path} must hold a JSON object")
        return cls.from_dict(record)

    def spec_hash(self) -> str:
        return digest(self.to_dict())

    def describe(self) -> str:
        parts = [f"kind={self.kind}", f"datasets={list(self.datasets)}"]
        if self.models:
            parts.append(f"models={len(self.models)}")
        if self.variants:
            parts.append(f"variants={len(self.variants)}")
        parts.append(f"seeds={list(self.seeds)}")
        if self.epochs is not None:
            parts.append(f"epochs={self.epochs}")
        parts.append(f"backend={self.backend}")
        return " ".join(parts)
