"""Persistent (or in-memory) node-result store with cache accounting.

Disk layout under the workdir::

    <root>/specs/<spec_hash>.json     # every spec ever run here
    <root>/nodes/<node_key>/result.json   # completion marker + result
    <root>/nodes/<node_key>/ck/           # train: supervisor auto-ckpt
    <root>/nodes/<node_key>/final/        # train: final PR4 checkpoint

``result.json`` is written atomically (:func:`repro.artifact.replaced`) and
its presence *is* the completion marker: a run killed mid-node leaves
checkpoints but no marker, so the next run re-executes that node — and
the training executor resumes from the auto-checkpoint's ``fit_state``
instead of starting over.

The in-memory store (no workdir) backs ``repro exp run --ephemeral``
and the paper benches, which persist nothing; it additionally carries
live model objects between train and eval nodes so nothing is
serialized.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.artifact import replaced
from repro.experiments.dag.spec import ExperimentSpec


@dataclass
class CacheStats:
    """Node accounting of one scheduler pass."""

    total: int = 0
    hits: int = 0
    executed: int = 0
    retrained: int = 0      # train nodes actually executed
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record(self, kind: str, cached: bool) -> None:
        self.total += 1
        slot = self.by_kind.setdefault(kind, {"hits": 0, "executed": 0})
        if cached:
            self.hits += 1
            slot["hits"] += 1
        else:
            self.executed += 1
            slot["executed"] += 1
            if kind == "train":
                self.retrained += 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def summary(self) -> str:
        pct = int(round(self.hit_rate * 100))
        return (f"{self.total} node(s): {self.hits} cached ({pct}%), "
                f"{self.executed} executed, {self.retrained} retrain(s)")

    def to_dict(self) -> Dict[str, object]:
        return {"total": self.total, "hits": self.hits,
                "executed": self.executed, "retrained": self.retrained,
                "by_kind": self.by_kind}


class ResultStore:
    """Node results keyed by config hash; disk-backed when ``root`` is
    set, in-memory otherwise."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else None
        self._memory: Dict[str, dict] = {}
        #: live objects (trained models) for in-memory pipelines.
        self.artifacts: Dict[str, object] = {}

    @property
    def persistent(self) -> bool:
        return self.root is not None

    # ------------------------------------------------------------------
    # Node results
    # ------------------------------------------------------------------
    def _result_path(self, key: str) -> Path:
        return self.root / "nodes" / key / "result.json"

    def node_dir(self, key: str) -> Optional[Path]:
        """The node's scratch directory (checkpoints live here)."""
        if not self.persistent:
            return None
        path = self.root / "nodes" / key
        path.mkdir(parents=True, exist_ok=True)
        return path

    def has(self, key: str) -> bool:
        if not self.persistent:
            return key in self._memory
        return self._result_path(key).is_file()

    def load(self, key: str) -> dict:
        if not self.persistent:
            return self._memory[key]
        with open(self._result_path(key)) as fh:
            return json.load(fh)

    def save(self, key: str, result: dict) -> None:
        if not self.persistent:
            self._memory[key] = result
            return
        path = self._result_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with replaced(path) as fh:
            json.dump(result, fh, indent=2, sort_keys=True)

    def remove(self, key: str) -> None:
        if not self.persistent:
            self._memory.pop(key, None)
            self.artifacts.pop(key, None)
            return
        import shutil
        node_dir = self.root / "nodes" / key
        if node_dir.is_dir():
            shutil.rmtree(node_dir)

    # ------------------------------------------------------------------
    # Spec records (what `exp status` inspects with no flags)
    # ------------------------------------------------------------------
    def record_spec(self, spec: ExperimentSpec) -> Optional[Path]:
        if not self.persistent:
            return None
        specs_dir = self.root / "specs"
        specs_dir.mkdir(parents=True, exist_ok=True)
        path = specs_dir / f"{spec.spec_hash()}.json"
        with replaced(path) as fh:
            json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        return path

    def recorded_specs(self) -> List[ExperimentSpec]:
        """Every spec ever run against this store, newest first."""
        if not self.persistent:
            return []
        specs_dir = self.root / "specs"
        if not specs_dir.is_dir():
            return []
        paths = sorted(specs_dir.glob("*.json"),
                       key=lambda p: p.stat().st_mtime, reverse=True)
        out: List[ExperimentSpec] = []
        for path in paths:
            try:
                out.append(ExperimentSpec.from_file(path))
            except Exception:  # pragma: no cover - hand-edited file
                continue
        return out

    def clear(self) -> int:
        """Delete every node result and spec record; returns node count."""
        if not self.persistent:
            n = len(self._memory)
            self._memory.clear()
            self.artifacts.clear()
            return n
        import shutil
        nodes_dir = self.root / "nodes"
        n = len(list(nodes_dir.iterdir())) if nodes_dir.is_dir() else 0
        for sub in ("nodes", "specs"):
            path = self.root / sub
            if path.is_dir():
                shutil.rmtree(path)
        return n
