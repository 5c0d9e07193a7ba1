"""Public orchestration API: spec in, :class:`ExperimentResult` out.

``run_experiment`` is the single execution path every entrypoint —
``repro exp run``, the ``compare``/``ablation``/``cases`` CLI commands,
the paper benches, and ``scripts/reproduce_all.sh`` — goes through:

    spec → compile_spec → run_graph → aggregate → ExperimentResult

With a ``workdir`` the run is persistent and resumable: node results are
cached under config-hash keys, a rerun of the same spec skips every
completed node, and a killed run picks up from the training supervisor's
auto-checkpoints.  Without one the run is ephemeral (in-memory store,
inline execution) — the mode ``repro exp run --ephemeral`` and the
paper benches use when nothing should be written to disk.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import obs
from repro.experiments.dag.graph import compile_spec
from repro.experiments.dag.results import (ExperimentResult,
                                           aggregate_section)
from repro.experiments.dag.scheduler import run_graph
from repro.experiments.dag.spec import ExperimentSpec
from repro.experiments.dag.store import ResultStore


def run_experiment(spec: ExperimentSpec, *,
                   workdir: Optional[str] = None,
                   store: Optional[ResultStore] = None,
                   workers: int = 0,
                   fault_plans: Optional[Dict[str, object]] = None,
                   ) -> ExperimentResult:
    """Execute (or resume) the experiment a spec describes.

    Parameters
    ----------
    workdir:
        Cache/resume directory.  ``None`` (and no ``store``) runs fully
        in memory with nothing persisted.
    store:
        Pre-built :class:`ResultStore`; overrides ``workdir``.
    workers:
        Process-pool width; ``<= 1`` executes inline in this process.
        Pool workers re-select ``spec.backend`` after fork/spawn.
    fault_plans:
        ``{node_label: FaultPlan}`` for fault-injection tests (inline
        mode only).
    """
    if store is None:
        store = ResultStore(workdir)
    store.record_spec(spec)
    graph = compile_spec(spec)
    with obs.trace("exp.run", kind=spec.kind, spec=spec.spec_hash(),
                   nodes=len(graph), workers=int(workers)):
        stats = run_graph(graph, store, workers=workers,
                          backend=spec.backend, fault_plans=fault_plans)
        sections = {section: store.load(key)
                    for section, key in graph.sections.items()}
    obs.trace_event("exp.run.finished", spec=spec.spec_hash(),
                    **stats.to_dict())
    return ExperimentResult(
        spec=spec, sections=sections, stats=stats,
        workdir=str(store.root) if store.persistent else None)


def experiment_status(spec: ExperimentSpec,
                      workdir: str) -> Dict[str, object]:
    """Completion report of a spec against a cache directory.

    ``state`` is ``"complete"`` (every node cached), ``"partial"``
    (some), or ``"empty"`` (none) — the ``repro exp status`` exit-code
    contract maps these to 0/1/2.
    """
    store = ResultStore(workdir)
    graph = compile_spec(spec)
    nodes = []
    n_done = 0
    for key in graph.topo_order():
        node = graph.nodes[key]
        done = store.has(key)
        n_done += bool(done)
        nodes.append({"key": key, "kind": node.kind,
                      "label": node.label, "done": bool(done)})
    if n_done == len(nodes):
        state = "complete"
    elif n_done:
        state = "partial"
    else:
        state = "empty"
    return {"spec": spec.to_dict(), "spec_hash": spec.spec_hash(),
            "state": state, "total": len(nodes), "done": n_done,
            "nodes": nodes}


def load_experiment(spec: ExperimentSpec,
                    workdir: str) -> ExperimentResult:
    """Rebuild the :class:`ExperimentResult` of a completed run without
    executing anything (aggregates are recomputed if missing)."""
    store = ResultStore(workdir)
    graph = compile_spec(spec)
    sections = {}
    for section, key in graph.sections.items():
        node = graph.nodes[key]
        if store.has(key):
            sections[section] = store.load(key)
        else:
            payload = node.payload
            dep_results = {e["key"]: store.load(e["key"])
                           for e in payload["entries"]}
            sections[section] = aggregate_section(
                section, payload["entries"], payload["meta"],
                dep_results)
    return ExperimentResult(spec=spec, sections=sections,
                            workdir=str(store.root))


def clean_experiment(workdir: str) -> int:
    """Drop every cached node and spec record; returns node count."""
    return ResultStore(workdir).clear()
