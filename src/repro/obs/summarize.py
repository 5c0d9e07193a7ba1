"""Offline run analysis: span tree + metrics tables from a run directory.

``repro obs summarize <run_dir>`` renders:

* the aggregated span tree — sibling spans with the same name collapse
  into one node (``epoch ×300``) with total duration and the share of the
  parent's wall-clock, so a 300-epoch run reads as five lines, not 1500;
* coverage — how much of the run's wall-clock the root spans attribute
  (the acceptance bar for instrumentation completeness is >= 90%);
* the metrics-registry snapshot and final evaluation metrics from
  ``manifest.json``.

Everything here consumes only the serialized artifacts, never live
objects: what you can summarize is exactly what a crashed or remote run
leaves behind.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional

from repro.obs.sink import read_events, read_manifest


class SpanNode:
    """Aggregate of same-named sibling spans in the rendered tree."""

    __slots__ = ("name", "total_s", "n", "children")

    def __init__(self, name: str):
        self.name = name
        self.total_s = 0.0
        self.n = 0
        self.children: List["SpanNode"] = []


def aggregate_spans(events: List[Dict[str, object]]) -> List[SpanNode]:
    """Collapse raw span events into a name-aggregated tree."""
    spans = [e for e in events if e.get("type") == "span"]
    by_parent: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent"), []).append(span)

    def build(group: List[dict]) -> List[SpanNode]:
        nodes: Dict[str, SpanNode] = {}
        order: List[str] = []
        child_spans: Dict[str, List[dict]] = {}
        for span in group:
            name = str(span["name"])
            node = nodes.get(name)
            if node is None:
                node = nodes[name] = SpanNode(name)
                order.append(name)
                child_spans[name] = []
            node.total_s += float(span.get("dur", 0.0))
            node.n += int(span.get("count", 1))
            child_spans[name].extend(by_parent.get(span["id"], ()))
        for name in order:
            if child_spans[name]:
                nodes[name].children = build(child_spans[name])
        return [nodes[name] for name in order]

    return build(by_parent.get(None, []))


def tree_coverage(roots: List[SpanNode], wall_s: Optional[float]) -> float:
    """Fraction of run wall-clock attributed to root spans (0 when unknown)."""
    if not wall_s or wall_s <= 0:
        return 0.0
    return min(1.0, sum(r.total_s for r in roots) / wall_s)


def _render_node(node: SpanNode, parent_s: Optional[float],
                 prefix: str, is_last: bool, lines: List[str]) -> None:
    connector = "" if prefix == "" and is_last is None else (
        "└─ " if is_last else "├─ ")
    label = node.name if node.n == 1 else f"{node.name} ×{node.n}"
    share = ""
    if parent_s and parent_s > 0:
        share = f"{100.0 * node.total_s / parent_s:5.1f}%"
    lines.append(f"{prefix}{connector}{label:<{max(1, 40 - len(prefix))}}"
                 f"{node.total_s * 1e3:12.1f} ms  {share}")
    child_prefix = prefix if is_last is None else (
        prefix + ("   " if is_last else "│  "))
    for i, child in enumerate(node.children):
        _render_node(child, node.total_s, child_prefix,
                     i == len(node.children) - 1, lines)


def render_span_tree(roots: List[SpanNode],
                     wall_s: Optional[float] = None) -> str:
    lines: List[str] = []
    for root in roots:
        _render_node(root, wall_s, "", None, lines)
    if wall_s:
        coverage = tree_coverage(roots, wall_s)
        lines.append(f"coverage: {100.0 * coverage:.1f}% of "
                     f"{wall_s:.3f}s wall-clock attributed to spans")
    return "\n".join(lines)


def _render_metrics(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    lines: List[str] = []
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<44}{value:>14}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in gauges.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            lines.append(f"  {name:<44}{shown:>14}")
    hdr = metrics.get("hdr", {})
    if hdr:
        lines.append("histograms:"
                     f"{'count':>42} {'mean':>12} {'p50':>12}"
                     f" {'p95':>12} {'p99':>12}")
        for name, h in hdr.items():
            nan = f"  nan={h['nan']}" if h.get("nan") else ""
            if not h.get("count"):
                lines.append(f"  {name:<42} {0:>8}{nan}")
                continue
            lines.append(
                f"  {name:<42} {h['count']:>8} {h['mean']:>12.5g} "
                f"{h['p50']:>12.5g} {h['p95']:>12.5g} {h['p99']:>12.5g}"
                f"{nan}")
    return lines


def summarize(run_dir) -> str:
    """Human-readable summary of one run directory."""
    run_dir = pathlib.Path(run_dir)
    manifest = read_manifest(run_dir)
    events = read_events(run_dir)
    roots = aggregate_spans(events)
    wall_s = manifest.get("wall_s") if manifest else None
    lines: List[str] = [f"run: {run_dir}"]
    if manifest:
        lines.append(
            f"run_id={manifest.get('run_id')} "
            f"started={manifest.get('started_at')} "
            f"wall={manifest.get('wall_s', 0.0):.3f}s "
            f"git={manifest.get('git_sha')}")
        if manifest.get("config"):
            pairs = " ".join(f"{k}={v}" for k, v in
                             sorted(manifest["config"].items()))
            lines.append(f"config: {pairs}")
    else:
        lines.append("(no manifest.json — run did not finish cleanly)")
    lines.append("")
    if roots:
        lines.append("span tree:")
        lines.append(render_span_tree(roots, wall_s))
    else:
        lines.append("(no spans recorded)")
    if manifest:
        metric_lines = _render_metrics(manifest.get("metrics", {}))
        if metric_lines:
            lines.append("")
            lines.extend(metric_lines)
        final = manifest.get("final_metrics") or {}
        if final:
            lines.append("")
            lines.append("final metrics:")
            for name in sorted(final):
                value = final[name]
                shown = f"{value:.4f}" if isinstance(value, float) else value
                lines.append(f"  {name:<30}{shown:>12}")
    return "\n".join(lines)


def _node_to_dict(node: SpanNode) -> Dict[str, object]:
    out: Dict[str, object] = {"name": node.name,
                              "total_s": round(node.total_s, 6),
                              "n": node.n}
    if node.children:
        out["children"] = [_node_to_dict(child) for child in node.children]
    return out


def summarize_json(run_dir) -> Dict[str, object]:
    """Machine-readable summary of one run directory.

    The same artifacts :func:`summarize` renders, as one JSON-safe dict:
    manifest (verbatim), the aggregated span tree, span coverage, and
    the event count — what CI and the SLO gate consume without scraping
    the text rendering.
    """
    run_dir = pathlib.Path(run_dir)
    manifest = read_manifest(run_dir)
    events = read_events(run_dir)
    roots = aggregate_spans(events)
    wall_s = manifest.get("wall_s") if manifest else None
    return {
        "run_dir": str(run_dir),
        "run_id": (manifest or {}).get("run_id"),
        "finished": manifest is not None,
        "n_events": len(events),
        "coverage": round(tree_coverage(roots, wall_s), 6),
        "spans": [_node_to_dict(root) for root in roots],
        "manifest": manifest,
    }


def list_runs(base_dir) -> List[str]:
    """Formatted one-line descriptions of every run under ``base_dir``."""
    base = pathlib.Path(base_dir)
    if not base.exists():
        return []
    lines = []
    for run_dir in sorted(p for p in base.iterdir() if p.is_dir()):
        manifest = read_manifest(run_dir)
        if manifest is None:
            lines.append(f"{run_dir.name:<28} (unfinished)")
            continue
        config = manifest.get("config", {})
        what = " ".join(str(config[k]) for k in ("command", "model",
                                                 "dataset") if k in config)
        lines.append(f"{run_dir.name:<28} wall={manifest.get('wall_s', 0):8.2f}s"
                     f"  events={manifest.get('n_events', 0):<6} {what}")
    return lines
