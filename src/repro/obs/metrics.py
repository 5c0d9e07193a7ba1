"""Metrics primitives: counters, gauges, and HDR histograms.

The registry is deliberately zero-dependency (stdlib only) so every layer
of the library — including :mod:`repro.tensor`, which must not import
anything heavy — can record into it.  All types are plain accumulators;
aggregation and rendering happen at snapshot time.

Every mutation is guarded by a per-metric lock: ``REPRO_BACKEND_THREADS``
spmm workers and the multi-worker serving front-end may record into the
flat registry concurrently, and a torn ``+=`` would silently undercount.
The locks sit only on the *enabled* path — disabled telemetry never
reaches a metric object, so the < 2% disabled-overhead budget is
untouched.

Naming convention: slash-separated paths, ``"sampler/rejection_rounds"``,
``"manifold/lorentz/dist_clamped"``.  The registry is flat; the paths are
only a convention that keeps snapshots greppable and lets the summarizer
group related series.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.obs.hdr import HdrHistogram


class Counter:
    """A monotonically increasing count (events, clamps, retries)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def summary(self) -> int:
        return self.value


class Gauge:
    """A last-write-wins instantaneous value (norms, weights, sizes)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def summary(self) -> Optional[float]:
        return self.value


class MetricsRegistry:
    """Get-or-create store for the three metric types.

    A name is bound to one type for the registry's lifetime; asking for it
    as another type raises — silent type confusion would corrupt the
    snapshot schema run-manifest consumers rely on.  Get-or-create runs
    under a registry lock so two threads racing to create the same metric
    cannot each keep a private copy.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def hdr(self, name: str, rel_error: float = 0.01,
            min_value: float = 1e-3, max_value: float = 1e7) -> HdrHistogram:
        """Bounded-relative-error latency histogram (see :mod:`repro.obs.hdr`).

        Creation keywords apply on first use only; later calls return the
        existing histogram unchanged.
        """
        if name in self._metrics:
            return self._get(name, HdrHistogram)
        return self._get(name, HdrHistogram, rel_error=rel_error,
                         min_value=min_value, max_value=max_value)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serializable view: ``{kind: {name: summary}}``, sorted."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "hdr": {}}
        with self._lock:
            items = sorted(self._metrics.items())
        for name, metric in items:
            if isinstance(metric, Counter):
                out["counters"][name] = metric.summary()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.summary()
            else:
                out["hdr"][name] = metric.summary()
        return out
