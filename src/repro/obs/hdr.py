"""HDR-style histograms: log-scaled buckets, bounded error, mergeable.

:class:`HdrHistogram` is the one histogram type of :mod:`repro.obs`:
serving latency, batch sizes, training losses and gradient norms all
record into it through :func:`repro.obs.observe`.  Buckets are
geometric.  With relative error bound ``eps``, bucket edges grow by
``base = (1 + eps)/(1 - eps)`` and a value is reported as the arithmetic
midpoint of its bucket, so the worst-case relative error of any
reported quantile value is::

    (hi - lo) / (hi + lo)  =  (base - 1) / (base + 1)  =  eps

Counts are exact (no sampling), so a percentile is the *true* rank's
bucket — only the value inside the bucket is approximated.  Two
histograms with identical bucket geometry merge by adding their count
arrays, making percentiles composable across processes, shards, and
rolling time slices; :meth:`to_dict`/:meth:`from_dict` give the sparse
wire form.

Values below the floor ``min_value`` (default ``1e-3``), zero and
negatives included, share one underflow bucket and are reported as the
exact observed minimum.  NaN observations are counted in ``nan`` and
kept out of the buckets, ``count``, ``total``, ``min`` and ``max``, so
one NaN training loss neither crashes a run nor poisons its statistics.

:class:`WindowedHdrHistogram` layers a rolling time window on top:
``n_slices`` sub-histograms rotate as wall-clock advances, and a
snapshot merges the slices that are still inside the window — recent
latency without unbounded memory or a decay heuristic.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["HdrHistogram", "WindowedHdrHistogram"]


class HdrHistogram:
    """Fixed-geometry log-bucketed histogram with exact counts.

    Parameters
    ----------
    name:
        Metric name (merge requires equal names unless ``check_name``
        is disabled by the caller passing the same name).
    rel_error:
        Worst-case relative error of reported percentile values for
        observations inside ``[min_value, max_value)``.
    min_value, max_value:
        Tracked range.  Observations below ``min_value`` land in one
        underflow bucket (reported as the exact observed minimum);
        observations at or above ``max_value`` land in one overflow
        bucket (reported as the exact observed maximum).  NaN
        observations are only counted, in ``nan``.
    """

    __slots__ = ("name", "rel_error", "min_value", "max_value", "_base",
                 "_log_base", "n_buckets", "counts", "count", "total",
                 "min", "max", "nan", "_lock")

    def __init__(self, name: str, rel_error: float = 0.01,
                 min_value: float = 1e-3, max_value: float = 1e7):
        if not 0.0 < rel_error < 1.0:
            raise ValueError(
                f"rel_error must be in (0, 1), got {rel_error}")
        if min_value <= 0:
            raise ValueError(
                f"min_value must be positive, got {min_value}")
        if max_value <= min_value:
            raise ValueError(
                f"max_value must exceed min_value, got "
                f"[{min_value}, {max_value}]")
        self.name = name
        self.rel_error = float(rel_error)
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self._base = (1.0 + rel_error) / (1.0 - rel_error)
        self._log_base = math.log(self._base)
        # Buckets: [0] underflow, [1..n] geometric, [n+1] overflow.
        self.n_buckets = int(math.ceil(
            math.log(max_value / min_value) / self._log_base))
        self.counts: List[int] = [0] * (self.n_buckets + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.nan = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        if value >= self.max_value:
            return self.n_buckets + 1
        i = int(math.log(value / self.min_value) / self._log_base)
        # Float edges: nudge into the bucket that actually brackets v.
        lo = self.min_value * self._base ** i
        if value < lo:
            i -= 1
        elif value >= lo * self._base:
            i += 1
        return min(max(i, 0), self.n_buckets - 1) + 1

    def _representative(self, bucket: int) -> float:
        if bucket == 0:                       # underflow
            return self.min if self.min < self.min_value else self.min_value
        if bucket == self.n_buckets + 1:      # overflow
            return self.max if self.max >= self.max_value else self.max_value
        lo = self.min_value * self._base ** (bucket - 1)
        return 0.5 * (lo + lo * self._base)

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            with self._lock:
                self.nan += 1
            return
        idx = self._index(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.counts[idx] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` in [0, 100], within ``rel_error``.

        ``q=0`` and ``q=100`` return the exact observed min/max; an
        empty histogram returns NaN.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        with self._lock:
            count = self.count
            counts = list(self.counts)
            lo, hi = self.min, self.max
        if count == 0:
            return math.nan
        if q == 0.0:
            return lo
        if q == 100.0:
            return hi
        rank = max(1, math.ceil(q / 100.0 * count))
        cum = 0
        for bucket, n in enumerate(counts):
            cum += n
            if cum >= rank:
                return min(max(self._representative(bucket), lo), hi)
        return hi  # pragma: no cover - rank <= count by construction

    # ------------------------------------------------------------------
    def merge(self, other: "HdrHistogram") -> "HdrHistogram":
        """Add ``other``'s observations into this histogram (in place).

        Requires identical bucket geometry — merging histograms with
        different error bounds or ranges would silently corrupt
        percentiles, so it raises instead.
        """
        if (self.rel_error != other.rel_error
                or self.min_value != other.min_value
                or self.max_value != other.max_value):
            raise ValueError(
                f"cannot merge {other.name!r} into {self.name!r}: bucket "
                f"geometry differs (rel_error/min_value/max_value "
                f"{other.rel_error}/{other.min_value}/{other.max_value} "
                f"vs {self.rel_error}/{self.min_value}/{self.max_value})")
        with other._lock:
            counts = list(other.counts)
            count, total = other.count, other.total
            omin, omax, onan = other.min, other.max, other.nan
        with self._lock:
            for i, n in enumerate(counts):
                self.counts[i] += n
            self.count += count
            self.total += total
            self.nan += onan
            if omin < self.min:
                self.min = omin
            if omax > self.max:
                self.max = omax
        return self

    def to_dict(self) -> Dict[str, object]:
        """Sparse, JSON-safe wire form for cross-process merging."""
        with self._lock:
            buckets = {str(i): n for i, n in enumerate(self.counts) if n}
            return {
                "name": self.name,
                "rel_error": self.rel_error,
                "min_value": self.min_value,
                "max_value": self.max_value,
                "count": self.count,
                "total": self.total,
                "min": None if self.count == 0 else self.min,
                "max": None if self.count == 0 else self.max,
                "nan": self.nan,
                "buckets": buckets,
            }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HdrHistogram":
        hist = cls(str(data["name"]), rel_error=float(data["rel_error"]),
                   min_value=float(data["min_value"]),
                   max_value=float(data["max_value"]))
        for key, n in dict(data.get("buckets", {})).items():
            hist.counts[int(key)] = int(n)
        hist.count = int(data.get("count", 0))
        hist.total = float(data.get("total", 0.0))
        hist.nan = int(data.get("nan", 0))
        if hist.count:
            hist.min = float(data["min"])
            hist.max = float(data["max"])
        return hist

    def summary(self) -> Dict[str, object]:
        if not self.count:
            return {"count": 0, "nan": self.nan} if self.nan \
                else {"count": 0}
        return {
            "count": self.count,
            "nan": self.nan,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "rel_error": self.rel_error,
        }


class WindowedHdrHistogram:
    """Rolling-window percentiles over rotating :class:`HdrHistogram` slices.

    The window ``[now - window_s, now]`` is covered by ``n_slices``
    equal time slices, each its own histogram.  ``observe`` writes to
    the current slice; :meth:`snapshot` merges the live slices into one
    mergeable histogram, so "p99 over the last minute" costs one pass
    over bucket arrays.  ``clock`` is injectable for deterministic
    tests.
    """

    __slots__ = ("name", "window_s", "n_slices", "_slice_s", "_clock",
                 "_slices", "_kwargs", "_lock")

    def __init__(self, name: str, window_s: float = 60.0,
                 n_slices: int = 6,
                 clock: Callable[[], float] = time.monotonic, **kwargs):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if n_slices <= 0:
            raise ValueError(f"n_slices must be positive, got {n_slices}")
        self.name = name
        self.window_s = float(window_s)
        self.n_slices = int(n_slices)
        self._slice_s = self.window_s / self.n_slices
        self._clock = clock
        self._kwargs = kwargs
        # deque of (slice_index, HdrHistogram), newest last.
        self._slices: "deque[Tuple[int, HdrHistogram]]" = deque()
        self._lock = threading.Lock()

    def _rotate(self) -> HdrHistogram:
        """Drop expired slices; return the current slice's histogram."""
        now_idx = int(self._clock() / self._slice_s)
        oldest_live = now_idx - self.n_slices + 1
        while self._slices and self._slices[0][0] < oldest_live:
            self._slices.popleft()
        if not self._slices or self._slices[-1][0] != now_idx:
            self._slices.append(
                (now_idx, HdrHistogram(self.name, **self._kwargs)))
        return self._slices[-1][1]

    def observe(self, value: float) -> None:
        with self._lock:
            current = self._rotate()
        current.observe(value)

    def snapshot(self) -> HdrHistogram:
        """Merged histogram of every slice still inside the window."""
        with self._lock:
            self._rotate()
            live = [hist for _, hist in self._slices]
        merged = HdrHistogram(self.name, **self._kwargs)
        for hist in live:
            merged.merge(hist)
        return merged

    def summary(self) -> Dict[str, object]:
        out = self.snapshot().summary()
        out["window_s"] = self.window_s
        return out
