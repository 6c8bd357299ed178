"""Metrics registry: counters, gauges and fixed-bucket histograms.

One registry per run collects everything a benchmark or the CLI wants
to report — rollbacks, cavity sizes, lock-acquire latency, elements per
second — so ad-hoc aggregation dictionaries are no longer scattered
across ``runtime.stats``, ``simnuma`` and each benchmark harness.

Instruments are get-or-create by name, so independent subsystems feed
the same counter without coordinating.  Mutations take the registry's
lock: refinement operations are geometry-bound (milliseconds), so a
microsecond of locking per observation is noise, and it keeps totals
exact under real threads.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]

#: Default latency buckets (seconds): 1us .. 10s, decade + half-decade.
LATENCY_BUCKETS = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)


def log_linear_buckets(lo_exp: int, hi_exp: int) -> tuple:
    """Edges from ``10**lo_exp`` to ``10**hi_exp``, linear inside each
    decade: mantissa 1–2 in steps of 0.1, 2–5 in steps of 0.2, 5–10 in
    steps of 0.5 (35 edges a decade).  No bucket is wider than 10 % of
    its lower edge, so an upper-edge quantile overstates by under 10 %.
    """
    edges = [
        float(f"{m}e{k - 1}")  # parsed, not multiplied: exact decimals
        for k in range(lo_exp, hi_exp)
        for start, stop, step in ((10, 20, 1), (20, 50, 2), (50, 100, 5))
        for m in range(start, stop, step)
    ]
    edges.append(float(f"1e{hi_exp}"))
    return tuple(edges)


#: Request-latency buckets (seconds): 100us .. 100s at ~10 % resolution.
#: A cache hit (~20 ms) and a full mesh (seconds) both need two
#: significant digits; the decade edges above cannot tell 6 ms from
#: 10 ms.
REQUEST_LATENCY_BUCKETS = log_linear_buckets(-4, 2)

#: Default size buckets (counts): cavity sizes, ball sizes, PEL donations.
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "help", "_lock", "value")

    def __init__(self, name: str, help: str = "",
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self.help = help
        self._lock = lock or threading.Lock()
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "help", "_lock", "value")

    def __init__(self, name: str, help: str = "",
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self.help = help
        self._lock = lock or threading.Lock()
        self.value: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-boundary histogram (cumulative-free, per-bucket counts).

    ``buckets`` are the upper edges of the first ``len(buckets)``
    buckets; one overflow bucket catches everything larger.  An
    observation ``v`` lands in the first bucket whose edge satisfies
    ``v <= edge``.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count", "_lock")

    def __init__(self, name: str, buckets: Sequence[Number],
                 help: str = "", lock: Optional[threading.Lock] = None):
        if not buckets:
            raise ValueError("histogram needs at least one bucket edge")
        edges = tuple(float(b) for b in buckets)
        if list(edges) != sorted(set(edges)):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # +1 overflow
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = lock or threading.Lock()

    def observe(self, value: Number) -> None:
        idx = bisect_right(self.buckets, value)
        if idx > 0 and value == self.buckets[idx - 1]:
            idx -= 1  # edge-inclusive: v == edge lands in that bucket
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bucket holding
        the ``q``-th observation (`inf` if it fell in the overflow)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return self.buckets[i] if i < len(self.buckets) else float("inf")
        return float("inf")


class MetricsRegistry:
    """Named instruments, get-or-create, snapshot-able."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create --------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, help)
            return c

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, help)
            return g

    def histogram(self, name: str,
                  buckets: Sequence[Number] = LATENCY_BUCKETS,
                  help: str = "") -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, buckets, help)
            return h

    # -- output ---------------------------------------------------------
    @staticmethod
    def _quantile_json(h: Histogram, q: float) -> Optional[float]:
        """Bucket quantile, JSON-safe: the overflow bucket's ``inf``
        edge becomes ``None`` (``json.dumps`` emits non-standard
        ``Infinity`` otherwise)."""
        v = h.quantile(q)
        return None if v == float("inf") else v

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable copy of every instrument's current state.

        Histogram entries carry derived ``mean``/``p50``/``p95``/``p99``
        alongside the raw buckets, so consumers (``/metricsz``, trend
        reports) never re-implement the quantile walk.
        """
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            histograms = {
                n: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "mean": h.mean,
                    "p50": self._quantile_json(h, 0.50),
                    "p95": self._quantile_json(h, 0.95),
                    "p99": self._quantile_json(h, 0.99),
                }
                for n, h in self._histograms.items()
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def names(self) -> List[str]:
        with self._lock:
            return sorted(
                list(self._counters) + list(self._gauges)
                + list(self._histograms)
            )
