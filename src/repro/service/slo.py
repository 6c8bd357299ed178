"""Cache-tier SLO accounting: hit rates and latency percentiles.

Every request the service concludes successfully is attributed to the
**tier** that served it:

============== ======================================================
``memory_hit``   the mesh came straight from the in-memory LRU
``disk_hit``     the mesh was loaded from the disk artifact store
``coalesced``    the result was fanned out from an in-flight leader
                 (:mod:`repro.service.coalesce`) — no cache read at all
``block_hit``    a sharded mesher ran, but at least one block loaded
                 from the content-addressed block cache (incremental
                 meshing — part of the work was skipped)
``full_mesh``    a mesher actually ran
============== ======================================================

For each tier the tracker keeps a latency histogram (end-to-end:
submit → terminal, queue wait included — that is what a caller
experiences) and a request counter in the service's metrics registry,
under ``service.slo.<tier>.latency_seconds`` /
``service.slo.<tier>.requests``.  :meth:`SLOTracker.snapshot` distils
them into the report ``/metricsz`` publishes: per-tier share, p50 /
p95 / p99 / mean, and the overall **hit rate** — the fraction of
requests that never ran a mesher (memory + disk + coalesced), the
number the "millions of users, mostly repeat traffic" pitch stands on.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observability.metrics import (
    MetricsRegistry,
    REQUEST_LATENCY_BUCKETS,
)

#: The tiers, cheapest first.  Order matters only for reporting.
TIERS = ("memory_hit", "disk_hit", "coalesced", "block_hit", "full_mesh")

#: Tiers that did not run a mesher (the numerator of the hit rate).
HIT_TIERS = frozenset({"memory_hit", "disk_hit", "coalesced"})


class SLOTracker:
    """Per-tier latency/hit bookkeeping over a metrics registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        # Materialise every tier up front so /metricsz always shows the
        # full table (zero rows included), not just tiers already hit.
        self._latency = {
            tier: registry.histogram(
                f"service.slo.{tier}.latency_seconds",
                REQUEST_LATENCY_BUCKETS,
            )
            for tier in TIERS
        }
        self._requests = {
            tier: registry.counter(f"service.slo.{tier}.requests")
            for tier in TIERS
        }

    def observe(self, tier: Optional[str], seconds: float) -> None:
        """Record one concluded request; unknown/absent tiers are
        counted as ``full_mesh`` (the conservative attribution)."""
        if tier not in self._latency:
            tier = "full_mesh"
        self._requests[tier].inc()
        self._latency[tier].observe(seconds)

    # -- reporting -----------------------------------------------------
    @staticmethod
    def _q(h, q: float) -> Optional[float]:
        """Bucket quantile, JSON-safe (overflow ``inf`` → ``None``)."""
        v = h.quantile(q)
        return None if v == float("inf") else v

    def snapshot(self) -> Dict[str, object]:
        """The ``/metricsz`` SLO section (JSON-safe)."""
        tiers: Dict[str, Dict[str, float]] = {}
        total = 0
        hits = 0
        for tier in TIERS:
            h = self._latency[tier]
            n = h.count
            total += n
            if tier in HIT_TIERS:
                hits += n
            tiers[tier] = {
                "requests": n,
                "mean_seconds": h.mean,
                "p50_seconds": self._q(h, 0.50) if n else 0.0,
                "p95_seconds": self._q(h, 0.95) if n else 0.0,
                "p99_seconds": self._q(h, 0.99) if n else 0.0,
            }
        for tier in TIERS:
            tiers[tier]["share"] = (
                tiers[tier]["requests"] / total if total else 0.0
            )
        return {
            "requests": total,
            "hit_rate": hits / total if total else 0.0,
            "tiers": tiers,
        }
