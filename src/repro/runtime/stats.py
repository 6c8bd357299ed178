"""Per-thread statistics: the paper's three overhead categories.

Section 5.5 defines the wasted-cycle taxonomy every experiment reports:

* *contention overhead* — time spent busy-waiting on a Contention List
  (or random-sleeping, for Random-CM) plus accessing it;
* *load balance overhead* — time spent idling on the Begging List
  waiting for work plus accessing it;
* *rollback overhead* — time spent on partial work that had to be
  discarded when an operation rolled back.

When an :class:`~repro.observability.Observability` bundle is attached
(``stats.obs``), every overhead charge also feeds the run's metrics
registry (per-kind overhead counters, a contention-wait latency
histogram) and, if tracing is on, emits a timestamped instant event —
so both execution backends produce the Figure 6 overhead timeline as a
side effect of normal accounting instead of each benchmark re-deriving
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.observability import MetricsRegistry, Observability


class OverheadKind(Enum):
    CONTENTION = "contention"
    LOAD_BALANCE = "load_balance"
    ROLLBACK = "rollback"


@dataclass
class ThreadStats:
    """Counters one thread accumulates during refinement."""

    thread_id: int
    n_operations: int = 0
    n_rollbacks: int = 0
    n_insertions: int = 0
    n_removals: int = 0
    n_work_received: int = 0
    n_work_given: int = 0
    n_remote_steals: int = 0       # work received from another blade
    n_intra_blade_steals: int = 0  # work received within own blade
    overhead: Dict[OverheadKind, float] = field(
        default_factory=lambda: {k: 0.0 for k in OverheadKind}
    )
    busy_time: float = 0.0
    # (virtual time, cumulative total overhead) samples for Figure 6
    overhead_timeline: List[Tuple[float, float]] = field(default_factory=list)
    # Observability sink (not part of the value: excluded from ==/repr)
    obs: Optional["Observability"] = field(
        default=None, repr=False, compare=False
    )

    def add_overhead(self, kind: OverheadKind, dt: float, now: float = None
                     ) -> None:
        self.overhead[kind] += dt
        if now is not None:
            self.overhead_timeline.append((now, self.total_overhead))
        obs = self.obs
        if obs is not None:
            obs.registry.counter(
                f"runtime.overhead.{kind.value}_seconds"
            ).inc(dt)
            if kind is OverheadKind.CONTENTION:
                obs.registry.histogram(
                    "runtime.lock_wait_seconds",
                    help="time blocked per contention wait",
                ).observe(dt)
            tracer = obs.tracer
            if tracer.enabled and now is not None:
                tracer.instant(
                    f"overhead.{kind.value}", self.thread_id, now, dt=dt
                )

    @property
    def total_overhead(self) -> float:
        return sum(self.overhead.values())


def aggregate(stats: List[ThreadStats],
              registry: Optional["MetricsRegistry"] = None
              ) -> Dict[str, float]:
    """Fleet-wide totals, in the shape Table 1 reports.

    With a ``registry``, the totals are also published as ``run.<key>``
    gauges (idempotent: last write wins), which is how drivers hand the
    classic Table 1 numbers to the metrics exporters.
    """
    totals = _totals(stats)
    if registry is not None:
        for key, value in totals.items():
            registry.gauge(f"run.{key}").set(value)
    return totals


def publish_kernel_stats(registry: "MetricsRegistry", counters,
                         predicate_delta: Dict[str, int]) -> None:
    """Publish the Delaunay kernel's hot-path statistics as metrics.

    ``counters`` is a :class:`repro.delaunay.triangulation.KernelCounters`
    and ``predicate_delta`` a per-run delta of
    :data:`repro.geometry.predicates.STATS` (the process-wide filter
    counters), e.g. ``STATS.delta_since(before)``.  Everything lands
    under ``kernel.*`` so ``--metrics-out`` JSON captures the filter hit
    rate, the exact-fallback fraction, mean walk length and mean cavity
    size alongside the run-level gauges — and, beside
    ``kernel.accel_retries``, why the C kernels handed work back
    (``kernel.accel_retry.<reason>``).
    """
    for name, value in counters.snapshot().items():
        registry.gauge(f"kernel.{name}").set(value)
    registry.gauge("kernel.mean_walk_length").set(counters.mean_walk_length)
    registry.gauge("kernel.mean_cavity_size").set(
        counters.cavity_tets / counters.cavity_calls
        if counters.cavity_calls else 0.0
    )
    registry.gauge("kernel.mean_commit_seconds").set(
        counters.mean_commit_seconds
    )
    registry.gauge("kernel.mean_commit_wait_seconds").set(
        counters.mean_commit_wait_seconds
    )
    for name, value in predicate_delta.items():
        registry.gauge(f"kernel.predicates.{name}").set(value)
    decisions = (predicate_delta.get("orient3d_calls", 0)
                 + predicate_delta.get("insphere_calls", 0)
                 + predicate_delta.get("cc_tests", 0)
                 + predicate_delta.get("batch_items", 0))
    exact = (predicate_delta.get("orient3d_exact", 0)
             + predicate_delta.get("insphere_exact", 0)
             + predicate_delta.get("batch_exact", 0))
    registry.gauge("kernel.predicates.exact_fraction").set(
        exact / decisions if decisions else 0.0
    )


def kernel_report(counters, predicate_delta: Dict[str, int]) -> str:
    """ASCII summary of the kernel statistics (mesh --kernel-stats)."""
    pd = predicate_delta
    o_calls = pd.get("orient3d_calls", 0)
    i_calls = pd.get("insphere_calls", 0)
    cc = pd.get("cc_tests", 0)
    batch = pd.get("batch_items", 0)
    decisions = o_calls + i_calls + cc + batch
    exact = (pd.get("orient3d_exact", 0) + pd.get("insphere_exact", 0)
             + pd.get("batch_exact", 0))
    fast = decisions - exact - pd.get("cc_fallback", 0)
    mean_cavity = (counters.cavity_tets / counters.cavity_calls
                   if counters.cavity_calls else 0.0)
    lines = [
        "kernel hot-path statistics",
        "--------------------------",
        f"locate calls            {counters.locate_calls:>10}",
        f"  mean walk length      {counters.mean_walk_length:>10.2f}",
        f"  seed: grid/hint/scan  {counters.seed_grid_hits:>6}"
        f"/{counters.seed_hint_hits}/{counters.seed_scans}",
        f"cavity searches         {counters.cavity_calls:>10}",
        f"  mean cavity size      {mean_cavity:>10.2f}",
        f"accelerated inserts     {counters.accel_inserts:>10}"
        f"  (retries {counters.accel_retries})",
        f"  batched               {counters.accel_batch_inserts:>10}"
        f"  ({counters.accel_batch_calls} crossings)",
        f"accelerated removals    {counters.accel_removals:>10}"
        f"  (retries {counters.accel_remove_retries})",
        "  retried because       " + (", ".join(
            f"{reason} {n}"
            for reason, n in counters.accel_retry_reasons.items() if n
        ) or "-"),
        f"locked commits          {counters.commits:>10}"
        f"  (work {counters.mean_commit_seconds * 1e6:.1f} us"
        f", wait {counters.mean_commit_wait_seconds * 1e6:.1f} us)",
        f"predicate decisions     {decisions:>10}",
        f"  orient3d/insphere     {o_calls:>6}/{i_calls}"
        f"  cc-entry {cc}  batch {batch}",
        f"  filter hit rate       {fast / decisions:>10.4f}"
        if decisions else "  filter hit rate              n/a",
        f"  exact fallbacks       {exact:>10}"
        f"  ({exact / decisions:.5f} of decisions)"
        if decisions else f"  exact fallbacks       {exact:>10}",
    ]
    return "\n".join(lines)


def _totals(stats: List[ThreadStats]) -> Dict[str, float]:
    return {
        "operations": sum(s.n_operations for s in stats),
        "rollbacks": sum(s.n_rollbacks for s in stats),
        "insertions": sum(s.n_insertions for s in stats),
        "removals": sum(s.n_removals for s in stats),
        "contention_overhead": sum(
            s.overhead[OverheadKind.CONTENTION] for s in stats
        ),
        "load_balance_overhead": sum(
            s.overhead[OverheadKind.LOAD_BALANCE] for s in stats
        ),
        "rollback_overhead": sum(
            s.overhead[OverheadKind.ROLLBACK] for s in stats
        ),
        "total_overhead": sum(s.total_overhead for s in stats),
        "remote_steals": sum(s.n_remote_steals for s in stats),
        "intra_blade_steals": sum(s.n_intra_blade_steals for s in stats),
    }
