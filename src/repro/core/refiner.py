"""Sequential Delaunay refinement for smooth surfaces (Section 3).

This is the single-threaded reference implementation of the paper's
refinement loop, walked a generation at a time.  A FIFO Poor Element
List is already a schedule of rounds — a tet born while generation *g*
is processed is popped in generation *g+1* — so the refiner keeps the
generations explicit: the live tets of one generation go through
:meth:`RefineDomain.screen` in one vectorised pass, the ones it rules
out are done (``rule="none"``, no Python per tet), and the scalar
:meth:`RefineDomain.refine_tet` — the only code that applies a rule —
judges the rest in their FIFO order, skipping those an earlier
operation of the same generation killed.  The tets those operations
create are the next generation — the ids born, each once, at its last
birth, if the slot is still live — and the run ends when a generation
is empty, which is when no rule applies anywhere.

``n_operations`` counts tets judged: every tet the screen ruled out
plus every ``refine_tet`` call.

With an :class:`~repro.observability.Observability` bundle attached the
refiner feeds the run's metrics registry (operation / rule counters,
cavity-size histogram, per-call latency histogram) and, when tracing is
enabled, emits one ``screen`` span per generation and one complete-span
event per ``refine_tet`` call — the same event stream the parallel and
simulated refiners produce, so one Chrome-trace viewer serves every
backend.  Without a bundle the per-operation cost is a single ``None``
check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.domain import RefineDomain
from repro.observability import Observability
from repro.observability.metrics import SIZE_BUCKETS


@dataclass
class RefineStats:
    """Operation counts and timings for a refinement run."""

    n_operations: int = 0
    n_insertions: int = 0
    n_removals: int = 0
    n_skipped: int = 0
    rule_counts: Dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0
    final_tets: int = 0
    final_vertices: int = 0

    @property
    def tets_per_second(self) -> float:
        return self.final_tets / self.wall_time if self.wall_time > 0 else 0.0


def next_generation(mesh, born) -> np.ndarray:
    """The live tets among ``born`` — ids in birth order, a recycled
    slot once per birth — each once, where it was last born.

    A live slot's current incarnation is its last birth, so this is the
    set a ``(tet, epoch)`` list would validate, in the same order,
    without an epoch read per tet.
    """
    ids = np.asarray(born, dtype=np.int64)
    if ids.size == 0:
        return ids
    # np.unique keeps first occurrences: run it on the reversed births.
    _, first = np.unique(ids[::-1], return_index=True)
    ids = ids[np.sort(ids.size - 1 - first)]
    return ids[mesh.tet_verts_arr[ids, 0] >= 0]


class SequentialRefiner:
    """Single-threaded PI2M refinement driver."""

    def __init__(self, domain: RefineDomain,
                 max_operations: Optional[int] = None,
                 obs: Optional[Observability] = None,
                 seed_filter=None):
        self.domain = domain
        self.max_operations = max_operations
        self.stats = RefineStats()
        self.obs = obs
        #: ``seed_filter(live_tet_ids) -> bool mask``: restricts
        #: generation 0 to a region of interest (the seam-local stitch).
        #: Tets created *during* refinement always join the next
        #: generation — rule side effects stay local to the seeds'
        #: cavities, so the restriction is only about not re-judging
        #: already-refined bulk.
        self.seed_filter = seed_filter
        # Predicate-filter counters are process-wide; snapshot so the
        # published kernel stats cover exactly this run.
        self._predicates_before: Dict[str, int] = {}

    def refine(self) -> RefineStats:
        """Run refinement to completion; returns the statistics."""
        domain = self.domain
        obs = self.obs
        from repro.geometry.predicates import STATS
        self._predicates_before = STATS.snapshot()
        t_start = time.perf_counter()

        # Hoist the instruments out of the loop: the hot path pays one
        # method call per counter, never a registry lookup.
        tracer = None
        ops_counter = none_counter = gen_counter = None
        rules_counters = cavity_hist = op_hist = None
        if obs is not None:
            tracer = obs.tracer
            reg = obs.registry
            ops_counter = reg.counter("refine.operations")
            gen_counter = reg.counter("refine.generations")
            none_counter = reg.counter("refine.screened_none")
            cavity_hist = reg.histogram(
                "refine.cavity_size", SIZE_BUCKETS,
                help="new tets created per operation",
            )
            op_hist = reg.histogram(
                "refine.op_seconds", help="wall time per refine_tet call",
            )
            rules_counters = {"none": reg.counter("refine.rule.none")}
            if tracer.enabled:
                tracer.begin("refine", 0, 0.0)

        mesh_store = domain.tri.mesh
        # Generation 0: the mesh that exists before the loop starts.
        tets = mesh_store.live_tet_ids()
        if self.seed_filter is not None and tets.size:
            tets = tets[np.asarray(self.seed_filter(tets), dtype=bool)]
        while tets.size:
            t_gen0 = time.perf_counter()
            maybe = tets[domain.screen(tets)].tolist()
            n_none = len(tets) - len(maybe)
            if n_none:
                self._record("none", n_none)
            if obs is not None:
                gen_counter.inc()
                ops_counter.inc(n_none)
                none_counter.inc(n_none)
                rules_counters["none"].inc(n_none)
                if tracer.enabled:
                    tracer.complete(
                        "screen", t_gen0 - t_start,
                        time.perf_counter() - t_gen0, 0,
                        n=len(tets), n_maybe=len(maybe),
                    )

            born = []
            epoch = mesh_store.tet_epoch
            for t, t_epoch in zip(maybe, [epoch[t] for t in maybe]):
                if not mesh_store.is_live(t) or epoch[t] != t_epoch:
                    continue        # killed earlier in this generation
                t_op0 = time.perf_counter()
                result = domain.refine_tet(t)
                self._record(result.rule)
                if obs is not None:
                    dt_op = time.perf_counter() - t_op0
                    ops_counter.inc()
                    op_hist.observe(dt_op)
                    if not result.skipped:
                        cavity_hist.observe(len(result.new_tets))
                    rc = rules_counters.get(result.rule)
                    if rc is None:
                        rc = rules_counters[result.rule] = reg.counter(
                            f"refine.rule.{result.rule}"
                        )
                    rc.inc()
                    if tracer.enabled:
                        tracer.complete(
                            result.rule, t_op0 - t_start, dt_op, 0
                        )
                if not result.skipped:
                    born.extend(result.new_tets)
            tets = next_generation(mesh_store, born)

        self.stats.wall_time = time.perf_counter() - t_start
        self.stats.final_tets = domain.tri.n_tets
        self.stats.final_vertices = domain.tri.n_vertices
        self.stats.n_insertions = domain.n_insertions
        self.stats.n_removals = domain.n_removals
        self.stats.n_skipped = domain.n_skipped
        if obs is not None:
            if tracer.enabled:
                tracer.end("refine", 0, self.stats.wall_time)
            self._publish(obs)
        return self.stats

    def _publish(self, obs: Observability) -> None:
        reg = obs.registry
        s = self.stats
        reg.gauge("run.elements").set(s.final_tets)
        reg.gauge("run.vertices").set(s.final_vertices)
        reg.gauge("run.wall_seconds").set(s.wall_time)
        reg.gauge("run.elements_per_second").set(s.tets_per_second)
        reg.counter("refine.insertions").inc(s.n_insertions)
        reg.counter("refine.removals").inc(s.n_removals)
        reg.counter("refine.skipped").inc(s.n_skipped)
        from repro.geometry.predicates import STATS
        from repro.runtime.stats import publish_kernel_stats

        publish_kernel_stats(
            reg, self.domain.tri.counters,
            STATS.delta_since(self._predicates_before),
        )

    def _record(self, rule: str, n: int = 1) -> None:
        """Count ``n`` judged tets under ``rule``, against the budget."""
        s = self.stats
        s.n_operations += n
        s.rule_counts[rule] = s.rule_counts.get(rule, 0) + n
        if (self.max_operations is not None
                and s.n_operations > self.max_operations):
            raise RuntimeError(
                f"refinement exceeded {self.max_operations} operations"
            )
