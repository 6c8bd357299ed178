"""The per-thread refinement loop (paper Algorithm 1).

Each thread repeatedly pops a poor element from its own PEL, attempts
the operation under per-vertex try-locks, and either commits (updating
PELs and feeding beggars) or rolls back and reports to the contention
manager.  The loop is backend-agnostic: all waiting, locking and time
accounting goes through the :class:`ExecutionContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.domain import OperationResult, RefineDomain
from repro.core.pel import PoorElementList
from repro.delaunay import RollbackSignal
from repro.observability import Observability
from repro.observability.metrics import SIZE_BUCKETS
from repro.runtime.begging import (
    GIVE_THRESHOLD,
    BeggingList,
    make_begging_list,
)
from repro.runtime.contention import (
    ContentionManager,
    GlobalCM,
    LocalCM,
    make_contention_manager,
)
from repro.runtime.context import ExecutionContext
from repro.runtime.placement import Placement
from repro.runtime.shared import SharedState


@dataclass
class WorkerEnv:
    """Everything the worker loop shares across threads."""

    domain: RefineDomain
    pels: List[PoorElementList]
    cm: ContentionManager
    bl: BeggingList
    shared: SharedState
    placement: Placement
    # (result, measured_seconds, ctx) -> charged cost in seconds
    cost_of: Callable[[OperationResult, float, ExecutionContext], float]
    give_threshold: int = GIVE_THRESHOLD
    obs: Optional[Observability] = None

    def wake_blocked(self) -> bool:
        """Escape hatch used by the begging list's last-active thread."""
        cm = self.cm
        if isinstance(cm, GlobalCM):
            return cm.wake_one()
        if isinstance(cm, LocalCM):
            return cm.wake_any()
        return False


def assemble_fleet(domain: RefineDomain, n_threads: int, cm: str, lb: str,
                   placement: Placement, cost_of, obs=None) -> WorkerEnv:
    """What either backend puts under :func:`refinement_worker`: the
    shared state, the named contention manager and begging list
    (``ValueError`` on a name :data:`CM_NAMES` / :data:`LB_NAMES` does
    not hold), one PEL per thread and — after the sequential virtual-box
    step only the main thread has work — generation 0 of the screen on
    thread 0's."""
    shared = SharedState(n_threads, obs=obs)
    manager = make_contention_manager(cm, n_threads, shared)
    begging = make_begging_list(lb, n_threads, shared, placement)
    mesh = domain.tri.mesh
    pels = [PoorElementList(mesh) for _ in range(n_threads)]
    live = mesh.live_tet_ids()
    for t in live[domain.screen(live)].tolist():
        pels[0].push(t)
    return WorkerEnv(domain=domain, pels=pels, cm=manager, bl=begging,
                     shared=shared, placement=placement, cost_of=cost_of,
                     obs=obs)


def refinement_worker(ctx: ExecutionContext, env: WorkerEnv) -> None:
    """Body of one refinement thread (runs to global termination)."""
    my_pel = env.pels[ctx.thread_id]
    domain = env.domain
    mesh = domain.tri.mesh
    tid = ctx.thread_id
    import time as _time

    # Hoisted observability instruments (None when recording is off).
    obs = env.obs
    tracer = None
    ops_counter = rollback_counter = cavity_hist = None
    if obs is not None:
        tracer = obs.tracer
        reg = obs.registry
        ops_counter = reg.counter("refine.operations")
        rollback_counter = reg.counter("runtime.rollbacks")
        cavity_hist = reg.histogram(
            "refine.cavity_size", SIZE_BUCKETS,
            help="new tets created per operation",
        )

    while not env.shared.done:
        t = my_pel.pop()
        if t is None:
            if not env.bl.beg(ctx, env.wake_blocked):
                break
            continue

        t_op0 = ctx.now()
        t_real0 = _time.perf_counter()
        try:
            result = domain.refine_tet(t, touch=ctx.touch_vertex)
        except RollbackSignal as rb:
            elapsed = _time.perf_counter() - t_real0
            ctx.abort_operation(env.cost_of(None, elapsed, ctx))
            ctx.stats.n_rollbacks += 1
            if obs is not None:
                rollback_counter.inc()
                if tracer.enabled:
                    tracer.complete("rollback", t_op0, ctx.now() - t_op0,
                                    tid, owner=rb.owner)
            my_pel.push(t)  # retry the element later
            env.cm.on_rollback(ctx, rb.owner)
            continue

        elapsed = _time.perf_counter() - t_real0
        if result.inserted_vertex is not None:
            # Locality bookkeeping for the NUMA cost model: the inserting
            # thread is the vertex's home.
            domain.vertex_creator[result.inserted_vertex] = ctx.thread_id

        # Every live new element is a candidate; refine_tet judges it
        # when it is popped.  Liveness is read while the operation's
        # locks are still held (commit releases them), so no peer can
        # have recycled a slot yet.
        born = []
        if not result.skipped:
            born = [nt for nt in result.new_tets if mesh.is_live(nt)]

        ctx.stats.n_rollbacks += result.r6_conflicts
        ctx.commit_operation(env.cost_of(result, elapsed, ctx))
        ctx.stats.n_operations += 1
        if result.inserted_vertex is not None:
            ctx.stats.n_insertions += 1
        ctx.stats.n_removals += len(result.removed_vertices)
        env.shared.note_progress()
        if obs is not None:
            ops_counter.inc()
            if result.r6_conflicts:
                rollback_counter.inc(result.r6_conflicts)
            if not result.skipped:
                cavity_hist.observe(len(result.new_tets))
            if tracer.enabled:
                # commit_operation advanced the (virtual or wall) clock,
                # so now() - t_op0 spans the operation's charged window.
                tracer.complete(result.rule, t_op0, ctx.now() - t_op0, tid)
        env.cm.on_success(ctx)

        if not born:
            continue
        if my_pel.live_count >= env.give_threshold:
            beggar = env.bl.pop_beggar(ctx.thread_id)
            if beggar is not None and beggar != ctx.thread_id:
                # Donate the cold half of the own PEL when possible: the
                # freshly created elements sit inside the region whose
                # vertex locks this thread still holds (until the
                # operation's end), so handing those to the beggar makes
                # its first attempt roll back instantly.  Cold entries
                # are spatially distant and lock-free.
                surplus = (my_pel.live_count - env.give_threshold) // 2
                donation = my_pel.take_oldest(max(1, surplus))
                if donation:
                    for nt in born:
                        my_pel.push(nt)
                else:
                    donation = born
                for nt in donation:
                    env.pels[beggar].push(nt)
                pl = env.placement
                if pl.blade_of(beggar) == pl.blade_of(ctx.thread_id):
                    ctx.stats.n_intra_blade_steals += 1
                else:
                    ctx.stats.n_remote_steals += 1
                ctx.stats.n_work_given += 1
                if obs is not None:
                    obs.registry.counter("lb.work_given").inc()
                    obs.registry.histogram(
                        "lb.donation_size", SIZE_BUCKETS,
                        help="elements handed to a beggar",
                    ).observe(len(donation))
                    if tracer.enabled:
                        tracer.instant("lb.give", tid, ctx.now(),
                                       to=beggar, n=len(donation))
                env.bl.wake(beggar)
                continue
        for nt in born:
            my_pel.push(nt)
