"""Threading-based execution context and driver.

Vertex try-locks use ``dict.setdefault``, which is atomic under the GIL
— the cheap atomic primitive playing the role of the paper's GCC atomic
built-ins (Section 4.2 reports those beat pthread try-locks by ~4%).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.domain import RefineDomain
from repro.core.extract import ExtractedMesh, extract_mesh
from repro.core.sizing import SizeSpec
from repro.imaging.image import SegmentedImage
from repro.runtime.context import ExecutionContext
from repro.runtime.placement import Placement, flat_placement
from repro.runtime.shared import SharedState
from repro.runtime.stats import OverheadKind, ThreadStats, aggregate
from repro.runtime.worker import assemble_fleet, refinement_worker

_SPIN_SLEEP = 20e-6  # polite spin granularity


class RealContext(ExecutionContext):
    """Execution context backed by a real OS thread."""

    def __init__(self, thread_id: int, lock_table: Dict[int, int],
                 shared: SharedState, seed: int = 0, obs=None):
        self.thread_id = thread_id
        self.stats = ThreadStats(thread_id=thread_id, obs=obs)
        self._locks = lock_table
        self._shared = shared
        self._t0 = time.perf_counter()
        self.op_locks: List[int] = []
        import random as _random

        self._rng = _random.Random((seed << 8) ^ thread_id)

    # -- locks ----------------------------------------------------------
    def try_lock_vertex(self, vid: int) -> int:
        owner = self._locks.setdefault(vid, self.thread_id)  # GIL-atomic
        if owner == self.thread_id:
            self.op_locks.append(vid)
            return -1
        return owner

    def _release_op_locks(self) -> None:
        locks = self._locks
        for vid in self.op_locks:
            if locks.get(vid) == self.thread_id:
                try:
                    del locks[vid]
                except KeyError:
                    pass
        self.op_locks.clear()

    def commit_operation(self, cost: float) -> None:
        self.stats.busy_time += cost
        self._release_op_locks()

    def abort_operation(self, wasted_cost: float) -> None:
        self.stats.add_overhead(OverheadKind.ROLLBACK, wasted_cost, self.now())
        self._release_op_locks()

    # -- time / waiting ---------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self._t0

    def wait_until(self, predicate: Callable[[], bool],
                   kind: OverheadKind) -> None:
        start = time.perf_counter()
        while not predicate():
            if self._shared.done:
                break
            time.sleep(_SPIN_SLEEP)
        self.stats.add_overhead(
            kind, time.perf_counter() - start, self.now()
        )

    def sleep(self, seconds: float, kind: OverheadKind) -> None:
        time.sleep(seconds)
        self.stats.add_overhead(kind, seconds, self.now())

    def charge(self, seconds: float) -> None:
        self.stats.busy_time += seconds

    def make_mutex(self):
        return threading.Lock()

    def random(self) -> float:
        return self._rng.random()


@dataclass
class ParallelResult:
    """Outcome of a real-thread parallel meshing run."""

    mesh: ExtractedMesh
    domain: RefineDomain
    n_threads: int
    wall_time: float
    thread_stats: List[ThreadStats]
    totals: Dict[str, float] = field(default_factory=dict)

    @property
    def n_rollbacks(self) -> int:
        return int(self.totals.get("rollbacks", 0))


def _parallel_mesh_image(
    image: SegmentedImage,
    n_threads: int = 4,
    delta: Optional[float] = None,
    size_function: Optional[SizeSpec] = None,
    cm: str = "local",
    lb: str = "hws",
    placement: Optional[Placement] = None,
    seed: int = 0,
    timeout: Optional[float] = None,
    obs=None,
) -> ParallelResult:
    """Implementation behind :func:`parallel_mesh_image` / ``repro.api``.

    ``timeout`` (seconds) guards against protocol bugs in CI; expiry
    raises ``TimeoutError``.  ``obs`` is an optional
    :class:`repro.observability.Observability` bundle shared by every
    worker thread (the tracer's ring buffer takes GIL-atomic appends).
    """
    domain = RefineDomain(image, delta=delta, size_function=size_function)
    if placement is None:
        placement = flat_placement(n_threads)
    # The real backend charges measured wall time.
    env = assemble_fleet(domain, n_threads, cm, lb, placement,
                         cost_of=lambda result, elapsed, ctx: elapsed,
                         obs=obs)
    shared = env.shared
    mesh = domain.tri.mesh

    lock_table: Dict[int, int] = {}
    contexts = [
        RealContext(tid, lock_table, shared, seed=seed, obs=obs)
        for tid in range(n_threads)
    ]

    errors: List[BaseException] = []

    def guarded_worker(ctx):
        try:
            refinement_worker(ctx, env)
        except BaseException as exc:  # noqa: BLE001 - re-raised by driver
            errors.append(exc)
            shared.done = True  # a dead worker must not hang the fleet

    threads = [
        threading.Thread(
            target=guarded_worker, args=(contexts[tid],), daemon=True
        )
        for tid in range(n_threads)
    ]
    from repro.geometry.predicates import STATS

    predicates_before = STATS.snapshot()
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    deadline = None if timeout is None else t0 + timeout
    for th in threads:
        remaining = (None if deadline is None
                     else max(0.0, deadline - time.perf_counter()))
        th.join(remaining)
        if th.is_alive():
            shared.done = True
            for th2 in threads:
                th2.join(5.0)
            raise TimeoutError(
                f"parallel refinement exceeded {timeout}s "
                f"({mesh.n_live_tets} tets so far)"
            )
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError(
            f"a refinement thread crashed: {errors[0]!r}"
        ) from errors[0]

    stats = [c.stats for c in contexts]
    extracted = extract_mesh(domain)
    registry = obs.registry if obs is not None else None
    totals = aggregate(stats, registry=registry)
    if registry is not None:
        registry.gauge("run.threads").set(n_threads)
        registry.gauge("run.elements").set(extracted.n_tets)
        registry.gauge("run.vertices").set(extracted.n_vertices)
        registry.gauge("run.wall_seconds").set(wall)
        registry.gauge("run.elements_per_second").set(
            extracted.n_tets / wall if wall > 0 else 0.0
        )
        from repro.runtime.stats import publish_kernel_stats

        publish_kernel_stats(
            registry, domain.tri.counters,
            STATS.delta_since(predicates_before),
        )
    return ParallelResult(
        mesh=extracted,
        domain=domain,
        n_threads=n_threads,
        wall_time=wall,
        thread_stats=stats,
        totals=totals,
    )
