"""Parallel refinement under the simulated cc-NUMA machine.

:func:`_simulate_parallel_refinement` is the single entry point the
scaling and contention-manager benchmarks use (fronted publicly by
``repro.api.mesh`` with a ``simulated`` mesher).  It assembles the real
production components — :class:`RefineDomain`, PELs, a contention
manager, a begging list and the shared worker loop — and runs them on
the discrete-event engine with the Blacklight cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.domain import OperationResult, RefineDomain
from repro.core.sizing import SizeFunction
from repro.imaging.image import SegmentedImage
from repro.runtime.stats import ThreadStats, aggregate
from repro.runtime.worker import assemble_fleet, refinement_worker
from repro.simnuma.costmodel import BLACKLIGHT, MachineSpec, NumaCostModel
from repro.simnuma.engine import SimEngine, SimLivelock


@dataclass
class SimulationResult:
    """Everything a scaling table row needs."""

    n_threads: int
    cm_name: str
    lb_name: str
    hyperthreading: bool
    virtual_time: float
    n_elements: int
    n_vertices: int
    thread_stats: List[ThreadStats]
    livelock: bool = False
    totals: Dict[str, float] = field(default_factory=dict)

    @property
    def elements_per_second(self) -> float:
        return self.n_elements / self.virtual_time if self.virtual_time else 0.0

    @property
    def rollbacks(self) -> int:
        return int(self.totals.get("rollbacks", 0))

    @property
    def overhead_per_thread(self) -> float:
        return self.totals.get("total_overhead", 0.0) / max(1, self.n_threads)


def _simulate_parallel_refinement(
    image: SegmentedImage,
    n_threads: int,
    delta: Optional[float] = None,
    size_function: Optional[SizeFunction] = None,
    cm: str = "local",
    lb: str = "hws",
    machine: MachineSpec = BLACKLIGHT,
    cost_model: Optional[NumaCostModel] = None,
    hyperthreading: bool = False,
    seed: int = 0,
    livelock_horizon: float = 5.0,
    livelock_event_horizon: int = 150_000,
    give_threshold: Optional[int] = None,
    domain: Optional[RefineDomain] = None,
    obs=None,
) -> SimulationResult:
    """Simulated cc-NUMA refinement behind ``repro.api.mesh``.

    Returns a :class:`SimulationResult`; on a livelock (possible for the
    aggressive / random contention managers, exactly as in Table 1) the
    result has ``livelock=True`` and carries the statistics accumulated
    up to the watchdog abort.  ``obs`` is an optional
    :class:`repro.observability.Observability` bundle; trace events then
    carry *virtual* timestamps, so the exported Chrome trace shows the
    simulated machine's timeline.
    """
    if domain is None:
        domain = RefineDomain(image, delta=delta, size_function=size_function)
    model = cost_model if cost_model is not None else NumaCostModel(machine=machine)
    placement = machine.placement(n_threads, hyperthreading)
    mesh = domain.tri.mesh

    creators = domain.vertex_creator
    service_rate = model.switch_service_rate
    softcap = model.congestion_softcap

    # Per-core LRU vertex caches: only the *first* touch of a remote
    # vertex pays the NUMA latency; re-touches of a thread's working set
    # are cache hits, as on real hardware.  Hyper-threads share their
    # core's cache — the same sharing that improves Table 5's modeled
    # LLC behaviour.
    from collections import OrderedDict

    n_cores = max(1, n_threads // placement.threads_per_core)
    caches = [OrderedDict() for _ in range(n_cores)]
    cache_capacity = model.vertex_cache_capacity

    def cost_of(result: Optional[OperationResult], elapsed: float, ctx) -> float:
        comm_cycles = 0.0
        n_remote = 0
        congestion = engine.congestion_multiplier(softcap)
        tid = ctx.thread_id
        my_blade = placement.blade_of(tid)
        cache = caches[placement.core_of(tid) % n_cores]
        for vid in ctx.op_locks:
            if vid in cache:
                cache.move_to_end(vid)
                continue
            creator = creators.get(vid, 0)
            comm_cycles += model.touch_cost_cycles(
                tid, creator, placement, congestion
            )
            if placement.blade_of(creator) != my_blade:
                n_remote += 1
            cache[vid] = None
            if len(cache) > cache_capacity:
                cache.popitem(last=False)
        if n_remote:
            engine.note_remote_touches(n_remote, service_rate)
        cycles = model.compute_cycles(result, hyperthreading) + comm_cycles
        return model.seconds(cycles)

    env = assemble_fleet(domain, n_threads, cm, lb, placement,
                         cost_of=cost_of, obs=obs)
    if give_threshold is not None:
        env.give_threshold = give_threshold
    shared = env.shared
    # ``cost_of`` reads the engine's congestion state; it is first
    # called from a worker, after this line.
    engine = SimEngine(
        n_threads,
        seed=seed,
        progress_fn=lambda: shared.successful_ops,
        livelock_horizon=livelock_horizon,
        livelock_event_horizon=livelock_event_horizon,
        stop_fn=lambda: setattr(shared, "done", True),
        obs=obs,
    )

    engine.spawn(refinement_worker, env)
    livelock = False
    try:
        total_time = engine.run()
    except SimLivelock:
        livelock = True
        total_time = engine.clock

    stats = [ctx.stats for ctx in engine.contexts]
    registry = obs.registry if obs is not None else None
    totals = aggregate(stats, registry=registry)
    if registry is not None:
        registry.gauge("run.threads").set(n_threads)
        registry.gauge("run.elements").set(mesh.n_live_tets)
        registry.gauge("run.vertices").set(mesh.n_vertices)
        registry.gauge("run.virtual_seconds").set(total_time)
        registry.gauge("run.elements_per_second").set(
            mesh.n_live_tets / total_time if total_time else 0.0
        )
        registry.gauge("run.livelock").set(int(livelock))
    return SimulationResult(
        n_threads=n_threads,
        cm_name=env.cm.name,
        lb_name=env.bl.name,
        hyperthreading=hyperthreading,
        virtual_time=total_time,
        n_elements=mesh.n_live_tets,
        n_vertices=mesh.n_vertices,
        thread_stats=stats,
        livelock=livelock,
        totals=totals,
    )
