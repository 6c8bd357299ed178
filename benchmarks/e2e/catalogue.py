"""The names this benchmark fixes: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root repeats the gated part of
this table for the PR driver; ``test_smoke.py`` checks the two agree.
Later issues make their claims in these names, so renaming one is a
change to the ledger, not a refactor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: How long one run measures, in seconds (``run_seconds`` of
#: ``BENCHMARK.json``).  The driver makes 4 + 22 x 5 runs in under
#: 3420 s, so one run — set-up, output checks and teardown included —
#: has to stay near 25 s.
RUN_SECONDS = 16

WORKLOADS: Dict[str, str] = {
    "cold_single": (
        "plain single-threaded baseline (paper Table 6): core, imaging and "
        "the kernel do the work and service none, so rule-loop, oracle and "
        "kernel changes show here and transport changes must not"
    ),
    "cold_threaded": (
        "the paper's speculative path on 2 threads, same image as "
        "cold_single: the only workload that runs parallel/runtime, so "
        "lock, rollback and arena work shows here and nowhere else"
    ),
    "cold_sharded": (
        "delaunay.shard write-mostly: decompose, four block refines over "
        "the process pool, full stitch; decides ROADMAP's make cold stitch "
        "win or delete it"
    ),
    "near_duplicate_series": (
        "the same shard/stitch layer used warm: 3 block hits, 1 miss and a "
        "seam-local stitch per frame, so a stitch rewrite that gives up the "
        "warm path is caught"
    ),
    "gateway_mix": (
        "real meshes over the real HTTP transport: zipfian repeats over 8 "
        "images, so service, cache tiers and JSON serialisation do the work "
        "and refinement almost none"
    ),
}

MESHING_WORKLOADS = ("cold_single", "cold_threaded", "cold_sharded",
                     "near_duplicate_series")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    #: share of the baseline median by which the metric may worsen;
    #: ``None`` for per-layer metrics (they explain, they do not gate).
    bound: Optional[float] = None
    #: workloads the ledger reports it on (driver runs emit every gated
    #: metric on every workload, as the contract requires).
    on: Tuple[str, ...] = ALL
    #: listed in ``BENCHMARK.json``.
    gated: bool = True


#: Every bound is the contract's maximum.  The issue asked for 10 %; a
#: metric has one bound for all workloads, and the two that keep both
#: vCPUs of the shared sandbox busy (cold_threaded, cold_sharded)
#: spread by up to 19 % between identical runs even at reference host
#: speed (README, "How steady the numbers are"), so a tighter bound
#: would reject changes by lottery.  More runs resolve smaller
#: differences; ``compare`` says what its runs can tell.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_p50_s", "s", "lower", 0.25),
    Metric("elements_per_s", "tets/s", "higher", 0.25),
    Metric("throughput_rps", "req/s", "higher", 0.25),
    Metric("cpu_s_per_op", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
    # Ledger-only.  The driver wants every gated metric on every
    # workload and never 0: p95 needs ten samples beyond it, which only
    # gateway_mix has, and failed_share is 0 whenever the program is
    # right (the driver reads ``failed`` / ``attempted`` instead).
    Metric("latency_p95_s", "s", "lower", 0.25, on=("gateway_mix",),
           gated=False),
    Metric("failed_share", "ratio", "lower", 0.0, gated=False),
)


def _layer(names: str, unit: str, better: str = "lower",
           on: Tuple[str, ...] = ALL) -> Tuple[Metric, ...]:
    return tuple(Metric(n, unit, better, on=on) for n in names.split())


_SINGLE = ("cold_single",)
_THREADED = ("cold_threaded",)
_SHARDED = ("cold_sharded", "near_duplicate_series")
_SERVICE = _SHARDED + ("gateway_mix",)
_GATEWAY = ("gateway_mix",)

#: ``on`` is where a metric is measured; a traced driver run still
#: emits every name (0 where it does not apply), as the contract wants.
PER_LAYER = (
    # imaging
    _layer("imaging.decode_s", "s")
    + _layer("imaging.surface_mask_s imaging.edt_s imaging.oracle_s", "s",
             on=_SINGLE)
    + _layer("imaging.oracle_calls", "count", on=_SINGLE)
    + _layer("imaging.voxels", "count")
    # core
    + _layer("core.domain_init_s core.rules_self_s core.extract_s", "s",
             on=_SINGLE)
    + _layer("core.refine_s", "s", on=MESHING_WORKLOADS)
    + _layer("core.refine_operations core.refine_insertions "
             "core.refine_removals core.refine_skipped", "count",
             on=MESHING_WORKLOADS)
    + _layer("core.useful_op_share", "ratio", "higher", on=MESHING_WORKLOADS)
    # delaunay (kernel)
    + _layer("delaunay.kernel_replay_s", "s", on=_SINGLE)
    + _layer("delaunay.locate_calls delaunay.mean_walk_length "
             "delaunay.mean_cavity_size", "count", on=MESHING_WORKLOADS)
    + _layer("delaunay.accel_retry_share delaunay.exact_predicate_share",
             "ratio", on=MESHING_WORKLOADS)
    # parallel + runtime
    + _layer("parallel.rollbacks parallel.steals", "count", on=_THREADED)
    + _layer("parallel.rollback_share parallel.commit_wait_share", "ratio",
             on=_THREADED)
    + _layer("parallel.contention_overhead_s "
             "parallel.load_balance_overhead_s parallel.rollback_overhead_s",
             "s", on=_THREADED)
    + _layer("parallel.speedup_over_single", "ratio", "higher", on=_THREADED)
    # delaunay.shard
    + _layer("shard.decompose_s shard.block_refine_sum_s "
             "shard.block_refine_max_s shard.stitch_s", "s", on=_SHARDED)
    + _layer("shard.block_imbalance", "ratio", on=_SHARDED)
    + _layer("shard.stitch_refine_operations shard.points_loaded "
             "shard.block_misses shard.stitch_escalations", "count",
             on=_SHARDED)
    + _layer("shard.reused_points shard.block_hits", "count", "higher",
             on=_SHARDED)
    + _layer("shard.speedup_over_unsharded", "ratio", "higher",
             on=("cold_sharded",))
    # service
    + _layer("service.key_s service.cache_get_memory_s "
             "service.cache_get_disk_s service.cache_put_s "
             "service.queue_wait_s service.run_s", "s", on=_SERVICE)
    + _layer("service.dispatch_overhead_s", "s", on=("cold_sharded",))
    + _layer("service.mesh_runs service.evictions", "count", on=_SERVICE)
    + _layer("service.coalesce_followers", "count", "higher", on=_SERVICE)
    + _layer("service.tier_share.memory_hit service.tier_share.disk_hit "
             "service.tier_share.coalesced service.tier_share.block_hit",
             "ratio", "higher", on=_SERVICE)
    + _layer("service.tier_share.full_mesh", "ratio", on=_SERVICE)
    # service.http + api
    + _layer("http.handle_post_s http.handle_wait_s http.handle_result_s",
             "s", on=_GATEWAY)
    + _layer("api.serialise_s api.deserialise_s", "s")
    + _layer("http.response_bytes http.upload_bytes", "bytes", on=_GATEWAY)
    + _layer("http.round_trips_per_request", "count", on=_GATEWAY)
    # the ledger itself
    + _layer("trace.unattributed_s", "s")
    + _layer("trace.overhead_share", "ratio")
    # per-layer seconds are raw; the end-to-end ones were divided by this
    + _layer("host.slowdown", "ratio")
)

GATED = tuple(m for m in END_TO_END if m.gated)
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """What ``BENCHMARK.json`` has to say, from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in GATED],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
