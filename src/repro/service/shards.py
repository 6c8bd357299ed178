"""Shard fan-out runners: wiring :mod:`repro.delaunay.shard` to pools.

The shard algorithm (decompose → mesh blocks → stitch) is pure; this
module supplies its ``runner`` — the thing that turns "mesh every
block" into parallel work:

* :func:`run_local` serves ``repro.api.mesh`` directly: it spins up a
  private :class:`~repro.service.pool.ProcessWorkerPool` when the
  machine has more than one CPU, otherwise meshes the blocks serially
  in-process (same result, no speedup).
* :class:`ServiceShardRunner` serves :class:`~repro.service.service
  .MeshingService`: blocks fan out over the service's existing process
  pool as **sub-jobs** (ids ``<job>/s<block>``, visible through the
  normal job API), each bounded by the parent job's deadline, with
  crash isolation — a dead shard re-runs up to the configured retry
  budget while the other shards keep their results — and
  ``service.shard.*`` metrics plus one trace span per shard.

Fan-out never touches the service's :class:`JobQueue`: the claiming
thread that owns the parent job drives its own small thread group over
the pool's worker slots, so sharded jobs cannot deadlock the queue by
occupying every claiming thread with waiting parents.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.delaunay import shard as shard_mod
from repro.service.jobs import JobState, TransientMeshError
from repro.service.pool import ProcessWorkerPool, WorkerCrashed

#: events a fan-out reports: ``hook(event, block, info)`` with events
#: ``"start"``, ``"done"``, ``"retry"``, ``"fail"``.
ShardHook = Callable[[str, Any, Dict[str, Any]], None]


def _run_one_shard(pool: ProcessWorkerPool, request, plan, block,
                   deadline: Optional[float], retries: int,
                   hook: Optional[ShardHook],
                   content_key: Optional[str] = None) -> dict:
    """One block through the pool, with bounded crash/transient re-runs.

    ``DeadlineKilled`` is never retried (the parent deadline already
    passed); a crashed or transiently-failed shard re-runs on a fresh
    worker slot.
    """
    attempt = 0
    while True:
        attempt += 1
        if hook is not None:
            hook("start", block, {"attempt": attempt})
        t0 = time.perf_counter()
        try:
            out = pool.run_shard(request, plan, block, deadline=deadline,
                                 content_key=content_key)
        except (WorkerCrashed, TransientMeshError) as exc:
            crashed = isinstance(exc, WorkerCrashed)
            if attempt > retries:
                if hook is not None:
                    hook("fail", block, {"error": str(exc),
                                         "crashed": crashed})
                raise
            if hook is not None:
                hook("retry", block, {"error": str(exc),
                                      "crashed": crashed})
            continue
        except BaseException as exc:
            if hook is not None:
                hook("fail", block, {"error": str(exc), "crashed": False})
            raise
        if hook is not None:
            hook("done", block, {
                "seconds": time.perf_counter() - t0,
                "stats": out.get("stats", {}),
            })
        return out


def pool_runner(pool: ProcessWorkerPool, request,
                deadline: Optional[float] = None, retries: int = 1,
                hook: Optional[ShardHook] = None
                ) -> shard_mod.ShardRunner:
    """A :data:`~repro.delaunay.shard.ShardRunner` over ``pool``.

    Drives up to ``pool.n_workers`` parent threads, each checking out
    worker slots for successive blocks; the first non-retryable error
    stops assignment and re-raises after in-flight shards settle.
    Blocks are handed out largest crop first (a block's refine time
    follows its crop volume, and the fan-out ends when the last block
    does); ``outs`` stays in ``indices`` order.
    """
    def run(plan: shard_mod.ShardPlan, indices=None, keys=None):
        if indices is None:
            indices = range(plan.n_blocks)
        indices = list(indices)
        outs: List[Optional[dict]] = [None] * len(indices)
        pending = sorted(
            enumerate(indices),
            key=lambda e: (-plan.blocks[e[1]].crop_voxels, e[1]))
        errors: List[BaseException] = []
        lock = threading.Lock()

        def worker() -> None:
            while True:
                with lock:
                    if errors or not pending:
                        return
                    pos, i = pending.pop(0)
                try:
                    outs[pos] = _run_one_shard(
                        pool, request, plan, plan.blocks[i],
                        deadline, retries, hook,
                        content_key=keys[i] if keys is not None else None,
                    )
                except BaseException as exc:
                    with lock:
                        errors.append(exc)
                    return

        n = min(len(indices), pool.n_workers)
        if n <= 1:
            worker()
        else:
            threads = [
                threading.Thread(target=worker, name=f"shard-fanout-{i}",
                                 daemon=True)
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
        return outs
    return run


def serial_runner(request, hook: Optional[ShardHook] = None
                  ) -> shard_mod.ShardRunner:
    """Mesh the blocks one by one in this process (no pool)."""
    def run(plan: shard_mod.ShardPlan, indices=None, keys=None):
        if indices is None:
            indices = range(plan.n_blocks)
        outs = []
        for i in indices:
            block = plan.blocks[i]
            if hook is not None:
                hook("start", block, {"attempt": 1})
            t0 = time.perf_counter()
            arrays, stats = shard_mod.mesh_block(
                request.image, block, plan,
                radius_edge_bound=request.radius_edge_bound,
                planar_angle_bound_deg=request.planar_angle_bound_deg,
                max_operations=request.max_operations,
            )
            if hook is not None:
                hook("done", block, {
                    "seconds": time.perf_counter() - t0, "stats": stats,
                })
            outs.append({"arrays": arrays, "stats": stats})
        return outs
    return run


# ---------------------------------------------------------------------------
# api-path entry point
# ---------------------------------------------------------------------------

#: Lazily created, process-wide, memory-only block/stitch cache for the
#: api path — repeated ``repro.api.mesh`` calls on near-duplicate
#: images in one process get the same incremental treatment the
#: service provides, without any disk state.
_LOCAL_BLOCK_CACHE = None
_LOCAL_BLOCK_CACHE_GUARD = threading.Lock()


def _local_block_cache():
    global _LOCAL_BLOCK_CACHE
    with _LOCAL_BLOCK_CACHE_GUARD:
        if _LOCAL_BLOCK_CACHE is None:
            from repro.service.cache import ArtifactCache
            _LOCAL_BLOCK_CACHE = ArtifactCache(root=None)
        return _LOCAL_BLOCK_CACHE


def run_local(request):
    """Sharded meshing for ``repro.api.mesh`` (no service running).

    Returns the stitched ``MeshResult``, or ``None`` when the image
    does not decompose into at least two occupied blocks — the caller
    then runs the ordinary unsharded mesher.
    """
    import os

    try:
        plan = shard_mod.decompose(
            request.image, request.resolved_shards(), delta=request.delta
        )
    except ValueError:
        # e.g. empty foreground: let the unsharded path raise its
        # canonical error.
        return None
    if plan.n_blocks < 2:
        return None
    pool: Optional[ProcessWorkerPool] = None
    runner: Optional[shard_mod.ShardRunner] = None
    if (os.cpu_count() or 1) > 1:
        pool = ProcessWorkerPool(
            min(plan.n_blocks, os.cpu_count() or 1), name="mesh-shard"
        )
        runner = pool_runner(pool, request)
    else:
        runner = serial_runner(request)
    block_cache = (
        _local_block_cache()
        if getattr(request, "incremental", True) else None
    )
    try:
        return shard_mod.mesh_sharded(request, plan=plan, runner=runner,
                                      block_cache=block_cache)
    except shard_mod.ShardingUnavailable:
        return None
    finally:
        if pool is not None:
            pool.shutdown()


# ---------------------------------------------------------------------------
# service-path coordinator
# ---------------------------------------------------------------------------

class ServiceShardRunner:
    """Runs one sharded job on a :class:`MeshingService`'s executors."""

    def __init__(self, service):
        self.service = service

    def run(self, job, request):
        """Returns the stitched result, or ``None`` to fall back."""
        svc = self.service
        reg = svc.registry
        try:
            plan = shard_mod.decompose(
                request.image, request.resolved_shards(),
                delta=request.delta)
        except ValueError:
            return None
        if plan.n_blocks < 2:
            return None
        reg.counter("service.shard.jobs").inc()
        reg.counter("service.shard.blocks").inc(plan.n_blocks)
        hook = self._hook(job)
        pool = svc._proc_pool
        if pool is not None:
            runner = pool_runner(
                pool, request, deadline=job.deadline,
                retries=svc.config.shard_retries, hook=hook,
            )
        else:
            runner = serial_runner(request, hook=hook)
        block_cache = (
            svc.cache
            if (svc.cache is not None and svc.config.incremental
                and getattr(request, "incremental", True))
            else None
        )
        try:
            result = shard_mod.mesh_sharded(request, plan=plan,
                                            runner=runner,
                                            block_cache=block_cache)
        except shard_mod.ShardingUnavailable:
            return None
        bc = result.stats.get("block_cache")
        if bc:
            reg.counter("shard.cache.block_hits").inc(bc.get("hits", 0))
            reg.counter("shard.cache.block_misses").inc(
                bc.get("misses", 0))
            if bc.get("stitch_hit"):
                reg.counter("shard.cache.incremental_stitches").inc()
        stitch = result.stats.get("stitch", {})
        reg.counter("shard.stitch.points").inc(
            stitch.get("points_loaded", 0))
        reg.counter("shard.stitch.removed").inc(
            stitch.get("band_removed", 0))
        reg.counter("shard.stitch.refine_operations").inc(
            stitch.get("refine_operations", 0))
        reg.histogram("shard.stitch.seconds").observe(
            stitch.get("seconds", 0.0))
        return result

    def _hook(self, job) -> ShardHook:
        svc = self.service
        reg = svc.registry
        tracer = svc.tracer

        def hook(event: str, block, info: Dict[str, Any]) -> None:
            sub_id = f"{job.id}/s{block.index}"
            if event == "start":
                sub = svc._register_subjob(sub_id, job)
                if sub is not None:
                    sub.transition(JobState.QUEUED, JobState.RUNNING)
                    sub.attempts = info.get("attempt", 1)
            elif event == "done":
                reg.histogram("service.shard.seconds").observe(
                    info.get("seconds", 0.0))
                if tracer.enabled:
                    now = time.perf_counter()
                    tracer.complete(f"shard:{sub_id}",
                                    now - info.get("seconds", 0.0),
                                    info.get("seconds", 0.0), 0)
                sub = svc.job(sub_id)
                if sub is not None:
                    sub.finish(JobState.DONE)
            elif event == "retry":
                if info.get("crashed"):
                    reg.counter("service.shard.crashes").inc()
                reg.counter("service.shard.reruns").inc()
            elif event == "fail":
                if info.get("crashed"):
                    reg.counter("service.shard.crashes").inc()
                reg.counter("service.shard.failed").inc()
                sub = svc.job(sub_id)
                if sub is not None:
                    sub.finish(JobState.FAILED,
                               error=info.get("error", ""))
        return hook


__all__ = [
    "ServiceShardRunner",
    "pool_runner",
    "run_local",
    "serial_runner",
]
