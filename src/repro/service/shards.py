"""Shard fan-out over the service's process pool.

:func:`repro.delaunay.shard.mesh_sharded` is the one coordinator
(decompose, fall back, run the blocks, stitch); this module supplies
the service's side of it:

* :func:`pool_runner` — the runner that fans blocks out over a
  :class:`~repro.service.pool.ProcessWorkerPool`, each bounded by the
  parent job's deadline, with crash isolation: a dead shard re-runs up
  to :data:`SHARD_RETRIES` times while the other shards keep their
  results.
* :func:`run_sharded_job` — one sharded job of a
  :class:`~repro.service.service.MeshingService`: the pool runner when
  the service has a process pool, the in-process runner otherwise;
  either way every block is a **sub-job** (id ``<job>/s<block>``,
  visible through the normal job API) with ``service.shard.*`` metrics
  and one trace span per shard.

Fan-out never touches the service's :class:`JobQueue`: the claiming
thread that owns the parent job drives its own small thread group over
the pool's worker slots, so sharded jobs cannot deadlock the queue by
occupying every claiming thread with waiting parents.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.delaunay import shard as shard_mod
from repro.service.jobs import JobState, TransientMeshError
from repro.service.pool import ProcessWorkerPool, WorkerCrashed

#: re-runs granted to a crashed / transiently-failed shard.
SHARD_RETRIES = 1


def _run_one_shard(pool: ProcessWorkerPool, request, plan, block,
                   deadline: Optional[float],
                   hook: Optional[shard_mod.ShardHook]) -> dict:
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
            out = pool.run_shard(request, plan, block, deadline=deadline)
        except (WorkerCrashed, TransientMeshError) as exc:
            crashed = isinstance(exc, WorkerCrashed)
            if attempt > SHARD_RETRIES:
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
                deadline: Optional[float] = None,
                hook: Optional[shard_mod.ShardHook] = None
                ) -> shard_mod.ShardRunner:
    """A :data:`~repro.delaunay.shard.ShardRunner` over ``pool``.

    Drives up to ``pool.n_workers`` parent threads, each checking out
    worker slots for successive blocks; the first non-retryable error
    stops assignment and re-raises after in-flight shards settle.
    Blocks are handed out largest crop first (a block's refine time
    follows its crop volume, and the fan-out ends when the last block
    does); ``outs`` stays in ``indices`` order.
    """
    def run(plan: shard_mod.ShardPlan, indices):
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
                        deadline, hook)
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


def run_sharded_job(service, job, request):
    """One sharded job on ``service``: blocks fan out over its process
    pool, or run in-process when it has none, and every block is a
    ``<job>/s<block>`` sub-job.  Raises
    :class:`~repro.delaunay.shard.ShardingUnavailable` like
    :func:`~repro.delaunay.shard.mesh_sharded`."""
    hook = _hook(service, job)
    pool = service._proc_pool
    if pool is not None:
        runner = pool_runner(pool, request, deadline=job.deadline, hook=hook)
    else:
        runner = shard_mod.in_process_runner(request, hook=hook)
    result = shard_mod.mesh_sharded(request, runner=runner,
                                    block_cache=service.cache)
    reg = service.registry
    reg.counter("service.shard.jobs").inc()
    reg.counter("service.shard.blocks").inc(result.stats["shards"])
    shard_mod.publish_counters(reg, result.stats)
    return result


def _hook(svc, job) -> shard_mod.ShardHook:
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
    "pool_runner",
    "run_sharded_job",
]
