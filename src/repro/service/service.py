"""The meshing service: queue + worker pool + artifact cache + metrics.

:class:`MeshingService` turns one-shot meshers of :mod:`repro.api`
into a long-running, observable system:

* what it runs is one table of served meshers, fixed when the service
  is built (by default ``{"sequential": SequentialMesher()}``, the
  path that carries the paper's guarantees); any other name is
  refused at :meth:`~MeshingService.submit`, and both executors run
  the same table;
* requests are admitted into a bounded :class:`JobQueue` (full queue →
  ``REJECTED``, an explicit outcome, never silent drop);
* a :class:`WorkerPool` of N threads claims jobs via the
  ``QUEUED → RUNNING`` compare-and-set, honours per-job deadlines, and
  retries transient failures with exponential backoff within a bounded
  budget;
* results are content-addressed: a finished mesh is stored under
  ``hash(image bytes, canonical MeshParams)`` and an identical future
  request returns it in O(hash);
* every stage feeds ``service.*`` metrics in the service's
  :class:`~repro.observability.MetricsRegistry` and, when tracing is
  enabled, emits one span per job.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Mapping, Optional

from repro.api import Mesher, MeshRequest, MeshResult, SequentialMesher
from repro.observability import Observability, ObservabilityConfig
from repro.service.cache import ArtifactCache
from repro.service.coalesce import CoalesceRegistry
from repro.service.jobs import (
    Job,
    JobState,
    ServiceError,
    TransientMeshError,
)
from repro.service.keys import cache_keys
from repro.service.slo import SLOTracker
from repro.service.pool import (
    DeadlineKilled,
    ProcessWorkerPool,
    WorkerCrashed,
    WorkerPool,
)
from repro.service.queue import JobQueue

#: Valid values of :attr:`ServiceConfig.executor`.
EXECUTORS = ("thread", "process")

#: Terminal jobs kept answerable by id (status polls, result fetches);
#: older ones are forgotten and answer as unknown ids do.  Each retained
#: job pins its request image and its result.
RETAINED_TERMINAL_JOBS = 128

#: Entry bound of the in-memory artifact LRU (beside the optional byte
#: budget, :attr:`ServiceConfig.memory_cache_bytes`).
MEMORY_CACHE_ENTRIES = 64

#: Exceptions a mesher may raise to ask for a bounded retry.
TRANSIENT_EXCEPTIONS = (TransientMeshError,)

#: Ceiling of the exponential retry backoff, seconds.
RETRY_BACKOFF_CAP = 2.0


@dataclass
class ServiceConfig:
    """Tunables of one service instance.  Which meshers it serves is
    not a tunable: that is the table :class:`MeshingService` is built
    with."""

    n_workers: int = 4
    queue_capacity: int = 64
    #: artifact directory; ``None`` keeps the cache in memory only.
    cache_dir: Optional[str] = None
    #: byte budget for the in-memory artifact LRU (``None`` = entry
    #: count only); in-flight jobs pin their keys against eviction.
    memory_cache_bytes: Optional[int] = None
    #: retry budget for :class:`TransientMeshError` failures.
    max_retries: int = 2
    retry_backoff: float = 0.05
    #: default per-job deadline in seconds (``None`` = no deadline).
    default_deadline: Optional[float] = None
    tracing: bool = False
    #: cap on any request's shard count (``None`` = the request's own
    #: resolved value stands); applied at submit time, before cache
    #: keys are computed.
    max_shards: Optional[int] = None
    #: ``"thread"`` or ``"process"``.  ``"process"`` runs CPU-bound
    #: meshing in spawned worker processes that answer over a pipe.
    executor: str = "thread"


class MeshingService:
    """Long-running meshing service over one table of served meshers.

    ``meshers`` maps each served name to its mesher (default
    ``{"sequential": SequentialMesher()}``; ``"auto"`` resolves to
    ``"sequential"``).  The thread executor calls the table in-process;
    the process executor pickles it into every worker it spawns, so a
    fake a test passes here runs in the workers too.  Start with
    :meth:`start` (or use as a context manager), feed it
    :class:`~repro.api.MeshRequest` objects through :meth:`submit` /
    :meth:`mesh`, and stop with :meth:`shutdown`.  Thread-safe.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 meshers: Optional[Mapping[str, Mesher]] = None):
        self.config = config or ServiceConfig()
        self.meshers: Dict[str, Mesher] = (
            {"sequential": SequentialMesher()} if meshers is None
            else dict(meshers))
        cfg = self.config
        if cfg.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {cfg.executor!r}; pick from {EXECUTORS}"
            )
        self.obs = Observability.from_config(
            ObservabilityConfig(tracing=cfg.tracing)
        )
        self.registry = self.obs.registry
        self.tracer = self.obs.tracer
        self.cache = ArtifactCache(
            cfg.cache_dir, memory_entries=MEMORY_CACHE_ENTRIES,
            max_bytes=cfg.memory_cache_bytes
        )
        self.queue = JobQueue(cfg.queue_capacity)
        self.pool = WorkerPool(
            self.queue, self._process, cfg.n_workers,
            on_crash=self._count_crash,
        )
        # The claiming threads above always exist; "process" adds
        # worker processes underneath them (see :meth:`start`).
        self.executor = cfg.executor
        self._proc_pool: Optional[ProcessWorkerPool] = None
        self.slo = SLOTracker(self.registry)
        self._coalesce = CoalesceRegistry(self)
        self._jobs: Dict[str, Job] = {}
        #: terminal submitted jobs, oldest first (see :meth:`_retire`)
        self._retired: Deque[Job] = deque()
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "MeshingService":
        if self._started:
            return self
        self._started = True
        self.registry.gauge("service.workers").set(self.config.n_workers)
        if self.executor == "process":
            self._proc_pool = ProcessWorkerPool(self.config.n_workers,
                                                self.meshers)
        self.pool.start()
        return self

    def shutdown(self, wait: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop accepting work; drain (``wait=True``) or cancel what is
        still queued, and join the workers."""
        if self._closed:
            return
        self._closed = True
        if not wait:
            for job in self.queue.drain():
                if job.transition(JobState.QUEUED, JobState.CANCELLED):
                    self.registry.counter("service.jobs.cancelled").inc()
        self.queue.close()
        if self._started:
            self.pool.join(timeout)
        if self._proc_pool is not None:
            # After pool.join no job is in flight, so every slot is
            # idle: polite exits, then kills.
            self._proc_pool.shutdown()

    def __enter__(self) -> "MeshingService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------
    def submit(self, request: MeshRequest,
               deadline: Optional[float] = None) -> Job:
        """Queue one request; returns its :class:`Job` immediately.

        ``deadline`` is seconds-from-now; it covers queue wait *and*
        run time.  A full (or shut-down) queue yields a ``REJECTED``
        job, not an exception — admission control is an outcome the
        caller inspects, and the metrics count it.  A request the
        service cannot run — a mesher outside its table, or one
        :meth:`MeshRequest.validate <repro.api.MeshRequest.validate>`
        refuses — raises ``ValueError`` before any job or key exists.
        """
        if request.resolved_mesher() not in self.meshers:
            raise ValueError(
                f"unknown mesher {request.mesher!r}; this service serves "
                f"{tuple(self.meshers)}")
        request.validate()
        if request.shards is not None:
            # Normalise to a resolved, capped integer *before* any
            # cache key is computed, so the key reflects what will run;
            # on a copy, so the caller's request keeps its own value.
            n = request.resolved_shards()
            if self.config.max_shards is not None:
                n = min(n, self.config.max_shards)
            request = replace(request, shards=max(1, n))
        if deadline is None:
            deadline = self.config.default_deadline
        abs_deadline = (
            time.monotonic() + deadline if deadline is not None else None
        )
        job = Job(f"job-{next(self._ids):06d}", request,
                  deadline=abs_deadline)
        with self._jobs_lock:
            self._jobs[job.id] = job
        job.add_done_callback(self._retire)
        reg = self.registry
        reg.counter("service.jobs.submitted").inc()
        if not self._closed:
            try:
                job.keys = cache_keys(request)
            except Exception:
                # A malformed image fails in the worker with a proper
                # FAILED outcome; submit itself must not raise for it.
                job.keys = None
            if (job.keys is not None
                    and self._coalesce.route(job.keys[1], job)):
                # Follower: rides the in-flight leader's run; it never
                # enters the queue and concludes at the fan-out.
                return job
        if self._closed or not self.queue.put(job):
            job.finish(JobState.REJECTED,
                       error="queue full or service shut down")
            reg.counter("service.jobs.rejected").inc()
        reg.gauge("service.queue.depth").set(len(self.queue))
        return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def _retire(self, job: Job) -> None:
        """Done-callback of every submitted job: forget the oldest
        terminal jobs beyond :data:`RETAINED_TERMINAL_JOBS`, each with
        its ``<id>/s<k>`` sub-jobs.  Only terminal jobs are ever
        queued here, so a job in flight — and with it the parent of
        any live sub-job — is never dropped."""
        with self._jobs_lock:
            self._retired.append(job)
            while len(self._retired) > RETAINED_TERMINAL_JOBS:
                old = self._retired.popleft()
                if self._jobs.get(old.id) is not old:
                    continue  # its id was resubmitted since
                del self._jobs[old.id]
                prefix = f"{old.id}/s"
                for sub_id in [k for k in self._jobs
                               if k.startswith(prefix)]:
                    del self._jobs[sub_id]

    def _register_subjob(self, sub_id: str, parent: Job) -> Optional[Job]:
        """Record one shard of ``parent`` as a visible sub-job.

        Sub-jobs never enter the queue (the parent's claiming thread
        drives them); they exist so ``job("<id>/s<k>")`` answers status
        queries and the metrics can count per-shard outcomes.  A
        re-run reuses the existing record.
        """
        with self._jobs_lock:
            existing = self._jobs.get(sub_id)
            if existing is not None:
                return existing
            sub = Job(sub_id, parent.request, deadline=parent.deadline)
            self._jobs[sub_id] = sub
            return sub

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; True iff it will never run.

        Wins (or loses) the ``QUEUED → CANCELLED`` CAS against the
        worker's ``QUEUED → RUNNING`` claim, then eagerly frees the
        queue slot.  Running jobs are not interruptible.
        """
        job = self.job(job_id)
        if job is None:
            return False
        if job.transition(JobState.QUEUED, JobState.CANCELLED):
            self.queue.remove(job)
            self.registry.counter("service.jobs.cancelled").inc()
            self.registry.gauge("service.queue.depth").set(len(self.queue))
            return True
        return False

    # -- coalescing ----------------------------------------------------
    def _enqueue_promoted(self, job: Job) -> None:
        """Queue a follower promoted to leader after a leader cancel."""
        reg = self.registry
        reg.counter("service.coalesce.promotions").inc()
        if self._closed or not self.queue.put(job):
            job.finish(JobState.REJECTED,
                       error="queue full or service shut down")
            reg.counter("service.jobs.rejected").inc()
        reg.gauge("service.queue.depth").set(len(self.queue))

    def _conclude_follower(self, follower: Job, leader: Job) -> bool:
        """Fan one leader outcome out to one waiter; True iff it landed.

        The follower inherits the leader's terminal state (result or
        error), except that a follower whose *own* deadline lapsed
        while it waited concludes ``TIMED_OUT`` — with the mesh still
        attached, like any salvageable late finish.  Returns False for
        followers already terminal (individually cancelled).
        """
        reg = self.registry
        follower.coalesced = True
        state = leader.state
        if state is JobState.DONE:
            if follower.expired():
                if not follower.finish(
                        JobState.TIMED_OUT, result=leader.result,
                        error="deadline expired while coalesced"):
                    return False
                reg.counter("service.jobs.timed_out").inc()
                return True
            follower.tier = "coalesced"
            if not follower.finish(JobState.DONE, result=leader.result):
                return False
            reg.counter("service.jobs.completed").inc()
            self._observe_slo(follower)
            return True
        counters = {
            JobState.FAILED: "service.jobs.failed",
            JobState.TIMED_OUT: "service.jobs.timed_out",
            JobState.CANCELLED: "service.jobs.cancelled",
            JobState.REJECTED: "service.jobs.rejected",
        }
        error = leader.error or (
            f"coalesced leader {leader.id} finished {leader.state.value}"
        )
        if not follower.finish(state, error=error):
            return False
        reg.counter(counters[state]).inc()
        return True

    def _observe_slo(self, job: Job) -> None:
        """Attribute one successfully concluded job to its SLO tier."""
        if job.finished_at is None:
            return
        self.slo.observe(job.tier, job.finished_at - job.submitted_at)

    def wait(self, job: Job, timeout: Optional[float] = None) -> Job:
        job.wait(timeout)
        return job

    def mesh(self, request: MeshRequest,
             deadline: Optional[float] = None,
             timeout: Optional[float] = None) -> MeshResult:
        """Synchronous submit + wait; raises :class:`ServiceError` for
        any terminal state other than ``DONE``."""
        job = self.submit(request, deadline=deadline)
        if not job.wait(timeout):
            raise ServiceError(f"timed out waiting for {job.id}", job)
        if job.state is not JobState.DONE or job.result is None:
            detail = f": {job.error}" if job.error else ""
            raise ServiceError(
                f"{job.id} finished {job.state.value}{detail}", job
            )
        return job.result

    # -- worker side ---------------------------------------------------
    def _count_crash(self, job: Job, tb: str) -> None:
        self.registry.counter("service.worker.crashes").inc()
        self.registry.counter("service.jobs.failed").inc()

    def _process(self, job: Job) -> None:
        """Claim, run (with retries), and conclude one job."""
        reg = self.registry
        now = time.monotonic()
        reg.histogram("service.stage.queue_wait_seconds").observe(
            now - job.submitted_at
        )
        reg.gauge("service.queue.depth").set(len(self.queue))
        if job.expired(now):
            # Died waiting in line: never claim, never run.
            if job.finish(JobState.TIMED_OUT,
                          error="deadline expired while queued"):
                reg.counter("service.jobs.timed_out").inc()
            return
        if not job.transition(JobState.QUEUED, JobState.RUNNING):
            return  # cancelled between pop and claim
        cfg = self.config
        tracer = self.tracer
        span = tracer.enabled
        t0 = time.perf_counter()
        if span:
            tracer.begin(f"job:{job.id}", 0, t0)
        try:
            while True:
                job.attempts += 1
                try:
                    result = self._execute(job)
                except TRANSIENT_EXCEPTIONS:
                    if (job.attempts > cfg.max_retries
                            or job.expired()):
                        job.finish(
                            JobState.FAILED,
                            error=traceback.format_exc(),
                        )
                        reg.counter("service.jobs.failed").inc()
                        return
                    reg.counter("service.jobs.retries").inc()
                    backoff = min(
                        cfg.retry_backoff * (2.0 ** (job.attempts - 1)),
                        RETRY_BACKOFF_CAP,
                    )
                    if job.deadline is not None:
                        backoff = min(
                            backoff, max(0.0, job.deadline - time.monotonic())
                        )
                    time.sleep(backoff)
                    continue
                except DeadlineKilled as exc:
                    job.finish(JobState.TIMED_OUT, error=str(exc))
                    reg.counter("service.jobs.timed_out").inc()
                    return
                except WorkerCrashed:
                    job.finish(JobState.FAILED, error=traceback.format_exc())
                    reg.counter("service.worker.crashes").inc()
                    reg.counter("service.jobs.failed").inc()
                    return
                except BaseException:
                    job.finish(JobState.FAILED, error=traceback.format_exc())
                    reg.counter("service.jobs.failed").inc()
                    return
                if job.expired():
                    # The mesh is attached (salvageable), but the state
                    # reflects that the caller's deadline was missed.
                    job.finish(JobState.TIMED_OUT, result=result,
                               error="deadline expired during run")
                    reg.counter("service.jobs.timed_out").inc()
                    return
                job.finish(JobState.DONE, result=result)
                reg.counter("service.jobs.completed").inc()
                self._observe_slo(job)
                return
        finally:
            dt = time.perf_counter() - t0
            reg.histogram("service.job.total_seconds").observe(dt)
            if span:
                tracer.end(f"job:{job.id}", 0, t0 + dt,
                           state=job.state.value)

    def _execute(self, job: Job) -> MeshResult:
        """One attempt: cache lookup → mesher run → cache store."""
        reg = self.registry
        request = job.request
        # Reuse the keys submit computed for coalescing, if any — the
        # image hash is the expensive half of the key.
        keys = job.keys if job.keys is not None else cache_keys(request)
        # Pin across the whole attempt: the stored result must still be
        # resident when the waiter reads it, even under a byte-bounded
        # LRU squeezed by concurrent jobs.
        self.cache.pin_mesh(keys[1])
        try:
            t0 = time.perf_counter()
            cached, tier = self.cache.get_mesh_tiered(keys[1])
            reg.histogram("service.stage.cache_seconds").observe(
                time.perf_counter() - t0
            )
            if cached is not None:
                reg.counter("service.cache.hit").inc()
                job.cache_hit = True
                job.tier = "memory_hit" if tier == "memory" else "disk_hit"
                return cached
            reg.counter("service.cache.miss").inc()
            t0 = time.perf_counter()
            result = self._run_mesher(job, request)
            # A service result is the five plain fields whichever path
            # produced it: the live domain an in-process mesher or a
            # stitch hands back would otherwise stay reachable from
            # the cache entry and the retained job.
            result = replace(result, extras={})
            bc = result.stats.get("block_cache") if result.stats else None
            job.tier = (
                "block_hit" if bc and bc.get("hits", 0) > 0
                else "full_mesh"
            )
            reg.histogram("service.stage.mesh_seconds").observe(
                time.perf_counter() - t0
            )
            t0 = time.perf_counter()
            self.cache.put_mesh(keys[1], result)
            reg.histogram("service.stage.cache_seconds").observe(
                time.perf_counter() - t0
            )
            return result
        finally:
            self.cache.unpin_mesh(keys[1])

    def _run_mesher(self, job: Job, request: MeshRequest) -> MeshResult:
        """Dispatch one mesher run to the active executor: a worker
        process, or the served table on the claiming thread."""
        if request.resolved_shards() > 1:
            from repro.delaunay.shard import ShardingUnavailable
            from repro.service.shards import run_sharded_job

            try:
                return run_sharded_job(self, job, request)
            except ShardingUnavailable:
                pass  # the plain path below is equivalent
        pool = self._proc_pool
        if pool is not None:
            self.registry.counter("service.jobs.remote").inc()
            return pool.run(request, deadline=job.deadline)
        return self.meshers[request.resolved_mesher()].mesh(request)

    # -- reporting -----------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """Registry snapshot with live queue/cache gauges folded in."""
        reg = self.registry
        reg.gauge("service.queue.depth").set(len(self.queue))
        reg.gauge("service.workers.alive").set(self.pool.alive_workers)
        reg.gauge("service.executor.process").set(
            1 if self.executor == "process" else 0
        )
        if self._proc_pool is not None:
            reg.gauge("service.procworkers.alive").set(
                self._proc_pool.alive_workers
            )
            reg.gauge("service.procworkers.spawned").set(
                self._proc_pool.spawned_total
            )
        cache_stats = self.cache.stats_snapshot()
        for name, value in cache_stats.items():
            reg.gauge(f"service.cache.store.{name}").set(value)
        reg.gauge("service.cache.evictions").set(cache_stats["evictions"])
        reg.gauge("service.cache.bytes_held").set(
            cache_stats["bytes_held"])
        snap = reg.snapshot()
        snap["slo"] = self.slo.snapshot()
        return snap
