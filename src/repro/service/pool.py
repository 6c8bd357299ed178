"""Worker pools: queue-draining threads, and meshing processes.

:class:`WorkerPool` is deliberately dumb — it pulls jobs and hands
them to the processing callable (the service's ``_process``), which
owns claiming, deadlines, retries and metrics.  The loop survives
anything the processor lets escape: an unexpected exception fails the
job with its traceback and is counted, but never kills the thread, so
one poisoned request cannot take a worker slot out of service.

:class:`ProcessWorkerPool` adds the process executor underneath that
same thread pool: the claiming thread checks out a worker *slot* — a
lazily-spawned OS process paired over a duplex pipe — ships the job's
payload, and blocks on the reply while the child meshes; the result
comes back over the same pipe (:mod:`repro.service.procworker`).  Each
worker is spawned with the service's table of served meshers, so the
payload names a mesher and never carries one.  The parent keeps
everything stateful (cache lookups, the CAS claim, retry/backoff,
metrics); the child holds no job state a crash could lose and nothing
outside its own address space, so a dead worker leaves nothing to
clean up.

Failure taxonomy seen by the service:

* :class:`DeadlineKilled` — the job's deadline passed while the child
  meshed; the child is killed (``SIGKILL``) and the job concluded
  ``TIMED_OUT``.  Threads cannot do this: a wedged C-level mesher is
  unkillable in-process, a worker process is not.
* :class:`WorkerCrashed` — the child died mid-job (OOM kill,
  segfault, ``os._exit``); job ``FAILED``, slot respawned on next use.
* :class:`~repro.service.jobs.TransientMeshError` — re-raised
  verbatim in the parent so the bounded-retry path applies unchanged.
* :class:`RemoteMeshError` — any other child-side exception, carrying
  the remote traceback.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.service import procworker
from repro.service.jobs import Job, JobState, TransientMeshError
from repro.service.queue import JobQueue

_POLL_SECONDS = 0.1


class WorkerPool:
    """Fixed-size thread pool wired to a :class:`JobQueue`."""

    def __init__(self, queue: JobQueue, process: Callable[[Job], None],
                 n_workers: int, name: str = "mesh-worker",
                 on_crash: Optional[Callable[[Job, str], None]] = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.queue = queue
        self.process = process
        self.n_workers = n_workers
        self.name = name
        self.on_crash = on_crash
        self._threads: List[threading.Thread] = []
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._loop, name=f"{self.name}-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def _loop(self) -> None:
        queue = self.queue
        while True:
            job = queue.get(timeout=_POLL_SECONDS)
            if job is None:
                if queue.closed:
                    return
                continue
            try:
                self.process(job)
            except BaseException:
                # The processor is supposed to catch everything; this is
                # the belt-and-braces layer that keeps the worker alive.
                tb = traceback.format_exc()
                job.finish(JobState.FAILED, error=tb)
                if self.on_crash is not None:
                    self.on_crash(job, tb)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every worker to exit (requires a closed queue)."""
        deadline = None
        if timeout is not None:
            deadline = time.monotonic() + timeout
        for t in self._threads:
            if deadline is None:
                t.join()
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                t.join(remaining)
        return all(not t.is_alive() for t in self._threads)

    @property
    def alive_workers(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())


# ---------------------------------------------------------------------------
# process executor
# ---------------------------------------------------------------------------

class DeadlineKilled(RuntimeError):
    """The worker process was killed because the job's deadline passed."""


class WorkerCrashed(RuntimeError):
    """The worker process died mid-job (exit, signal, OOM)."""


class RemoteMeshError(RuntimeError):
    """A non-transient exception escaped the mesher in the worker
    process; the message is the remote traceback."""


class _WorkerSlot:
    """One lazily-spawned worker process + its parent-side pipe end."""

    def __init__(self, pool: "ProcessWorkerPool", idx: int):
        self.pool = pool
        self.idx = idx
        self.proc = None
        self.conn = None
        self.spawned = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def ensure_started(self) -> None:
        if self.alive:
            return
        self.discard()
        ctx = self.pool._ctx
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=procworker.worker_main,
            args=(child_conn, self.pool.meshers),
            name=f"{self.pool.name}-{self.idx}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.proc, self.conn = proc, parent_conn
        self.spawned += 1

    def discard(self) -> None:
        """Forget the current process (it is dead or being killed)."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        self.proc, self.conn = None, None

    def kill(self) -> None:
        proc = self.proc
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(5.0)
        self.discard()

    def run(self, payload: dict, deadline: Optional[float]):
        """Ship one job and await its reply."""
        self.ensure_started()
        try:
            self.conn.send(("run", payload))
        except (BrokenPipeError, OSError) as exc:
            self.kill()
            raise WorkerCrashed(f"worker pipe broken at send: {exc}")
        kind, reply = self._await_reply(deadline)
        if kind == "ok":
            return reply
        if kind == "transient":
            raise TransientMeshError(reply)
        raise RemoteMeshError(reply)

    def _await_reply(self, deadline: Optional[float]):
        conn, proc = self.conn, self.proc
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.kill()
                    raise DeadlineKilled(
                        "deadline expired during run; worker killed"
                    )
                step = min(0.05, remaining)
            else:
                step = 0.05
            try:
                if conn.poll(step):
                    return conn.recv()
            except (EOFError, OSError):
                self.kill()
                raise WorkerCrashed("worker pipe closed mid-job")
            if not proc.is_alive():
                # Grab a reply that raced the exit, if any.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                code = proc.exitcode
                self.kill()
                raise WorkerCrashed(
                    f"worker process died mid-job (exit code {code})"
                )


class ProcessWorkerPool:
    """N worker-process slots checked out by the service's threads.

    ``meshers`` is the service's table of served meshers; every worker
    is spawned with a pickled copy of it.  Slots spawn lazily (a
    thread-only workload never pays process startup) and respawn lazily
    after a crash or deadline kill.
    """

    def __init__(self, n_workers: int, meshers: Dict[str, Any],
                 name: str = "mesh-procworker"):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.meshers = meshers
        self.name = name
        self._ctx = multiprocessing.get_context("spawn")
        self._slots = [_WorkerSlot(self, i) for i in range(n_workers)]
        self._free: List[_WorkerSlot] = list(self._slots)
        self._cond = threading.Condition()
        self._closed = False

    # -- execution -----------------------------------------------------
    def run(self, request, deadline: Optional[float] = None):
        """Run one request in a worker process; returns a MeshResult.

        Raises :class:`DeadlineKilled`, :class:`WorkerCrashed`,
        :class:`~repro.service.jobs.TransientMeshError` or
        :class:`RemoteMeshError` (see module docstring).
        """
        slot = self._checkout()
        try:
            return slot.run(procworker.build_payload(request), deadline)
        finally:
            self._checkin(slot)

    def run_shard(self, request, plan, block,
                  deadline: Optional[float] = None) -> dict:
        """Mesh one decomposition block in a worker process.

        Returns ``{"arrays": {"points", "kinds"}, "stats": {...}}``
        (see :func:`repro.delaunay.shard.refine_block`).  Failure
        taxonomy is identical to :meth:`run`.
        """
        slot = self._checkout()
        try:
            return slot.run(
                procworker.build_shard_payload(request, plan, block),
                deadline)
        finally:
            self._checkin(slot)

    def _checkout(self) -> _WorkerSlot:
        with self._cond:
            while not self._free:
                if self._closed:
                    raise RuntimeError("process pool is shut down")
                self._cond.wait(0.1)
            if self._closed:
                raise RuntimeError("process pool is shut down")
            return self._free.pop()

    def _checkin(self, slot: _WorkerSlot) -> None:
        with self._cond:
            self._free.append(slot)
            self._cond.notify()

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker process.

        Call after the claiming threads have drained (no job in
        flight): live workers get a polite ``exit`` message, then the
        stragglers are killed.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout
        for slot in self._slots:
            if slot.proc is None:
                continue
            if slot.proc.is_alive() and slot.conn is not None:
                try:
                    slot.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
            slot.proc.join(max(0.1, deadline - time.monotonic()))
            slot.kill()

    @property
    def alive_workers(self) -> int:
        return sum(1 for s in self._slots if s.alive)

    @property
    def spawned_total(self) -> int:
        return sum(s.spawned for s in self._slots)
