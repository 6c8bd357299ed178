"""The four contention managers of Section 5.

All managers expose the same two entry points, called by the worker
loop after each attempted operation:

* :meth:`ContentionManager.on_rollback` — the operation aborted because
  a vertex was owned by ``conflicting_id``; the manager may block the
  calling thread;
* :meth:`ContentionManager.on_success` — the operation committed; the
  manager may wake threads it previously blocked.

Blocking always goes through ``ctx.wait_until(...)`` so both execution
backends account the waited time as *contention overhead*.

Managers and their guarantees (paper Table 1):

==============  ========== =========================================
manager         blocking?  guarantees
==============  ========== =========================================
Aggressive-CM   no         none (livelocks observed in practice)
Random-CM       no         none (livelocks rare but possible)
Global-CM       yes        deadlock-free and livelock-free (proven)
Local-CM        semi       deadlock-free and livelock-free (Lemmas 1-2)
==============  ========== =========================================
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, List, Optional

from repro.runtime.context import ExecutionContext
from repro.runtime.shared import SharedState
from repro.runtime.stats import OverheadKind

_NO_DEP = -1


class ContentionManager(ABC):
    """Interface + shared bookkeeping for all contention managers."""

    name = "abstract"

    def __init__(self, n_threads: int, shared: SharedState):
        self.n_threads = n_threads
        self.shared = shared

    @abstractmethod
    def on_rollback(self, ctx: ExecutionContext, conflicting_id: int) -> None:
        ...

    @abstractmethod
    def on_success(self, ctx: ExecutionContext) -> None:
        ...

    # -- observability hooks -------------------------------------------
    def _blocked_wait(self, ctx: ExecutionContext, predicate) -> None:
        """Park ``ctx`` on a contention list, tracing the blocked span
        and counting the block so the metrics registry sees every CM
        decision (not just the waited seconds)."""
        obs = self.shared.obs
        traced = obs is not None and obs.tracer.enabled
        if obs is not None:
            obs.registry.counter("cm.blocks").inc()
        if traced:
            obs.tracer.begin("cm.blocked", ctx.thread_id, ctx.now())
        ctx.wait_until(predicate, OverheadKind.CONTENTION)
        if traced:
            obs.tracer.end("cm.blocked", ctx.thread_id, ctx.now())


class AggressiveCM(ContentionManager):
    """Brute force: discard the changes and immediately retry.

    Exists to demonstrate that reducing rollbacks "is not just a matter
    of performance, but a matter of correctness" — it livelocks on high
    core counts (Table 1)."""

    name = "aggressive"

    def on_rollback(self, ctx: ExecutionContext, conflicting_id: int) -> None:
        pass

    def on_success(self, ctx: ExecutionContext) -> None:
        pass


class RandomCM(ContentionManager):
    """Randomised backoff (Section 5.2).

    After ``r_plus`` consecutive rollbacks the thread sleeps for a
    uniform random 1..r_plus milliseconds.  Randomness usually breaks
    livelocks but provably cannot always (and Table 1b catches it
    livelocking at 256 cores)."""

    name = "random"

    def __init__(self, n_threads: int, shared: SharedState, r_plus: int = 5):
        super().__init__(n_threads, shared)
        self.r_plus = r_plus
        self._consecutive = [0] * n_threads

    def on_rollback(self, ctx: ExecutionContext, conflicting_id: int) -> None:
        i = ctx.thread_id
        self._consecutive[i] += 1
        if self._consecutive[i] > self.r_plus:
            millis = 1.0 + ctx.random() * (self.r_plus - 1)
            obs = self.shared.obs
            if obs is not None:
                obs.registry.counter("cm.backoffs").inc()
                if obs.tracer.enabled:
                    obs.tracer.instant("cm.backoff", i, ctx.now(),
                                       millis=millis)
            ctx.sleep(millis * 1e-3, OverheadKind.CONTENTION)

    def on_success(self, ctx: ExecutionContext) -> None:
        self._consecutive[ctx.thread_id] = 0


class GlobalCM(ContentionManager):
    """One global FIFO Contention List (Section 5.3).

    A rolled-back thread parks on the global CL; threads that complete
    ``s_plus`` consecutive operations wake the CL head.  The active
    counter forbids the last active thread from parking, which yields
    the deadlock-freedom proof."""

    name = "global"

    def __init__(self, n_threads: int, shared: SharedState, s_plus: int = 10):
        super().__init__(n_threads, shared)
        self.s_plus = s_plus
        self._successes = [0] * n_threads
        self._blocked_flag = [False] * n_threads
        self._cl: Deque[int] = deque()

    def on_rollback(self, ctx: ExecutionContext, conflicting_id: int) -> None:
        i = ctx.thread_id
        self._successes[i] = 0
        if not self.shared.try_deactivate_unless_last():
            return  # last active thread: forbidden to block
        self._blocked_flag[i] = True
        self._cl.append(i)
        self._blocked_wait(ctx, lambda: not self._blocked_flag[i])

    def on_success(self, ctx: ExecutionContext) -> None:
        i = ctx.thread_id
        self._successes[i] += 1
        if self._successes[i] > self.s_plus:
            self.wake_one()

    def wake_one(self) -> bool:
        """Release the CL head (also used by the begging list's
        last-active-thread escape hatch).  Returns True if woken."""
        if self._cl:
            j = self._cl.popleft()
            # Wakers transfer activity to the thread they release.
            self.shared.activate()
            self._blocked_flag[j] = False
            return True
        return False


class LocalCM(ContentionManager):
    """Distributed contention lists with cycle breaking (Section 5.4).

    Thread state follows Figure 2 exactly: ``conflicting_id`` records the
    dependency edge, ``busy_wait`` is the park flag, and the pairwise
    mutex acquisition in increasing id order makes the block/no-block
    decision atomic per edge.  Lemma 1 (some thread in a dependency
    cycle does not block) gives deadlock freedom; Lemma 2 (some thread
    blocks) gives livelock freedom.
    """

    name = "local"

    def __init__(self, n_threads: int, shared: SharedState, s_plus: int = 10):
        super().__init__(n_threads, shared)
        self.s_plus = s_plus
        self._s = [0] * n_threads
        self._conflicting_id = [_NO_DEP] * n_threads
        self._busy_wait = [False] * n_threads
        self._cl: List[Deque[int]] = [deque() for _ in range(n_threads)]
        self._mutexes = [None] * n_threads  # created lazily per backend
        self._mutexes_lock = threading.Lock()

    def _mutex(self, ctx: ExecutionContext, i: int):
        """The one mutex of thread ``i``, made by the first caller's
        backend; two first callers racing get the same object."""
        if self._mutexes[i] is None:
            with self._mutexes_lock:
                if self._mutexes[i] is None:
                    self._mutexes[i] = ctx.make_mutex()
        return self._mutexes[i]

    def on_rollback(self, ctx: ExecutionContext, conflicting_id: int) -> None:
        i = ctx.thread_id
        self._s[i] = 0
        if (conflicting_id < 0 or conflicting_id == i
                or conflicting_id >= self.n_threads):
            return  # no (usable) dependency edge: just retry
        self._conflicting_id[i] = conflicting_id

        # Figure 2c lines 4-5: acquire both mutexes in increasing id
        # order so decisions on a dependency edge are serialised.
        lo, hi = sorted((i, conflicting_id))
        m_lo = self._mutex(ctx, lo)
        m_hi = self._mutex(ctx, hi)
        m_lo.acquire()
        m_hi.acquire()
        try:
            if self._busy_wait[conflicting_id]:
                # The thread we depend on has itself decided to block: we
                # must not block too, or a cycle could deadlock (line 6-10).
                self._conflicting_id[i] = _NO_DEP
                return
            if not self.shared.try_deactivate_unless_last():
                self._conflicting_id[i] = _NO_DEP
                return
            self._busy_wait[i] = True
            self._cl[conflicting_id].append(i)
        finally:
            m_hi.release()
            m_lo.release()

        self._blocked_wait(ctx, lambda: not self._busy_wait[i])
        self._conflicting_id[i] = _NO_DEP

    def on_success(self, ctx: ExecutionContext) -> None:
        i = ctx.thread_id
        self._s[i] += 1
        if self._s[i] > self.s_plus:
            self.wake_one(i)

    def wake_one(self, i: int) -> bool:
        cl = self._cl[i]
        if cl:
            j = cl.popleft()
            # Wakers transfer activity to the thread they release.
            self.shared.activate()
            self._busy_wait[j] = False
            return True
        return False

    def wake_any(self) -> bool:
        """Wake a thread from any CL (the last-active escape hatch the
        begging list uses before it parks)."""
        for i in range(self.n_threads):
            if self.wake_one(i):
                return True
        return False


_MANAGERS = {cls.name: cls
             for cls in (AggressiveCM, RandomCM, GlobalCM, LocalCM)}
#: The paper's CM names, as a request spells them.
CM_NAMES = tuple(_MANAGERS)


def make_contention_manager(name: str, n_threads: int, shared: SharedState,
                            **kwargs) -> ContentionManager:
    """Factory keyed by the paper's CM names."""
    try:
        cls = _MANAGERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown contention manager {name!r}; pick from {CM_NAMES}"
        ) from None
    return cls(n_threads, shared, **kwargs)
