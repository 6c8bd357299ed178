"""Begging-list load balancers (paper Sections 4.4 and 6.1).

Idle threads register on a begging list and busy-wait; running threads,
after each completed operation, hand freshly classified poor elements to
the first beggar.  Two organisations are provided:

* :class:`BeggingList` — the classic flat Random Work Stealing (RWS)
  baseline: one global FIFO;
* :class:`HierarchicalBeggingList` — HWS: three levels (socket blade
  machine).  A beggar parks at the lowest level that still has room for
  it, and givers serve BL1 (own socket) before BL2 (own blade) before
  BL3, which is what cuts inter-blade traffic by ~29% in Figure 5b.

Termination: a thread about to beg deactivates via the shared active
counter.  The last active thread may not park: it first tries to wake a
contention-manager-blocked thread (the paper's escape hatch), and if
there is nothing to wake and no work anywhere it declares global
termination and releases every beggar.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.runtime.context import ExecutionContext
from repro.runtime.placement import Placement
from repro.runtime.shared import SharedState
from repro.runtime.stats import OverheadKind

# A thread may only give work away while it retains at least this many
# live poor elements (Section 4.4; "we set that threshold equal to 5").
GIVE_THRESHOLD = 5


class BeggingList:
    """Flat global begging list — Random Work Stealing (RWS)."""

    name = "rws"

    def __init__(self, n_threads: int, shared: SharedState,
                 placement: Optional[Placement] = None):
        self.n_threads = n_threads
        self.shared = shared
        self.placement = placement
        self._queue: Deque[int] = deque()
        self._got_work = [False] * n_threads

    # -- beggar side ----------------------------------------------------
    def beg(self, ctx: ExecutionContext,
            wake_blocked: Callable[[], bool]) -> bool:
        """Park until work arrives.  Returns False on global termination.

        ``wake_blocked`` is the escape hatch that releases a thread from
        a contention list when the caller is the last active thread.
        """
        i = ctx.thread_id
        while True:
            if self.shared.done:
                return False
            if self.shared.try_deactivate_unless_last():
                break
            # Last active thread: wake someone blocked on a contention
            # list so the system keeps running (wakers transfer activity
            # to the woken thread); if nobody is blocked, every other
            # thread is begging and there is no work left anywhere.
            if not wake_blocked():
                self.shared.done = True
                return False
        self._got_work[i] = False
        self._enqueue(i)
        obs = self.shared.obs
        traced = obs is not None and obs.tracer.enabled
        if obs is not None:
            obs.registry.counter("lb.begs").inc()
        if traced:
            obs.tracer.begin("beg", i, ctx.now())
        ctx.wait_until(
            lambda: self._got_work[i] or self.shared.done,
            OverheadKind.LOAD_BALANCE,
        )
        if traced:
            obs.tracer.end("beg", i, ctx.now())
        got = self._got_work[i]
        if got and obs is not None:
            obs.registry.counter("lb.work_received").inc()
        return got or not self.shared.done

    # -- giver side -----------------------------------------------------
    def pop_beggar(self, giver: int) -> Optional[int]:
        """Pick the beggar the giver should serve (FIFO for RWS)."""
        if self._queue:
            try:
                return self._queue.popleft()
            except IndexError:
                return None
        return None

    def wake(self, beggar: int) -> None:
        """Signal that work has been pushed to the beggar's PEL.

        The waker transfers activity: the beggar deactivated when it
        parked, and re-counting it here (not when it resumes) keeps the
        last-active-thread test sound under any interleaving.
        """
        self.shared.activate()
        self._got_work[beggar] = True

    @property
    def n_waiting(self) -> int:
        return len(self._queue)

    # -- internals ------------------------------------------------------
    def _enqueue(self, i: int) -> None:
        self._queue.append(i)


class HierarchicalBeggingList(BeggingList):
    """Three-level begging list (HWS, Section 6.1).

    BL1 is per socket with room for ``threads_per_socket - 1`` beggars,
    BL2 per blade with room for ``sockets_per_blade - 1``, BL3 global
    with room for one beggar per blade.  Givers serve their own socket's
    BL1 first, then their blade's BL2, then BL3.
    """

    name = "hws"

    def __init__(self, n_threads: int, shared: SharedState,
                 placement: Placement):
        super().__init__(n_threads, shared, placement)
        self.bl1: Dict[int, Deque[int]] = {}
        self.bl2: Dict[int, Deque[int]] = {}
        self.bl3: Deque[int] = deque()
        self._level_of: Dict[int, Tuple[int, int]] = {}

    def _enqueue(self, i: int) -> None:
        pl = self.placement
        sock = pl.socket_of(i)
        blade = pl.blade_of(i)
        q1 = self.bl1.setdefault(sock, deque())
        if len(q1) < pl.threads_per_socket - 1:
            q1.append(i)
            self._level_of[i] = (1, sock)
            return
        q2 = self.bl2.setdefault(blade, deque())
        if len(q2) < pl.sockets_per_blade - 1:
            q2.append(i)
            self._level_of[i] = (2, blade)
            return
        self.bl3.append(i)
        self._level_of[i] = (3, 0)

    def pop_beggar(self, giver: int) -> Optional[int]:
        pl = self.placement
        q1 = self.bl1.get(pl.socket_of(giver))
        if q1:
            try:
                i = q1.popleft()
                self._level_of.pop(i, None)
                return i
            except IndexError:
                pass
        q2 = self.bl2.get(pl.blade_of(giver))
        if q2:
            try:
                i = q2.popleft()
                self._level_of.pop(i, None)
                return i
            except IndexError:
                pass
        if self.bl3:
            try:
                i = self.bl3.popleft()
                self._level_of.pop(i, None)
                return i
            except IndexError:
                pass
        return None

    @property
    def n_waiting(self) -> int:
        return (
            sum(len(q) for q in self.bl1.values())
            + sum(len(q) for q in self.bl2.values())
            + len(self.bl3)
        )


_LISTS = {cls.name: cls for cls in (BeggingList, HierarchicalBeggingList)}
#: The load balancers' names, as a request spells them.
LB_NAMES = tuple(_LISTS)


def make_begging_list(name: str, n_threads: int, shared: SharedState,
                      placement: Placement) -> BeggingList:
    """Factory keyed by the load balancers' names."""
    try:
        cls = _LISTS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown load balancer {name!r}; pick from {LB_NAMES}"
        ) from None
    return cls(n_threads, shared, placement)
