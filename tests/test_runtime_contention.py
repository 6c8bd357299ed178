"""Unit tests for the contention managers (protocol level).

These drive the CM protocol with a scripted fake context — no engine,
no mesh — to verify the paper's Figure 2 state machine, the Lemma 1/2
properties on constructed dependency cycles, and the bookkeeping of all
four managers.
"""

import threading
import time
from collections import deque

import pytest

from repro.runtime.contention import (
    AggressiveCM,
    GlobalCM,
    LocalCM,
    RandomCM,
    make_contention_manager,
)
from repro.runtime.shared import SharedState
from repro.runtime.stats import OverheadKind, ThreadStats


class FakeMutex:
    def __init__(self):
        self.held = False

    def acquire(self):
        assert not self.held, "re-entrant acquire in single-threaded test"
        self.held = True

    def release(self):
        self.held = False


class FakeContext:
    """Single-threaded scripted context: waits return immediately but are
    recorded, so tests can assert who blocked."""

    def __init__(self, thread_id, cm=None):
        self.thread_id = thread_id
        self.stats = ThreadStats(thread_id=thread_id)
        self.waited = []
        self.slept = []
        self._rand = 0.5

    def wait_until(self, predicate, kind):
        self.waited.append(kind)
        # Tests release the flag before/after; emulate an instant wake.

    def sleep(self, seconds, kind):
        self.slept.append((seconds, kind))

    def make_mutex(self):
        return FakeMutex()

    def random(self):
        return self._rand


def make(name, n=4, **kw):
    shared = SharedState(n)
    return make_contention_manager(name, n, shared, **kw), shared


class TestFactory:
    def test_all_names(self):
        for name, cls in [
            ("aggressive", AggressiveCM),
            ("random", RandomCM),
            ("global", GlobalCM),
            ("local", LocalCM),
        ]:
            cm, _ = make(name)
            assert isinstance(cm, cls)
            assert cm.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make("optimistic")


class TestAggressive:
    def test_never_blocks(self):
        cm, _ = make("aggressive")
        ctx = FakeContext(0)
        for _ in range(100):
            cm.on_rollback(ctx, 1)
        assert ctx.waited == []
        assert ctx.slept == []


class TestRandom:
    def test_sleeps_after_r_plus_consecutive(self):
        cm, _ = make("random", r_plus=5)
        ctx = FakeContext(0)
        for _ in range(5):
            cm.on_rollback(ctx, 1)
        assert ctx.slept == []
        cm.on_rollback(ctx, 1)  # 6th consecutive
        assert len(ctx.slept) == 1
        secs, kind = ctx.slept[0]
        assert kind == OverheadKind.CONTENTION
        assert 1e-3 <= secs <= 5e-3  # paper: 1..r_plus milliseconds

    def test_success_resets_counter(self):
        cm, _ = make("random", r_plus=3)
        ctx = FakeContext(0)
        for _ in range(3):
            cm.on_rollback(ctx, 1)
        cm.on_success(ctx)
        for _ in range(3):
            cm.on_rollback(ctx, 1)
        assert ctx.slept == []


class TestGlobal:
    def test_blocks_on_rollback(self):
        cm, shared = make("global")
        ctx = FakeContext(1)
        cm.on_rollback(ctx, 2)
        assert ctx.waited == [OverheadKind.CONTENTION]
        assert shared.active == 3  # deactivated while blocked

    def test_last_active_thread_never_blocks(self):
        cm, shared = make("global", n=2)
        ctx0, ctx1 = FakeContext(0), FakeContext(1)
        cm.on_rollback(ctx0, 1)     # blocks; active 2 -> 1
        cm.on_rollback(ctx1, 0)     # last active: forbidden to block
        assert ctx1.waited == []
        assert shared.active == 1

    def test_wake_after_s_plus_successes(self):
        cm, shared = make("global", s_plus=3)
        blocked = FakeContext(1)
        cm.on_rollback(blocked, 2)
        assert cm._blocked_flag[1]
        runner = FakeContext(0)
        for _ in range(3):
            cm.on_success(runner)
        assert cm._blocked_flag[1]  # not yet: needs > s_plus
        cm.on_success(runner)
        assert not cm._blocked_flag[1]  # woken in FIFO order
        assert shared.active == 4       # waker transferred activity back

    def test_fifo_order(self):
        cm, _ = make("global", s_plus=0, n=8)
        for tid in (3, 5, 1):
            cm.on_rollback(FakeContext(tid), 0)
        runner = FakeContext(0)
        cm.on_success(runner)
        assert not cm._blocked_flag[3]
        assert cm._blocked_flag[5] and cm._blocked_flag[1]
        cm.on_success(runner)
        assert not cm._blocked_flag[5]


class TestLocal:
    def test_records_dependency_and_blocks(self):
        cm, shared = make("local")
        ctx1 = FakeContext(1)
        cm.on_rollback(ctx1, 2)
        assert ctx1.waited == [OverheadKind.CONTENTION]
        assert 1 in cm._cl[2]
        assert cm._busy_wait[1]

    def test_cycle_breaking_second_thread_does_not_block(self):
        # T1 -> T2 blocks; then T2 -> T1 must NOT block (Figure 2c line 6).
        cm, _ = make("local")
        ctx1, ctx2 = FakeContext(1), FakeContext(2)
        cm.on_rollback(ctx1, 2)
        assert cm._busy_wait[1]
        cm.on_rollback(ctx2, 1)
        assert not cm._busy_wait[2]
        assert ctx2.waited == []  # returned without blocking

    def test_lemma1_no_full_cycle_blocks(self):
        # Drive a 3-cycle T0->T1->T2->T0 sequentially: at least one
        # thread must end up not blocked (absence of deadlock).
        cm, _ = make("local")
        ctxs = [FakeContext(i) for i in range(3)]
        cm.on_rollback(ctxs[0], 1)
        cm.on_rollback(ctxs[1], 2)
        cm.on_rollback(ctxs[2], 0)
        blocked = [cm._busy_wait[i] for i in range(3)]
        assert not all(blocked)

    def test_lemma2_someone_blocks(self):
        # ... and at least one thread must block (absence of livelock),
        # because the first edge always parks its source.
        cm, _ = make("local")
        ctxs = [FakeContext(i) for i in range(3)]
        cm.on_rollback(ctxs[0], 1)
        cm.on_rollback(ctxs[1], 2)
        cm.on_rollback(ctxs[2], 0)
        assert any(cm._busy_wait[i] for i in range(3))

    def test_success_wakes_own_cl(self):
        cm, shared = make("local", s_plus=2)
        victim = FakeContext(3)
        cm.on_rollback(victim, 0)
        assert cm._busy_wait[3]
        runner = FakeContext(0)
        for _ in range(3):
            cm.on_success(runner)
        assert not cm._busy_wait[3]

    def test_wake_any_scans_all_lists(self):
        cm, _ = make("local")
        victim = FakeContext(2)
        cm.on_rollback(victim, 3)
        assert cm.wake_any()
        assert not cm._busy_wait[2]
        assert not cm.wake_any()  # nothing left

    def test_self_conflict_ignored(self):
        cm, _ = make("local")
        ctx = FakeContext(1)
        cm.on_rollback(ctx, 1)
        assert ctx.waited == []

    def test_mutexes_released_after_decision(self):
        cm, _ = make("local")
        ctx = FakeContext(1)
        cm.on_rollback(ctx, 2)
        for m in cm._mutexes:
            if m is not None:
                assert not m.held

    def test_racing_first_callers_get_one_mutex(self):
        # The mutex of an index is made on first use; a backend whose
        # make_mutex takes a while must not hand two first callers two
        # different mutexes for it (they would both "hold" it).
        cm, _ = make("local")

        class SlowContext(FakeContext):
            def make_mutex(self):
                time.sleep(0.05)
                return FakeMutex()

        barrier = threading.Barrier(2)
        got = [None, None]

        def first_use(k):
            ctx = SlowContext(k)
            barrier.wait(timeout=10.0)
            got[k] = cm._mutex(ctx, 3)

        threads = [threading.Thread(target=first_use, args=(k,))
                   for k in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10.0)
            assert not th.is_alive()
        assert got[0] is not None and got[0] is got[1]
        assert got[0] is cm._mutex(FakeContext(0), 3)


class TestSharedState:
    def test_activate_deactivate(self):
        s = SharedState(4)
        assert s.active == 4
        s.deactivate()
        assert s.active == 3
        s.activate()
        assert s.active == 4

    def test_try_deactivate_unless_last(self):
        s = SharedState(2)
        assert s.try_deactivate_unless_last()
        assert not s.try_deactivate_unless_last()
        assert s.active == 1
