"""Unit tests for the worker loop's protocol glue (stubbed domain).

These isolate the Algorithm-1 logic — PEL draining, rollback handling,
work donation, termination — from the geometry by substituting a fake
domain whose refine_tet behaviour is scripted.
"""

from typing import List

import pytest

from repro.core.domain import OperationResult
from repro.core.pel import PoorElementList
from repro.delaunay import RollbackSignal
from repro.delaunay.mesh import MeshArrays
from repro.runtime.begging import BeggingList
from repro.runtime.contention import make_contention_manager
from repro.runtime.placement import flat_placement
from repro.runtime.shared import SharedState
from repro.runtime.stats import ThreadStats
from repro.runtime.worker import WorkerEnv, refinement_worker


class InlineContext:
    """Single-threaded context: waits assert their predicate holds."""

    def __init__(self, tid=0):
        self.thread_id = tid
        self.stats = ThreadStats(thread_id=tid)
        self.op_locks: List[int] = []

    def try_lock_vertex(self, vid):
        self.op_locks.append(vid)
        return -1

    def touch_vertex(self, vid):
        self.try_lock_vertex(vid)

    def commit_operation(self, cost):
        self.stats.busy_time += cost
        self.op_locks.clear()

    def abort_operation(self, wasted):
        self.op_locks.clear()

    def now(self):
        return 0.0

    def wait_until(self, pred, kind):
        assert pred(), "single-threaded test would deadlock"

    def sleep(self, seconds, kind):
        pass

    def charge(self, seconds):
        pass

    def make_mutex(self):
        import threading

        return threading.Lock()

    def random(self):
        return 0.5


class ScriptedDomain:
    """Fake domain: each refine_tet consumes a script entry."""

    def __init__(self, mesh, script):
        class _Tri:
            pass

        self.tri = _Tri()
        self.tri.mesh = mesh
        self.script = list(script)
        self.refined = []
        self.vertex_creator = {}

    def refine_tet(self, t, touch=None):
        self.refined.append(t)
        if not self.script:
            return OperationResult(rule="none", skipped=True)
        action = self.script.pop(0)
        if action == "rollback":
            raise RollbackSignal(owner=1)
        if isinstance(action, tuple) and action[0] == "spawn":
            return OperationResult(rule="R2", inserted_vertex=99,
                                   new_tets=list(action[1]))
        return OperationResult(rule="none", skipped=True)


def make_env(mesh, domain, n_threads=1, cm="local"):
    shared = SharedState(n_threads)
    manager = make_contention_manager(cm, n_threads, shared)
    bl = BeggingList(n_threads, shared, flat_placement(n_threads))
    pels = [PoorElementList(mesh) for _ in range(n_threads)]
    env = WorkerEnv(
        domain=domain,
        pels=pels,
        cm=manager,
        bl=bl,
        shared=shared,
        placement=flat_placement(n_threads),
        cost_of=lambda result, elapsed, ctx: 1e-6,
    )
    return env


def tiny_mesh(n_tets=6):
    mesh = MeshArrays()
    for i in range(4 + n_tets):
        mesh.add_vertex((float(i), 0.0, 0.0))
    return mesh, [mesh.add_tet((0, 1, 2, 3 + i)) for i in range(n_tets)]


class TestWorkerLoop:
    def test_drains_pel_and_terminates(self):
        mesh, tets = tiny_mesh(3)
        domain = ScriptedDomain(mesh, ["skip", "skip", "skip"])
        env = make_env(mesh, domain)
        for t in tets:
            env.pels[0].push(t)
        ctx = InlineContext(0)
        refinement_worker(ctx, env)
        assert env.shared.done
        assert domain.refined == tets
        assert ctx.stats.n_operations == 3

    def test_rollback_requeues_element(self):
        mesh, tets = tiny_mesh(1)
        domain = ScriptedDomain(mesh, ["rollback", "skip"])
        env = make_env(mesh, domain)
        env.pels[0].push(tets[0])
        ctx = InlineContext(0)
        refinement_worker(ctx, env)
        # The element was retried after the rollback.
        assert domain.refined == [tets[0], tets[0]]
        assert ctx.stats.n_rollbacks == 1
        assert ctx.stats.n_operations == 1

    def test_new_poor_elements_requeued(self):
        mesh, tets = tiny_mesh(4)
        spawn = tets[1:3]
        domain = ScriptedDomain(mesh, [("spawn", spawn), "skip", "skip"])
        env = make_env(mesh, domain)
        env.pels[0].push(tets[0])
        ctx = InlineContext(0)
        refinement_worker(ctx, env)
        assert set(domain.refined) == {tets[0], *spawn}
        assert ctx.stats.n_insertions == 1

    def test_stale_entries_not_refined(self):
        mesh, tets = tiny_mesh(2)
        domain = ScriptedDomain(mesh, ["skip"])
        env = make_env(mesh, domain)
        env.pels[0].push(tets[0])
        env.pels[0].push(tets[1])
        mesh.kill_tet(tets[1])
        ctx = InlineContext(0)
        refinement_worker(ctx, env)
        assert domain.refined == [tets[0]]

    def test_wake_blocked_dispatch(self):
        mesh, _ = tiny_mesh(1)
        domain = ScriptedDomain(mesh, [])
        env = make_env(mesh, domain, cm="global")
        # GlobalCM with nothing parked: escape hatch reports False.
        assert env.wake_blocked() is False
        env_local = make_env(mesh, domain, cm="local")
        assert env_local.wake_blocked() is False
        env_rand = make_env(mesh, domain, cm="random")
        assert env_rand.wake_blocked() is False
