"""In-flight coalescing: one mesh run per key, race-free fan-out.

The acceptance criteria of the coalescing subsystem:

* K identical cold requests run exactly one mesh job
  (``service.coalesce.followers == K-1``) and every waiter receives a
  topology-identical result;
* a duplicate arriving while the leader is already RUNNING still
  joins it;
* a leader that fails (or times out) fans that failure to every
  waiter — nobody hangs;
* one waiter's cancel concludes only that waiter;
* cancelling a queued *leader* promotes a waiter instead of
  cancelling the crowd;
* a coalesced hit never double-pins the cache key.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import MeshRequest, SequentialMesher
from repro.imaging import sphere_phantom
from repro.service import (
    JobState,
    MeshingService,
    ServiceConfig,
)
from repro.service.keys import cache_keys


@pytest.fixture(scope="module")
def image():
    return sphere_phantom(12)


@pytest.fixture(scope="module")
def template_result(image):
    from repro.api import mesh
    return mesh(MeshRequest(image=image, delta=3.0, mesher="sequential"))


class GatedMesher:
    """Counts calls; optionally blocks on a gate or raises."""

    def __init__(self, result, gate=None, delay=0.0, raise_exc=None):
        self.result = result
        self.gate = gate
        self.delay = delay
        self.raise_exc = raise_exc
        self.calls = 0
        self._lock = threading.Lock()

    def mesh(self, request):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            self.gate.wait(10.0)
        if self.delay:
            time.sleep(self.delay)
        if self.raise_exc is not None:
            raise self.raise_exc
        return self.result


def fake_request(image, variant=0):
    """A request routed to the 'fake' mesher; each ``variant`` is its
    own request key."""
    return MeshRequest(image=image, delta=3.0 + 0.001 * variant,
                       mesher="fake")


def wait_running(job, timeout=5.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if job.state is JobState.RUNNING:
            return
        time.sleep(0.005)
    raise AssertionError(f"{job.id} never reached RUNNING ({job.state})")


def make_service(template_result, mesher=None, **cfg):
    """A started service serving ``sequential`` and ``mesher`` as
    ``fake``.  A :class:`GatedMesher` holds a lock and an event, which
    do not pickle into a worker process, so it runs the thread
    executor."""
    cfg.setdefault("n_workers", 2)
    cfg.setdefault("executor", "thread")
    meshers = {"sequential": SequentialMesher()}
    if mesher is not None:
        meshers["fake"] = mesher
    return MeshingService(ServiceConfig(**cfg), meshers=meshers).start()


class TestColdBurst:
    def test_k_identical_requests_one_run(self, image, template_result):
        """The headline number: K cold duplicates → one mesher call,
        K identical results, followers == K-1."""
        K = 8
        gate = threading.Event()
        mesher = GatedMesher(template_result, gate=gate)
        service = make_service(template_result, mesher, n_workers=4)
        try:
            jobs = [service.submit(fake_request(image)) for _ in range(K)]
            gate.set()
            for job in jobs:
                assert job.wait(30.0)
                assert job.state is JobState.DONE
            assert mesher.calls == 1
            first = jobs[0].result
            for job in jobs[1:]:
                np.testing.assert_array_equal(job.result.mesh.tets,
                                              first.mesh.tets)
                np.testing.assert_array_equal(job.result.mesh.vertices,
                                              first.mesh.vertices)
            snap = service.metrics_snapshot()
            counters = snap["counters"]
            assert counters["service.coalesce.leaders"] == 1
            assert counters["service.coalesce.followers"] == K - 1
            assert counters["service.jobs.completed"] == K
            fanout = snap["histograms"]["service.coalesce.fanout"]
            assert fanout["count"] == 1 and fanout["sum"] == K - 1
            # Exactly one job is the leader; the rest are marked.
            assert sum(1 for j in jobs if j.coalesced) == K - 1
            slo = snap["slo"]
            assert slo["tiers"]["coalesced"]["requests"] == K - 1
            assert slo["tiers"]["full_mesh"]["requests"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_distinct_requests_do_not_coalesce(self, image,
                                               template_result):
        service = make_service(template_result,
                               GatedMesher(template_result))
        try:
            a = service.submit(fake_request(image, variant=1))
            b = service.submit(fake_request(image, variant=2))
            assert a.wait(30.0) and b.wait(30.0)
            counters = service.metrics_snapshot()["counters"]
            assert counters.get("service.coalesce.followers", 0) == 0
        finally:
            service.shutdown()


class TestJoinWhileRunning:
    def test_duplicate_joins_running_leader(self, image, template_result):
        gate = threading.Event()
        mesher = GatedMesher(template_result, gate=gate)
        service = make_service(template_result, mesher, n_workers=1)
        try:
            leader = service.submit(fake_request(image))
            wait_running(leader)
            follower = service.submit(fake_request(image))
            key = cache_keys(fake_request(image))[1]
            assert service._coalesce.leader_for(key) is leader
            assert service._coalesce.waiters_for(key) == 1
            gate.set()
            assert follower.wait(30.0)
            assert follower.state is JobState.DONE
            assert follower.coalesced and follower.tier == "coalesced"
            assert mesher.calls == 1
        finally:
            gate.set()
            service.shutdown()


class TestFailureFanout:
    def test_leader_failure_reaches_every_waiter(self, image,
                                                 template_result):
        gate = threading.Event()
        mesher = GatedMesher(template_result, gate=gate,
                             raise_exc=ValueError("boom"))
        service = make_service(template_result, mesher,
                               n_workers=1, max_retries=0)
        try:
            leader = service.submit(fake_request(image))
            wait_running(leader)
            waiters = [service.submit(fake_request(image))
                       for _ in range(3)]
            gate.set()
            for job in waiters:
                assert job.wait(30.0), f"{job.id} hung on leader failure"
                assert job.state is JobState.FAILED
                assert "boom" in (job.error or "")
            counters = service.metrics_snapshot()["counters"]
            assert counters["service.jobs.failed"] == 4
        finally:
            gate.set()
            service.shutdown()

    def test_leader_timeout_reaches_every_waiter(self, image,
                                                 template_result):
        mesher = GatedMesher(template_result, delay=0.4)
        service = make_service(template_result, mesher, n_workers=1)
        try:
            leader = service.submit(fake_request(image), deadline=0.05)
            wait_running(leader)
            waiters = [service.submit(fake_request(image))
                       for _ in range(2)]
            for job in [leader] + waiters:
                assert job.wait(30.0)
                assert job.state is JobState.TIMED_OUT
            counters = service.metrics_snapshot()["counters"]
            assert counters["service.jobs.timed_out"] == 3
        finally:
            service.shutdown()


class TestWaiterCancel:
    def test_cancel_one_waiter_leaves_the_rest(self, image,
                                               template_result):
        gate = threading.Event()
        mesher = GatedMesher(template_result, gate=gate)
        service = make_service(template_result, mesher, n_workers=1)
        try:
            leader = service.submit(fake_request(image))
            wait_running(leader)
            waiters = [service.submit(fake_request(image))
                       for _ in range(3)]
            victim = waiters[1]
            assert service.cancel(victim.id) is True
            assert victim.state is JobState.CANCELLED
            # The leader is untouched and still running.
            assert leader.state is JobState.RUNNING
            gate.set()
            assert leader.wait(30.0)
            assert leader.state is JobState.DONE
            for job in (waiters[0], waiters[2]):
                assert job.wait(30.0)
                assert job.state is JobState.DONE
            assert victim.state is JobState.CANCELLED
            assert mesher.calls == 1
            snap = service.metrics_snapshot()
            # Fan-out counted only the two waiters actually notified.
            assert snap["histograms"]["service.coalesce.fanout"]["sum"] == 2
            assert snap["counters"]["service.jobs.cancelled"] == 1
            assert snap["counters"]["service.jobs.completed"] == 3
        finally:
            gate.set()
            service.shutdown()


class TestLeaderCancelPromotion:
    def test_queued_leader_cancel_promotes_a_waiter(self, image,
                                                    template_result):
        """Cancelling the first submitter must not strand the crowd:
        a queued follower is promoted and enqueued in its place."""
        gate = threading.Event()
        mesher = GatedMesher(template_result, gate=gate)
        service = make_service(template_result, mesher, n_workers=1)
        try:
            wedge = service.submit(fake_request(image, variant=99))
            wait_running(wedge)
            leader = service.submit(fake_request(image))
            waiters = [service.submit(fake_request(image))
                       for _ in range(2)]
            assert leader.state is JobState.QUEUED
            assert service.cancel(leader.id) is True
            assert leader.state is JobState.CANCELLED
            gate.set()
            for job in waiters:
                assert job.wait(30.0), f"{job.id} stranded by leader cancel"
                assert job.state is JobState.DONE
            counters = service.metrics_snapshot()["counters"]
            assert counters["service.coalesce.promotions"] == 1
            assert counters["service.jobs.cancelled"] == 1
            # wedge + promoted leader ran; the remaining waiter rode it.
            assert mesher.calls == 2
        finally:
            gate.set()
            service.shutdown()


class TestNoDoublePin:
    def test_coalesced_burst_pins_key_once(self, image, template_result):
        gate = threading.Event()
        mesher = GatedMesher(template_result, gate=gate)
        service = make_service(template_result, mesher, n_workers=4)
        try:
            key = cache_keys(fake_request(image))[1]
            jobs = [service.submit(fake_request(image)) for _ in range(5)]
            wait_running(jobs[0])
            # Only the leader's attempt pins; followers never do.
            assert service.cache._pins.get(f"mesh:{key}", 0) == 1
            gate.set()
            for job in jobs:
                assert job.wait(30.0)
            assert service.cache.stats_snapshot()["pinned"] == 0
        finally:
            gate.set()
            service.shutdown()


class TestShutdownFanout:
    def test_no_wait_shutdown_concludes_waiters(self, image,
                                                template_result):
        """shutdown(wait=False) with a queued leader + waiters: every
        job still reaches a terminal state (no hangs)."""
        gate = threading.Event()
        mesher = GatedMesher(template_result, gate=gate)
        service = make_service(template_result, mesher, n_workers=1)
        wedge = service.submit(fake_request(image, variant=99))
        wait_running(wedge)
        leader = service.submit(fake_request(image))
        waiters = [service.submit(fake_request(image)) for _ in range(2)]
        gate.set()
        service.shutdown(wait=False)
        for job in [wedge, leader] + waiters:
            assert job.wait(10.0), f"{job.id} not terminal after shutdown"
            assert job.done
