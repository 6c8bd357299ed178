"""Meshing-service acceptance tests: cache, EDT sharing, concurrency.

These exercise the PR's acceptance criteria end to end:

* a cold run followed by an identical request is served from the
  artifact cache — topology-identical and an order of magnitude faster;
* two requests sharing an image but differing in mesh parameters
  compute the EDT exactly once;
* a mixed burst of concurrent requests over a small worker pool ends
  with every job terminal, overflow rejected (not dropped), and
  transient failures recovered within the retry budget;
* cancelling a queued job wins the race against worker pickup.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import MeshRequest
from repro.imaging import sphere_phantom
from repro.service import (
    InProcessClient,
    Job,
    JobState,
    MeshingService,
    ServiceConfig,
    ServiceError,
    TransientMeshError,
    connect,
)


@pytest.fixture(scope="module")
def image():
    return sphere_phantom(12)


@pytest.fixture(scope="module")
def template_result(image):
    """A real (small) MeshResult for fake meshers to return."""
    from repro.api import mesh
    return mesh(MeshRequest(image=image, delta=3.0, mesher="sequential"))


class FakeMesher:
    """Scriptable mesher for overlay injection."""

    name = "fake"

    def __init__(self, result, delay=0.0, fail_first=0,
                 exc_type=TransientMeshError, block_event=None):
        self.result = result
        self.delay = delay
        self.fail_first = fail_first
        self.exc_type = exc_type
        self.block_event = block_event
        self.calls = 0
        self._lock = threading.Lock()

    def mesh(self, request):
        with self._lock:
            self.calls += 1
            n = self.calls
        if self.block_event is not None:
            self.block_event.wait(10.0)
        if self.delay:
            time.sleep(self.delay)
        if n <= self.fail_first:
            raise self.exc_type(f"injected failure #{n}")
        return self.result


def fake_request(image, seed=0, delta=3.0):
    """A request routed to the 'fake' overlay mesher."""
    return MeshRequest(image=image, delta=delta, mesher="fake", seed=seed)


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------

class TestArtifactCacheRoundTrip:
    def test_warm_hit_is_topology_identical_and_fast(self, image, tmp_path):
        """Cold run, then same request against a *fresh* service sharing
        only the disk cache: the mesh must round-trip through JSON
        byte-identically and come back >=10x faster."""
        cache_dir = str(tmp_path / "artifacts")
        req = MeshRequest(image=image, delta=3.0, mesher="sequential")

        with connect(config=ServiceConfig(
                n_workers=1, cache_dir=cache_dir)) as client:
            t0 = time.perf_counter()
            cold = client.mesh(req)
            cold_seconds = time.perf_counter() - t0
            snap = client.metrics()
            assert snap["counters"]["service.cache.miss"] == 1

        # Fresh service, empty memory LRU: the hit must come from disk,
        # proving the serialization round-trip (not object identity).
        with connect(config=ServiceConfig(
                n_workers=1, cache_dir=cache_dir)) as client:
            t0 = time.perf_counter()
            warm = client.mesh(MeshRequest(
                image=image, delta=3.0, mesher="sequential"))
            warm_seconds = time.perf_counter() - t0
            snap = client.metrics()
            assert snap["counters"]["service.cache.hit"] == 1

        assert warm is not cold
        np.testing.assert_array_equal(warm.mesh.tets, cold.mesh.tets)
        np.testing.assert_array_equal(warm.mesh.vertices, cold.mesh.vertices)
        np.testing.assert_array_equal(warm.mesh.tet_labels,
                                      cold.mesh.tet_labels)
        np.testing.assert_array_equal(warm.mesh.boundary_faces,
                                      cold.mesh.boundary_faces)
        assert warm_seconds < cold_seconds / 10.0

    def test_different_params_miss(self, image):
        with connect(config=ServiceConfig(n_workers=1)) as client:
            client.mesh(MeshRequest(image=image, delta=3.0,
                                    mesher="sequential"))
            client.mesh(MeshRequest(image=image, delta=4.0,
                                    mesher="sequential"))
            snap = client.metrics()
            assert snap["counters"]["service.cache.miss"] == 2
            assert snap["counters"].get("service.cache.hit", 0) == 0

    def test_size_function_requests_are_uncacheable(self, image):
        req = MeshRequest(image=image, delta=3.0, mesher="sequential",
                          size_function=lambda p: 3.0)
        with connect(config=ServiceConfig(n_workers=1)) as client:
            client.mesh(req)
            snap = client.metrics()
            assert snap["counters"]["service.jobs.uncacheable"] == 1
            assert "service.cache.miss" not in snap["counters"]


class TestArtifactCacheByteBudget:
    @staticmethod
    def _block(n):
        return {"points": np.zeros((n, n, n)),
                "kinds": np.zeros((n, n, n, 3), dtype=np.int32)}

    def test_byte_bound_evicts_cold_entries(self):
        from repro.service.cache import ArtifactCache

        cache = ArtifactCache(max_bytes=4_000_000, memory_entries=1000)
        for i in range(10):
            cache.put_block(f"k{i}", self._block(32))  # ~640 KiB each
        snap = cache.stats_snapshot()
        assert snap["bytes_held"] <= 4_000_000
        assert snap["evictions"] > 0
        assert cache.get_block("k0") is None      # coldest: evicted
        assert cache.get_block("k9") is not None  # hottest: resident

    def test_pinned_entries_survive_pressure(self):
        from repro.service.cache import ArtifactCache

        cache = ArtifactCache(max_bytes=1_500_000, memory_entries=1000)
        cache.put_block("keep", self._block(32))
        cache.pin("block:keep")
        for i in range(10):
            cache.put_block(f"x{i}", self._block(32))
        assert cache.get_block("keep") is not None
        cache.unpin("block:keep")
        snap = cache.stats_snapshot()
        assert snap["pinned"] == 0

    def test_pin_before_put_protects_the_put(self):
        from repro.service.cache import ArtifactCache

        cache = ArtifactCache(max_bytes=700_000, memory_entries=1000)
        cache.pin("block:mine")
        cache.put_block("other", self._block(32))
        cache.put_block("mine", self._block(32))  # over budget on arrival
        assert cache.get_block("mine") is not None
        cache.unpin("block:mine")

    def test_service_exposes_cache_gauges(self, image):
        with connect(config=ServiceConfig(
                n_workers=1, memory_cache_bytes=1)) as client:
            client.mesh(MeshRequest(image=image, delta=3.0,
                                    mesher="sequential"))
            snap = client.metrics()
            # Budget of one byte: the mesh was evicted right after the
            # job released its pin.
            assert snap["gauges"]["service.cache.evictions"] >= 1
            assert snap["gauges"]["service.cache.bytes_held"] == 0


# ---------------------------------------------------------------------------
# concurrency soak
# ---------------------------------------------------------------------------

class TestConcurrentMixedWorkload:
    def test_soak_all_terminal_no_deadlock(self, image, template_result):
        """32+ concurrent mixed requests over 4 workers: every job ends
        terminal, overflow is REJECTED (never silently dropped), and
        transient failures recover within the retry budget."""
        # coalesce off: this test is about queue overflow, and the 6
        # distinct request keys would otherwise absorb all 36 jobs
        # into 6 runs with nothing left to reject.
        cfg = ServiceConfig(n_workers=4, queue_capacity=16,
                            max_retries=2, retry_backoff=0.001,
                            coalesce=False)
        service = MeshingService(cfg).start()
        flaky = FakeMesher(template_result, delay=0.01, fail_first=3)
        service.register_mesher("fake", flaky)
        try:
            jobs = []
            for i in range(36):
                jobs.append(service.submit(
                    fake_request(image, seed=i % 6)))
            for job in jobs:
                assert job.wait(30.0), f"{job.id} not terminal (deadlock?)"
            states = [j.state for j in jobs]
            assert all(s in (JobState.DONE, JobState.REJECTED)
                       for s in states), states
            n_rejected = sum(s is JobState.REJECTED for s in states)
            snap = service.metrics_snapshot()
            # 36 submitted into a 16-slot queue: the overflow is an
            # explicit outcome, and the books balance exactly.
            assert snap["counters"]["service.jobs.rejected"] == n_rejected
            assert (snap["counters"]["service.jobs.completed"]
                    == 36 - n_rejected)
            # The three injected transient failures were retried, never
            # surfaced as FAILED.
            assert snap["counters"]["service.jobs.retries"] == 3
            assert "service.jobs.failed" not in snap["counters"]
            assert snap["gauges"]["service.workers.alive"] == 4
        finally:
            service.shutdown()

    def test_submissions_from_many_threads(self, image, template_result):
        """Admission itself is thread-safe: parallel submitters."""
        service = MeshingService(ServiceConfig(
            n_workers=4, queue_capacity=64)).start()
        service.register_mesher("fake", FakeMesher(template_result))
        jobs, lock = [], threading.Lock()

        def submitter(k):
            for i in range(8):
                j = service.submit(fake_request(image, seed=k * 100 + i))
                with lock:
                    jobs.append(j)

        try:
            threads = [threading.Thread(target=submitter, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(jobs) == 32
            for job in jobs:
                assert job.wait(30.0)
                assert job.state is JobState.DONE
            ids = [j.id for j in jobs]
            assert len(set(ids)) == 32  # ids unique under contention
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# cancellation race
# ---------------------------------------------------------------------------

class TestCancelRace:
    def test_cancel_queued_job_before_pickup(self, image, template_result):
        """With the single worker wedged on a blocking mesher, a queued
        job cancelled before pickup must never run."""
        gate = threading.Event()
        blocking = FakeMesher(template_result, block_event=gate)
        service = MeshingService(ServiceConfig(
            n_workers=1, queue_capacity=8)).start()
        service.register_mesher("fake", blocking)
        try:
            wedge = service.submit(fake_request(image, seed=1))
            # Wait until the worker has actually claimed the wedge job.
            for _ in range(200):
                if wedge.state is JobState.RUNNING:
                    break
                time.sleep(0.005)
            assert wedge.state is JobState.RUNNING

            victim = service.submit(fake_request(image, seed=2))
            assert victim.state is JobState.QUEUED
            calls_before = blocking.calls
            assert service.cancel(victim.id) is True
            assert victim.state is JobState.CANCELLED
            # Eager removal: the queue slot is freed immediately.
            assert len(service.queue) == 0

            gate.set()
            assert wedge.wait(10.0)
            assert wedge.state is JobState.DONE
            # The cancelled job was never handed to the mesher.
            assert blocking.calls == calls_before
            assert victim.state is JobState.CANCELLED
        finally:
            gate.set()
            service.shutdown()

    def test_cancel_loses_to_running_job(self, image, template_result):
        gate = threading.Event()
        service = MeshingService(ServiceConfig(n_workers=1)).start()
        service.register_mesher(
            "fake", FakeMesher(template_result, block_event=gate))
        try:
            job = service.submit(fake_request(image))
            for _ in range(200):
                if job.state is JobState.RUNNING:
                    break
                time.sleep(0.005)
            assert job.state is JobState.RUNNING
            assert service.cancel(job.id) is False  # CAS lost: it runs
            gate.set()
            assert job.wait(10.0)
            assert job.state is JobState.DONE
        finally:
            gate.set()
            service.shutdown()

    def test_cancel_unknown_job(self):
        service = MeshingService(ServiceConfig(n_workers=1)).start()
        try:
            assert service.cancel("job-999999") is False
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# job retention
# ---------------------------------------------------------------------------

class TestJobRetention:
    def test_thousand_hits_leave_a_bounded_registry(self, image):
        from repro.service.service import RETAINED_TERMINAL_JOBS

        request = MeshRequest(image=image, delta=3.0, mesher="sequential")
        with MeshingService(ServiceConfig(n_workers=2)) as service:
            first = service.submit(request)
            assert first.wait(60.0)
            for _ in range(1000):
                service.mesh(request, timeout=60.0)
            last = service.submit(request)
            assert last.wait(60.0)
            # Nothing is in flight, so the bound is exactly N.
            assert len(service._jobs) <= RETAINED_TERMINAL_JOBS
            assert service.job(first.id) is None  # forgotten, as unknown
            assert service.job(last.id) is last

    def test_no_domain_outlives_its_job(self, image):
        """Retained jobs and resident cache entries hold results, and a
        result is five plain fields: the refiner's live domain (about
        4 MB behind a 0.3 MB mesh) goes when its run ends."""
        import gc

        from repro.core import RefineDomain
        from repro.imaging import two_spheres_phantom

        def domains():
            gc.collect()
            return [o for o in gc.get_objects()
                    if isinstance(o, RefineDomain)]

        before = domains()  # other tests' fixtures; held, so ids stay
        pair = two_spheres_phantom(16)
        with MeshingService(ServiceConfig(
                n_workers=2, executor="thread",
                memory_cache_bytes=200_000)) as service:
            jobs = [service.submit(MeshRequest(
                image=image, delta=3.0 + 0.01 * i, mesher="sequential"))
                for i in range(12)]
            jobs += [service.submit(MeshRequest(
                image=pair, delta=2.0 + 0.01 * i, mesher="sequential",
                shards=2)) for i in range(6)]
            for job in jobs:
                assert job.wait(120.0) and job.state is JobState.DONE
            assert jobs[-1].result.stats["shards"] == 2
            leaked = [d for d in domains()
                      if not any(d is b for b in before)]
            assert leaked == []
            assert all(service.job(j.id) is j for j in jobs)

    def test_running_job_and_its_subjobs_outlive_newer_hits(
            self, image, template_result):
        from repro.service.service import RETAINED_TERMINAL_JOBS

        gate = threading.Event()
        service = MeshingService(ServiceConfig(n_workers=2)).start()
        service.register_mesher(
            "fake", FakeMesher(template_result, block_event=gate))
        try:
            parent = service.submit(fake_request(image))
            sub = service._register_subjob(f"{parent.id}/s0", parent)
            request = MeshRequest(image=image, delta=3.0,
                                  mesher="sequential")
            for _ in range(RETAINED_TERMINAL_JOBS + 10):
                service.mesh(request, timeout=60.0)
            # Older than every retained job, but not terminal.
            assert service.job(parent.id) is parent
            assert service.job(sub.id) is sub
            gate.set()
            assert parent.wait(10.0)
            for _ in range(RETAINED_TERMINAL_JOBS + 10):
                service.mesh(request, timeout=60.0)
            # The sub-job never finished; it goes with its parent.
            assert service.job(parent.id) is None
            assert service.job(sub.id) is None
        finally:
            gate.set()
            service.shutdown()


# ---------------------------------------------------------------------------
# facade semantics
# ---------------------------------------------------------------------------

class TestInProcessClientFacade:
    def test_mesh_raises_service_error_on_failure(self, image,
                                                  template_result):
        service = MeshingService(ServiceConfig(
            n_workers=1, max_retries=0)).start()
        service.register_mesher("fake", FakeMesher(
            template_result, fail_first=99, exc_type=ValueError))
        client = InProcessClient(service=service)
        try:
            with pytest.raises(ServiceError) as exc_info:
                client.mesh(fake_request(image))
            job = exc_info.value.job
            assert isinstance(job, Job)
            assert job.state is JobState.FAILED
        finally:
            service.shutdown()

    def test_borrowed_service_survives_client_close(self, image):
        service = MeshingService(ServiceConfig(n_workers=1)).start()
        try:
            client = InProcessClient(service=service)
            client.close()
            job = service.submit(MeshRequest(
                image=image, delta=3.0, mesher="sequential"))
            assert job.wait(30.0)
            assert job.state is JobState.DONE
        finally:
            service.shutdown()

    def test_job_summary_is_json_safe(self, image):
        import json
        with connect(config=ServiceConfig(n_workers=1)) as client:
            job_id = client.submit(MeshRequest(
                image=image, delta=3.0, mesher="sequential"))
            summary = client.wait(job_id, 30.0)
            doc = json.dumps(summary)
            assert "DONE" in doc


# ---------------------------------------------------------------------------
# connect() — the unified client entry point
# ---------------------------------------------------------------------------

class TestConnect:
    def test_connect_config_owns_service(self, image):
        from repro.service import InProcessClient, connect

        with connect(config=ServiceConfig(n_workers=1)) as client:
            assert isinstance(client, InProcessClient)
            job_id = client.submit(MeshRequest(
                image=image, delta=3.0, mesher="sequential"))
            assert isinstance(job_id, str)
            summary = client.wait(job_id, timeout=60.0)
            assert summary["state"] == "DONE"
            assert client.status(job_id)["state"] == "DONE"
        # owned service is shut down with the client
        assert client.service._closed

    def test_connect_borrows_running_service(self, image):
        from repro.service import connect

        service = MeshingService(ServiceConfig(n_workers=1)).start()
        try:
            with connect(service=service) as client:
                result = client.mesh(MeshRequest(
                    image=image, delta=3.0, mesher="sequential"))
                assert result.mesh.n_tets > 0
            # borrowed: closing the client leaves the service running
            assert not service._closed
        finally:
            service.shutdown()

    def test_connect_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            connect("ftp://localhost:1234")

    def test_connect_rejects_malformed_http_target(self):
        with pytest.raises(ValueError):
            connect("http://no-port-here")
