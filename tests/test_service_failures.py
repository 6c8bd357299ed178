"""Failure paths of the meshing service.

Every way a job can go wrong must surface as an explicit terminal
state with diagnostics attached — never a hung waiter, a dropped
request, or a dead worker:

* a mesher crash → ``FAILED`` with the traceback on the job, worker
  still alive;
* deadline expiry (queued or mid-run) → ``TIMED_OUT``;
* queue overflow → ``REJECTED``;
* a corrupt / truncated cache artifact → a miss (recompute), not a
  crash.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import MeshRequest, mesh
from repro.imaging import sphere_phantom
from repro.service import (
    ArtifactCache,
    JobState,
    MeshingService,
    ServiceConfig,
    TransientMeshError,
    cache_keys,
    image_content_key,
    request_key,
)


@pytest.fixture(scope="module")
def image():
    return sphere_phantom(12)


@pytest.fixture(scope="module")
def template_result(image):
    return mesh(MeshRequest(image=image, delta=3.0, mesher="sequential"))


class CrashingMesher:
    name = "crash"

    def mesh(self, request):
        raise RuntimeError("synthetic mesher explosion")


class SlowMesher:
    name = "slow"

    def __init__(self, result, seconds):
        self.result = result
        self.seconds = seconds

    def mesh(self, request):
        time.sleep(self.seconds)
        return self.result


def overlay_request(image, name, seed=0):
    return MeshRequest(image=image, delta=3.0, mesher=name, seed=seed)


class TestWorkerCrash:
    def test_crash_fails_job_with_traceback(self, image):
        service = MeshingService(ServiceConfig(n_workers=1)).start()
        service.register_mesher("crash", CrashingMesher())
        try:
            job = service.submit(overlay_request(image, "crash"))
            assert job.wait(10.0)
            assert job.state is JobState.FAILED
            assert "synthetic mesher explosion" in job.error
            assert "Traceback" in job.error
            # The worker survived the crash and still serves new jobs.
            assert service.pool.alive_workers == 1
            ok = service.submit(MeshRequest(
                image=image, delta=3.0, mesher="sequential"))
            assert ok.wait(30.0)
            assert ok.state is JobState.DONE
            snap = service.metrics_snapshot()
            assert snap["counters"]["service.jobs.failed"] == 1
        finally:
            service.shutdown()

    def test_transient_budget_exhaustion_fails(self, image, template_result):
        class AlwaysTransient:
            name = "flaky"
            calls = 0

            def mesh(self, request):
                AlwaysTransient.calls += 1
                raise TransientMeshError("still flaky")

        service = MeshingService(ServiceConfig(
            n_workers=1, max_retries=2, retry_backoff=0.001)).start()
        service.register_mesher("flaky", AlwaysTransient())
        try:
            job = service.submit(overlay_request(image, "flaky"))
            assert job.wait(10.0)
            assert job.state is JobState.FAILED
            assert "still flaky" in job.error
            # initial attempt + max_retries retries, then give up
            assert job.attempts == 3
            snap = service.metrics_snapshot()
            assert snap["counters"]["service.jobs.retries"] == 2
        finally:
            service.shutdown()


class TestDeadlines:
    def test_deadline_expires_while_queued(self, image, template_result):
        """A job whose deadline passes in the queue is never run."""
        service = MeshingService(ServiceConfig(n_workers=1)).start()
        slow = SlowMesher(template_result, 0.3)
        service.register_mesher("slow", slow)
        try:
            wedge = service.submit(overlay_request(image, "slow", seed=1))
            victim = service.submit(
                overlay_request(image, "slow", seed=2), deadline=0.05)
            assert victim.wait(10.0)
            assert victim.state is JobState.TIMED_OUT
            assert "queued" in victim.error
            assert victim.attempts == 0  # never claimed
            assert wedge.wait(10.0)
            assert wedge.state is JobState.DONE
        finally:
            service.shutdown()

    def test_deadline_expires_during_run(self, image, template_result):
        service = MeshingService(ServiceConfig(n_workers=1)).start()
        service.register_mesher("slow", SlowMesher(template_result, 0.2))
        try:
            job = service.submit(overlay_request(image, "slow"),
                                 deadline=0.05)
            assert job.wait(10.0)
            assert job.state is JobState.TIMED_OUT
            # The finished mesh is attached even though the deadline was
            # missed — salvageable by callers that still want it.
            assert job.result is not None
            snap = service.metrics_snapshot()
            assert snap["counters"]["service.jobs.timed_out"] == 1
        finally:
            service.shutdown()


class TestAdmissionControl:
    def test_overflow_is_rejected_not_dropped(self, image, template_result):
        gate_seconds = 0.3
        service = MeshingService(ServiceConfig(
            n_workers=1, queue_capacity=2)).start()
        service.register_mesher(
            "slow", SlowMesher(template_result, gate_seconds))
        try:
            jobs = [service.submit(overlay_request(image, "slow", seed=i))
                    for i in range(6)]
            rejected = [j for j in jobs if j.state is JobState.REJECTED]
            # 1 claimed (or about to be) + 2 queued; at least 3 spill.
            assert len(rejected) >= 3
            for j in rejected:
                assert j.done  # terminal immediately, waiters never hang
                assert j.wait(0.0)
                assert "full" in j.error
            for j in jobs:
                assert j.wait(10.0)
            snap = service.metrics_snapshot()
            assert (snap["counters"]["service.jobs.rejected"]
                    == len(rejected))
        finally:
            service.shutdown()

    def test_submit_after_shutdown_rejects(self, image):
        service = MeshingService(ServiceConfig(n_workers=1)).start()
        service.shutdown()
        job = service.submit(MeshRequest(
            image=image, delta=3.0, mesher="sequential"))
        assert job.state is JobState.REJECTED


class TestCorruptArtifacts:
    def _mesh_artifact_path(self, cache_dir, req):
        _, rkey = cache_keys(req)
        return cache_dir / "mesh" / rkey[:2] / f"{rkey}.json"

    def test_truncated_mesh_json_is_a_miss(self, image, tmp_path):
        cache_dir = tmp_path / "cache"
        req = MeshRequest(image=image, delta=3.0, mesher="sequential")
        with MeshingService(ServiceConfig(
                n_workers=1, cache_dir=str(cache_dir))) as service:
            service.mesh(req)
        path = self._mesh_artifact_path(cache_dir, req)
        assert path.exists()
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        # Fresh service (cold LRU): the truncated artifact must read as
        # a miss, be discarded, and the mesh recomputed.
        with MeshingService(ServiceConfig(
                n_workers=1, cache_dir=str(cache_dir))) as service:
            result = service.mesh(MeshRequest(
                image=image, delta=3.0, mesher="sequential"))
            assert result.n_tets > 0
            snap = service.metrics_snapshot()
            assert snap["counters"]["service.cache.miss"] == 1
            assert snap["gauges"]["service.cache.store.corrupt"] == 1
        # The rewrite replaced the corrupt file with a loadable one.
        json.loads(path.read_text())

    def test_garbage_mesh_json_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = "ab" + "0" * 38
        path = tmp_path / "c" / "mesh" / "ab" / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json at all")
        assert cache.get_mesh(key) is None
        assert cache.stats_snapshot()["corrupt"] == 1
        assert not path.exists()  # corrupt artifact unlinked

    def test_truncated_block_npz_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = "cd" + "0" * 38
        cache.put_block(key, {"points": np.ones((4, 3)),
                              "kinds": np.zeros(4, dtype=np.int8)})
        path = tmp_path / "c" / "block" / "cd" / f"{key}.npz"
        assert path.exists()
        path.write_bytes(path.read_bytes()[:20])

        cold = ArtifactCache(str(tmp_path / "c"))  # bypass the LRU
        assert cold.get_block(key) is None
        assert cold.stats_snapshot()["corrupt"] == 1
        assert not path.exists()

    def test_empty_mesh_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = "ef" + "0" * 38
        path = tmp_path / "c" / "mesh" / "ef" / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        assert cache.get_mesh(key) is None
        assert cache.stats_snapshot()["corrupt"] == 1


class TestCacheKeyHygiene:
    @staticmethod
    def _rkey(req):
        return cache_keys(req)[1]

    def test_key_covers_image_content(self, image):
        other = sphere_phantom(12)
        other.labels[0, 0, 0] = 1 - other.labels[0, 0, 0]
        k1 = self._rkey(
            MeshRequest(image=image, delta=3.0, mesher="sequential"))
        k2 = self._rkey(
            MeshRequest(image=other, delta=3.0, mesher="sequential"))
        assert k1 != k2

    def test_key_ignores_observability_knobs(self, image):
        from repro.observability import ObservabilityConfig
        base = MeshRequest(image=image, delta=3.0, mesher="sequential")
        traced = MeshRequest(image=image, delta=3.0, mesher="sequential",
                             observability=ObservabilityConfig(tracing=True),
                             timeout=99.0)
        assert self._rkey(base) == self._rkey(traced)

    def test_auto_mesher_resolves_in_key(self, image):
        auto = MeshRequest(image=image, delta=3.0, mesher="auto")
        seq = MeshRequest(image=image, delta=3.0, mesher="sequential")
        assert self._rkey(auto) == self._rkey(seq)

    def test_request_key_stable_across_param_order(self, image):
        ikey = image_content_key(image)
        p1 = {"delta": 3.0, "mesher": "sequential"}
        p2 = {"mesher": "sequential", "delta": 3.0}
        assert request_key(ikey, p1) == request_key(ikey, p2)
