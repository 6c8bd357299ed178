"""Failure paths of the meshing service.

Every way a job can go wrong must surface as an explicit terminal
state with diagnostics attached — never a hung waiter, a dropped
request, or a dead worker:

* a mesher crash → ``FAILED`` with the traceback on the job, worker
  still alive;
* deadline expiry (queued or mid-run) → ``TIMED_OUT``;
* queue overflow → ``REJECTED``;
* a corrupt / truncated cache artifact → a miss (recompute), not a
  crash;
* a mixed workload — hits, misses, a poisoned request, a transient
  fault, an over-capacity burst — on either executor leaves books that
  balance: every submitted job is counted in exactly one terminal
  counter.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.api import MeshRequest, SequentialMesher, mesh
from repro.imaging import sphere_phantom
from repro.service import (
    EXECUTORS,
    ArtifactCache,
    JobState,
    MeshingService,
    ServiceConfig,
    ServiceError,
    TransientMeshError,
    cache_keys,
    image_content_key,
    request_key,
)
from tests.executors import on_process


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


class FlakyOnce:
    """Transient failure on the first call, then delegates.  The first
    call is the one that creates ``marker``, so it stays the first
    across every worker process that holds a copy."""

    name = "flaky"

    def __init__(self, inner, marker):
        self.inner = inner
        self.marker = marker

    def mesh(self, request):
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return self.inner.mesh(request)
        raise TransientMeshError("injected transient fault")


class Poisoned:
    """Fails every run with a non-transient error."""

    name = "poisoned"

    def mesh(self, request):
        raise RuntimeError("injected mesher fault")


def fake_request(image, name, variant=0):
    """A request routed to the fake mesher ``name``; each ``variant``
    is its own request key."""
    return MeshRequest(image=image, delta=3.0 + 0.001 * variant,
                       mesher=name)


def fake_service(name, mesher, **cfg):
    """A started service serving ``sequential`` and ``mesher`` as
    ``name``, on the thread executor: a fake defined in a test body
    does not pickle into a worker process."""
    cfg.setdefault("n_workers", 1)
    cfg.setdefault("executor", "thread")
    return MeshingService(ServiceConfig(**cfg), meshers={
        "sequential": SequentialMesher(), name: mesher}).start()


class TestWorkerCrash:
    def test_crash_fails_job_with_traceback(self, image):
        service = fake_service("crash", CrashingMesher())
        try:
            job = service.submit(fake_request(image, "crash"))
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

        service = fake_service("flaky", AlwaysTransient(), max_retries=2,
                               retry_backoff=0.001)
        try:
            job = service.submit(fake_request(image, "flaky"))
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
        service = fake_service("slow", SlowMesher(template_result, 0.3))
        try:
            wedge = service.submit(fake_request(image, "slow", variant=1))
            victim = service.submit(
                fake_request(image, "slow", variant=2), deadline=0.05)
            assert victim.wait(10.0)
            assert victim.state is JobState.TIMED_OUT
            assert "queued" in victim.error
            assert victim.attempts == 0  # never claimed
            assert wedge.wait(10.0)
            assert wedge.state is JobState.DONE
        finally:
            service.shutdown()

    def test_deadline_expires_during_run(self, image, template_result):
        service = fake_service("slow", SlowMesher(template_result, 0.2))
        try:
            job = service.submit(fake_request(image, "slow"),
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
        service = fake_service(
            "slow", SlowMesher(template_result, gate_seconds),
            queue_capacity=2)
        try:
            jobs = [service.submit(fake_request(image, "slow", variant=i))
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

    def test_submit_after_shutdown_rejects(self, image, executor):
        service = MeshingService(ServiceConfig(
            n_workers=1, executor=executor)).start()
        service.shutdown()
        job = service.submit(MeshRequest(
            image=image, delta=3.0, mesher="sequential"))
        assert job.state is JobState.REJECTED


class TestCorruptArtifacts:
    def _mesh_artifact_path(self, cache_dir, req):
        _, rkey = cache_keys(req)
        return cache_dir / "mesh" / rkey[:2] / f"{rkey}.json"

    def test_truncated_mesh_json_is_a_miss(self, image, tmp_path, executor):
        cache_dir = tmp_path / "cache"
        config = ServiceConfig(n_workers=1, cache_dir=str(cache_dir),
                               executor=executor)
        req = MeshRequest(image=image, delta=3.0, mesher="sequential")
        with MeshingService(config) as service:
            service.mesh(req)
        path = self._mesh_artifact_path(cache_dir, req)
        assert path.exists()
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        # Fresh service (cold LRU): the truncated artifact must read as
        # a miss, be discarded, and the mesh recomputed.
        with MeshingService(config) as service:
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
        assert cache.get_mesh_tiered(key)[0] is None
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
        assert cold.get_block_tiered(key)[0] is None
        assert cold.stats_snapshot()["corrupt"] == 1
        assert not path.exists()

    def test_empty_mesh_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"))
        key = "ef" + "0" * 38
        path = tmp_path / "c" / "mesh" / "ef" / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        assert cache.get_mesh_tiered(key)[0] is None
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
                             observability=ObservabilityConfig(tracing=True))
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



@pytest.mark.parametrize("executor", EXECUTORS)
def test_mixed_workload_books_balance(image, tmp_path, executor):
    """Cold misses, a warm hit, an unknown and a poisoned mesher, a
    transient fault and a burst past the queue's capacity, through one
    service whose fakes pickle, so under ``process`` they fail inside
    the workers.  Every job ends in one terminal state and the
    ``service.*`` counters account for each."""
    service = MeshingService(ServiceConfig(
        n_workers=4, queue_capacity=8, cache_dir=str(tmp_path / "cache"),
        max_retries=2, retry_backoff=0.01, executor=executor), meshers={
        "sequential": SequentialMesher(),
        "flaky": FlakyOnce(SequentialMesher(), str(tmp_path / "flaky-once")),
        "poisoned": Poisoned(),
    }).start()
    try:
        cold = service.mesh(MeshRequest(image=image, delta=3.0))
        assert cold.n_tets > 0
        assert service.mesh(MeshRequest(image=image, delta=4.0)).n_tets > 0
        warm = service.mesh(MeshRequest(image=image, delta=3.0))
        assert (warm.n_tets, warm.n_vertices) == (cold.n_tets,
                                                  cold.n_vertices)

        with pytest.raises(ValueError):
            service.submit(MeshRequest(image=image, mesher="no-such"))
        with pytest.raises(ServiceError, match="FAILED"):
            service.mesh(MeshRequest(image=image, mesher="poisoned"))
        assert service.mesh(MeshRequest(image=image, delta=5.0,
                                        mesher="flaky")).n_tets > 0

        burst = [service.submit(MeshRequest(image=image,
                                            delta=3.0 + 0.1 * i))
                 for i in range(20)]
        for job in burst:
            assert job.wait(120.0) and job.done, job.state
        assert {j.state for j in burst} <= {JobState.DONE,
                                            JobState.REJECTED}
        n_rejected = sum(j.state is JobState.REJECTED for j in burst)
        assert n_rejected >= 1  # the 8-slot queue overflowed

        snap = service.metrics_snapshot()
        c, g = snap["counters"], snap["gauges"]
        assert c["service.cache.hit"] >= 1
        assert c["service.cache.miss"] >= 2
        assert c["service.jobs.retries"] == 1
        assert c["service.jobs.rejected"] == n_rejected
        assert c["service.jobs.failed"] == 1  # the poisoned request
        assert g["service.workers.alive"] == 4
        if executor == "process":
            assert c["service.jobs.remote"] >= 1
            assert c.get("service.worker.crashes", 0) == 0
        terminal = sum(c.get(f"service.jobs.{state}", 0) for state in (
            "completed", "failed", "rejected", "cancelled", "timed_out"))
        assert c["service.jobs.submitted"] == terminal
    finally:
        service.shutdown()
    assert service.pool.alive_workers == 0


TestOnProcessExecutor = on_process(
    TestAdmissionControl.test_submit_after_shutdown_rejects,
    TestCorruptArtifacts.test_truncated_mesh_json_is_a_miss,
    TestCorruptArtifacts._mesh_artifact_path,
)
