"""Process-executor tests: spawned workers, replies, crashes, deadlines.

These are the end-to-end guarantees of the process executor:

* a soak of many jobs across few workers completes with every job DONE
  and results identical to the thread executor's — the same five plain
  fields whichever path produced them;
* a worker crash (``os._exit`` inside the mesher, or while the reply is
  being pickled) fails only its job, and the pool respawns for the next;
* a deadline kills the worker mid-run → TIMED_OUT;
* a reply many pipe buffers long arrives intact;
* nothing is left in ``/dev/shm``, whatever happened.

Workers are spawned processes, so the misbehaving meshers live in
``tests/procplugins.py`` and reach them through the service's table of
served meshers, which every worker is spawned with.
"""

import dataclasses
import os
import re

import numpy as np
import pytest

from repro.api import MeshRequest
from repro.core.extract import ExtractedMesh
from repro.delaunay import arena as arena_mod
from repro.imaging import sphere_phantom, two_spheres_phantom
from repro.service import (
    EXECUTORS,
    JobState,
    MeshingService,
    ServiceConfig,
    connect,
)
from tests.procplugins import MESHERS, big_mesh

#: the mesh arrays a result carries
MESH_FIELDS = [f.name for f in dataclasses.fields(ExtractedMesh)]


def _my_arena_prefix():
    return f"{arena_mod.ARENA_PREFIX}{os.getpid()}-"


def _config(tmp_path, **kw):
    kw.setdefault("n_workers", 2)
    kw.setdefault("executor", "process")
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ServiceConfig(**kw)


class TestProcessExecutorBasics:
    def test_service_resolves_process_executor(self, tmp_path):
        with MeshingService(_config(tmp_path)) as svc:
            assert svc.executor == "process"

    def test_service_result_has_one_shape(self, tmp_path):
        """Fresh run, coalesced follower, memory hit, sharded job and
        disk hit, on both executors: no result carries ``extras``, and
        the two executors agree on the whole mesh and every count."""
        plain = dict(image=sphere_phantom(12), delta=3.0,
                     mesher="sequential")
        sharded = dict(image=two_spheres_phantom(16), mesher="sequential",
                       shards=2)
        fresh = {}
        for executor in ("thread", "process"):
            cfg = _config(tmp_path, executor=executor,
                          cache_dir=str(tmp_path / executor))
            with MeshingService(cfg) as svc:
                jobs = [svc.submit(MeshRequest(**plain)),
                        svc.submit(MeshRequest(**plain))]
                for job in jobs:
                    job.wait(240.0)
                jobs.append(svc.submit(MeshRequest(**plain)))
                jobs.append(svc.submit(MeshRequest(**sharded)))
                for job in jobs:
                    job.wait(240.0)
            with MeshingService(cfg) as svc:
                jobs.append(svc.submit(MeshRequest(**plain)))
                jobs[-1].wait(240.0)
            assert [j.state for j in jobs] == [JobState.DONE] * 5
            assert [j.tier for j in jobs] == [
                "full_mesh", "coalesced", "memory_hit", "full_mesh",
                "disk_hit"]
            assert jobs[3].result.stats["shards"] == 2
            for job in jobs:
                assert job.result.extras == {}, (executor, job.tier)
            fresh[executor] = jobs[0].result
        got, want = fresh["process"], fresh["thread"]
        for field in MESH_FIELDS:
            np.testing.assert_array_equal(getattr(got.mesh, field),
                                          getattr(want.mesh, field))
        for count in ("operations", "insertions", "removals", "skipped",
                      "rule_counts"):
            assert got.stats[count] == want.stats[count], count

    def test_size_function_runs_in_a_worker(self, tmp_path):
        """A size function is data: a ``surface_graded`` request runs
        remotely under the process executor and meshes there, and over
        HTTP, as ``api.mesh`` meshes it; its repeat is a memory hit on
        both, and a sharded one is answered 400."""
        import json
        import urllib.error
        import urllib.request

        from repro.api import mesh
        from repro.core import surface_graded
        from repro.service import HttpClient, MeshHTTPServer
        from repro.service.http import encode_image_b64

        img = sphere_phantom(12)

        def sized(**kw):
            return MeshRequest(image=img, delta=3.0, size_function=(
                surface_graded(near=2.0, far=6.0, growth=1.5)), **kw)

        want = mesh(sized()).mesh
        got = {}
        with MeshingService(_config(tmp_path)) as svc:
            jobs = []
            for _ in range(2):  # one after the other: no coalescing
                jobs.append(svc.submit(sized()))
                jobs[-1].wait(240.0)
            assert [j.tier for j in jobs] == ["full_mesh", "memory_hit"]
            got["process"] = jobs[1].result.mesh
            counters = svc.metrics_snapshot()["counters"]
            # One run, in a worker; the repeat was a hit.
            assert counters["service.jobs.remote"] == 1
            with pytest.raises(ValueError, match="size_function"):
                svc.submit(sized(shards=2))
        with MeshingService(_config(tmp_path, executor="thread",
                                    cache_dir=None)) as svc:
            with MeshHTTPServer(svc) as server:
                with HttpClient(*server.address) as client:
                    got["http"] = client.mesh(sized()).mesh
                    job_id = client.submit(sized())
                    assert client.wait(job_id, 240.0)["tier"] == "memory_hit"
                body = {"image_b64": encode_image_b64(img),
                        "params": sized(shards=2).to_params(
                            omit_defaults=True)}
                req = urllib.request.Request(
                    server.url + "/v1/mesh", method="POST",
                    data=json.dumps(body).encode())
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(req, timeout=30)
                assert err.value.code == 400
                assert "size_function" in json.loads(
                    err.value.read())["error"]
        for path, result in got.items():
            for field in MESH_FIELDS:
                np.testing.assert_array_equal(
                    getattr(result, field), getattr(want, field),
                    err_msg=f"{path} {field}")


class TestProcessExecutorSoak:
    def test_36_jobs_4_workers_all_done(self, tmp_path):
        img = sphere_phantom(12)
        with connect(config=_config(tmp_path, n_workers=4)) as c:
            ids = [
                c.submit(MeshRequest(image=img, delta=3.0 + 0.01 * i,
                                     mesher="sequential"))
                for i in range(36)
            ]
            states = [c.wait(i, timeout=600.0)["state"] for i in ids]
        assert states == [JobState.DONE.value] * 36
        assert arena_mod.orphaned(_my_arena_prefix()) == []


class TestWorkerCrash:
    def test_crash_fails_job_and_pool_recovers(self, tmp_path):
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1),
                            meshers=MESHERS) as svc:
            crash = svc.submit(MeshRequest(image=img, delta=3.0,
                                           mesher="crashy"))
            crash.wait(240.0)
            assert crash.state is JobState.FAILED
            assert "worker" in (crash.error or "")
            assert svc.registry.counter("service.worker.crashes").value == 1
            assert arena_mod.orphaned(_my_arena_prefix()) == []
            # and the pool respawns a fresh worker for the next job
            ok = svc.submit(MeshRequest(image=img, delta=3.0,
                                        mesher="sequential"))
            ok.wait(240.0)
            assert ok.state is JobState.DONE
        assert arena_mod.orphaned(_my_arena_prefix()) == []

    def test_worker_dying_while_it_replies_is_a_crash(self, tmp_path):
        """The mesher returned; the worker dies pickling the reply.
        The parent sees the pipe close, not a reply: FAILED, counted,
        respawned — never a hang."""
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1),
                            meshers=MESHERS) as svc:
            bomb = svc.submit(MeshRequest(image=img, mesher="replybomb"))
            assert bomb.wait(240.0)
            assert bomb.state is JobState.FAILED
            assert "worker" in (bomb.error or "")
            assert svc.registry.counter("service.worker.crashes").value == 1
            ok = svc.submit(MeshRequest(image=img, delta=3.0,
                                        mesher="sequential"))
            ok.wait(240.0)
            assert ok.state is JobState.DONE
            assert svc._proc_pool.spawned_total == 2


class TestLongReply:
    def test_40mb_reply_arrives_intact_under_a_deadline(self, tmp_path):
        """A reply hundreds of pipe buffers long, received while
        ``_await_reply`` polls against a deadline."""
        want = big_mesh()
        assert sum(getattr(want, f).nbytes for f in MESH_FIELDS) > 40e6
        with MeshingService(_config(tmp_path, n_workers=1,
                                    cache_dir=None),
                            meshers=MESHERS) as svc:
            job = svc.submit(MeshRequest(image=sphere_phantom(12),
                                         mesher="big"), deadline=200.0)
            job.wait(240.0)
            assert job.state is JobState.DONE, job.error
            for field in MESH_FIELDS:
                np.testing.assert_array_equal(
                    getattr(job.result.mesh, field), getattr(want, field))


class TestDeadline:
    def test_deadline_kills_worker(self, tmp_path):
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1),
                            meshers=MESHERS) as svc:
            job = svc.submit(MeshRequest(image=img, delta=3.0,
                                         mesher="sleepy"),
                             deadline=3.0)
            job.wait(240.0)
            assert job.state is JobState.TIMED_OUT
            assert svc.registry.counter("service.jobs.timed_out").value == 1
        assert arena_mod.orphaned(_my_arena_prefix()) == []


class TestShmHygiene:
    def test_no_orphans_after_shutdown(self, tmp_path):
        img = sphere_phantom(12)
        svc = MeshingService(_config(tmp_path))
        svc.start()
        try:
            job = svc.submit(MeshRequest(image=img, delta=3.0,
                                         mesher="sequential"))
            job.wait(240.0)
            assert job.state is JobState.DONE
        finally:
            svc.shutdown()
        assert arena_mod.orphaned(_my_arena_prefix()) == []

    def test_faults_and_shutdown_leave_dev_shm_as_found(self, tmp_path):
        """A crashed job, a deadline kill and a shutdown: no segment
        of ours, and no other entry either, appears under /dev/shm."""
        try:
            before = sorted(os.listdir("/dev/shm"))
        except OSError:
            pytest.skip("no /dev/shm on this platform")
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1),
                            meshers=MESHERS) as svc:
            crash = svc.submit(MeshRequest(image=img, mesher="crashy"))
            crash.wait(240.0)
            late = svc.submit(MeshRequest(image=img, mesher="sleepy"),
                              deadline=1.0)
            late.wait(240.0)
            assert crash.state is JobState.FAILED
            assert late.state is JobState.TIMED_OUT
        assert arena_mod.orphaned(_my_arena_prefix()) == []
        assert sorted(os.listdir("/dev/shm")) == before


class TestExecutorSelection:
    def test_config_field_is_the_one_setter(self, monkeypatch):
        """``ServiceConfig.executor`` picks the executor and nothing
        else does: an unknown name is refused at construction, and the
        environment variable that used to override the default is not
        read (its name is spelled in two halves so that no line of the
        tree names it)."""
        with pytest.raises(ValueError, match=re.escape(str(EXECUTORS))):
            MeshingService(ServiceConfig(executor="bogus"))
        monkeypatch.setenv("REPRO_" "EXECUTOR", "process")
        assert MeshingService(ServiceConfig(n_workers=1)).executor == "thread"
