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
``tests/procplugins.py`` and travel via ``REPRO_WORKER_PLUGINS``.
"""

import os

import numpy as np
import pytest

from repro.api import MeshRequest
from repro.delaunay import arena as arena_mod
from repro.imaging import sphere_phantom, two_spheres_phantom
from repro.service import (
    JobState,
    MeshingService,
    ServiceConfig,
    connect,
)
from repro.service.procworker import PLUGIN_ENV, RESULT_FIELDS


def _my_arena_prefix():
    return f"{arena_mod.ARENA_PREFIX}{os.getpid()}-"


@pytest.fixture
def plugin_env(monkeypatch):
    """Expose tests/procplugins.py to spawned workers."""
    monkeypatch.syspath_prepend(os.path.dirname(__file__))
    monkeypatch.setenv(PLUGIN_ENV, "procplugins:register")


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
        for field in RESULT_FIELDS:
            np.testing.assert_array_equal(getattr(got.mesh, field),
                                          getattr(want.mesh, field))
        for count in ("operations", "insertions", "removals", "skipped",
                      "rule_counts"):
            assert got.stats[count] == want.stats[count], count

    def test_size_function_falls_back_inline(self, tmp_path):
        from repro.core import radial

        img = sphere_phantom(12)
        sf = radial((6.0, 6.0, 6.0), near=2.5, far=6.0, radius=6.0)
        with MeshingService(_config(tmp_path)) as svc:
            job = svc.submit(MeshRequest(image=img, delta=3.0,
                                         mesher="sequential",
                                         size_function=sf))
            job.wait(240.0)
            assert job.state is JobState.DONE
            assert svc.registry.counter("service.jobs.inline").value >= 1


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
    def test_crash_fails_job_and_pool_recovers(self, tmp_path, plugin_env):
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1)) as svc:
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

    def test_worker_dying_while_it_replies_is_a_crash(self, tmp_path,
                                                      plugin_env):
        """The mesher returned; the worker dies pickling the reply.
        The parent sees the pipe close, not a reply: FAILED, counted,
        respawned — never a hang."""
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1)) as svc:
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
    def test_40mb_reply_arrives_intact_under_a_deadline(self, tmp_path,
                                                        plugin_env):
        """A reply hundreds of pipe buffers long, received while
        ``_await_reply`` polls against a deadline."""
        from procplugins import big_mesh

        want = big_mesh()
        assert sum(getattr(want, f).nbytes for f in RESULT_FIELDS) > 40e6
        with MeshingService(_config(tmp_path, n_workers=1,
                                    cache_dir=None)) as svc:
            job = svc.submit(MeshRequest(image=sphere_phantom(12),
                                         mesher="big"), deadline=200.0)
            job.wait(240.0)
            assert job.state is JobState.DONE, job.error
            for field in RESULT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(job.result.mesh, field), getattr(want, field))


class TestDeadline:
    def test_deadline_kills_worker(self, tmp_path, plugin_env):
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1)) as svc:
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

    def test_faults_and_shutdown_leave_dev_shm_as_found(self, tmp_path,
                                                        plugin_env):
        """A crashed job, a deadline kill and a shutdown: no segment
        of ours, and no other entry either, appears under /dev/shm."""
        try:
            before = sorted(os.listdir("/dev/shm"))
        except OSError:
            pytest.skip("no /dev/shm on this platform")
        img = sphere_phantom(12)
        with MeshingService(_config(tmp_path, n_workers=1)) as svc:
            crash = svc.submit(MeshRequest(image=img, mesher="crashy"))
            crash.wait(240.0)
            late = svc.submit(MeshRequest(image=img, mesher="sleepy"),
                              deadline=1.0)
            late.wait(240.0)
            assert crash.state is JobState.FAILED
            assert late.state is JobState.TIMED_OUT
        assert arena_mod.orphaned(_my_arena_prefix()) == []
        assert sorted(os.listdir("/dev/shm")) == before


class TestEnvSelection:
    def test_repro_executor_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        cfg = ServiceConfig(n_workers=1,
                            cache_dir=str(tmp_path / "cache"))
        assert cfg.resolved_executor() == "process"
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(ValueError):
            ServiceConfig(n_workers=1).resolved_executor()
