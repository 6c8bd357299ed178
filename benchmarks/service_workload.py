"""CI workload replay and executor benchmark for the meshing service.

Two halves, both one-line CI gates:

* **Workload replay** (default): boots a real
  :class:`~repro.service.MeshingService`, replays a mixed workload —
  cache hits, cache misses, poisoned requests, a transient fault, an
  over-capacity burst — and asserts on the resulting ``service.*``
  metrics.  The executor comes from ``ServiceConfig`` resolution, so
  CI runs the same replay under ``REPRO_EXECUTOR=thread`` and ``=process``; the
  faulty meshers are served from the service's table, so under the
  process executor they fail inside the worker processes.
* **Executor comparison** (``--executor-bench``): meshes the same
  CPU-bound batch of cache misses through a thread-executor service
  and a process-executor service (separate cache dirs — no
  cross-pollination) and writes ``BENCH_service.json`` with both
  throughputs.  The ≥1.5x process-over-thread gate is only *enforced*
  when the machine has ≥2 usable CPUs — on a single-CPU runner the
  comparison is recorded but advisory (process workers cannot beat
  threads without parallelism; the GIL is the thing being escaped).

Exit code 0 iff every assertion (and any enforced gate) holds::

    PYTHONPATH=src python benchmarks/service_workload.py
    PYTHONPATH=src python benchmarks/service_workload.py --executor-bench

Keep the replay fast (< ~1 min on a laptop): it is a smoke gate on
service semantics under concurrency, not a throughput benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

from repro.api import MeshRequest, SequentialMesher
from repro.imaging import sphere_phantom
from repro.service import (
    JobState,
    MeshingService,
    ServiceConfig,
    TransientMeshError,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_BENCH = RESULTS_DIR / "BENCH_service.json"

#: required process-over-thread throughput on a multi-core machine.
GATE_SPEEDUP = 1.5

FAILURES = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {name}" + (f"  ({detail})" if detail else ""))
    if not cond:
        FAILURES.append(name)


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


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def replay() -> None:
    image = sphere_phantom(12)
    tmp = tempfile.mkdtemp(prefix="repro-service-workload-")
    cfg = ServiceConfig(n_workers=4, queue_capacity=8,
                        cache_dir=os.path.join(tmp, "cache"),
                        max_retries=2, retry_backoff=0.01)
    service = MeshingService(cfg, meshers={
        "sequential": SequentialMesher(),
        "flaky": FlakyOnce(SequentialMesher(),
                           os.path.join(tmp, "flaky-once")),
        "poisoned": Poisoned(),
    }).start()
    print(f"executor: {service.executor}")

    print("phase 1: cold misses (two param sets, one image)")
    r1 = service.mesh(MeshRequest(image=image, delta=3.0,
                                  mesher="sequential"))
    r2 = service.mesh(MeshRequest(image=image, delta=4.0,
                                  mesher="sequential"))
    check("cold runs produce meshes", r1.n_tets > 0 and r2.n_tets > 0)

    print("phase 2: warm hits")
    w1 = service.mesh(MeshRequest(image=image, delta=3.0,
                                  mesher="sequential"))
    check("warm mesh topology-identical",
          w1.n_tets == r1.n_tets and w1.n_vertices == r1.n_vertices)

    print("phase 3: poisoned requests (unknown mesher, failing mesher)")
    try:
        service.submit(MeshRequest(image=image, delta=3.0, mesher="no-such"))
        unknown_refused = False
    except ValueError:
        unknown_refused = True
    check("unknown mesher refused at submit", unknown_refused)
    try:
        service.mesh(MeshRequest(image=image, delta=3.0, mesher="poisoned"))
        poisoned_rejected = False
    except Exception:
        poisoned_rejected = True
    check("poisoned request rejected, service alive", poisoned_rejected)

    print("phase 4: transient fault recovered by retry")
    rf = service.mesh(MeshRequest(image=image, delta=5.0, mesher="flaky"))
    check("flaky mesher recovered", rf.n_tets > 0)

    print("phase 5: over-capacity burst")
    jobs = [service.submit(MeshRequest(image=image, delta=3.0 + 0.1 * i,
                                       mesher="sequential"))
            for i in range(20)]
    for job in jobs:
        ok = job.wait(120.0)
        check(f"{job.id} terminal", ok and job.done, job.state.value)
    states = {j.state for j in jobs}
    check("burst states are DONE/REJECTED only",
          states <= {JobState.DONE, JobState.REJECTED}, str(states))
    n_rejected = sum(j.state is JobState.REJECTED for j in jobs)
    check("burst overflowed the 8-slot queue", n_rejected >= 1,
          f"{n_rejected} rejected")

    print("phase 6: metrics audit")
    snap = service.metrics_snapshot()
    c, g = snap["counters"], snap["gauges"]
    check("service.cache.hit >= 1", c.get("service.cache.hit", 0) >= 1,
          str(c.get("service.cache.hit")))
    check("service.cache.miss >= 2", c.get("service.cache.miss", 0) >= 2,
          str(c.get("service.cache.miss")))
    check("service.jobs.retries == 1", c.get("service.jobs.retries") == 1,
          str(c.get("service.jobs.retries")))
    check("service.jobs.rejected == burst rejections",
          c.get("service.jobs.rejected", 0) == n_rejected,
          str(c.get("service.jobs.rejected")))
    check("poisoned request is the only failure",
          c.get("service.jobs.failed") == 1,
          str(c.get("service.jobs.failed")))
    check("no worker crashed the pool", g.get("service.workers.alive") == 4,
          str(g.get("service.workers.alive")))
    if service.executor == "process":
        check("jobs ran remotely", c.get("service.jobs.remote", 0) >= 1,
              str(c.get("service.jobs.remote")))
        check("no worker process crashed",
              c.get("service.worker.crashes", 0) == 0,
              str(c.get("service.worker.crashes")))
    books = (c.get("service.jobs.completed", 0)
             + c.get("service.jobs.failed", 0)
             + c.get("service.jobs.rejected", 0)
             + c.get("service.jobs.cancelled", 0)
             + c.get("service.jobs.timed_out", 0))
    check("every submitted job accounted for",
          books == c.get("service.jobs.submitted"),
          f"{books} vs {c.get('service.jobs.submitted')}")

    service.shutdown()
    check("workers drained on shutdown", service.pool.alive_workers == 0)


def _timed_batch(executor: str, n_workers: int, n_jobs: int,
                 phantom_n: int, delta0: float) -> dict:
    """Mesh ``n_jobs`` distinct cache misses; returns timing + config."""
    image = sphere_phantom(phantom_n)
    tmp = tempfile.mkdtemp(prefix=f"repro-execbench-{executor}-")
    service = MeshingService(ServiceConfig(
        n_workers=n_workers, queue_capacity=n_jobs + 4,
        cache_dir=tmp, executor=executor)).start()
    try:
        # Warmup: spawn workers / prime imports off the clock.
        service.mesh(MeshRequest(image=image, delta=delta0 + 9.0,
                                 mesher="sequential"))
        t0 = time.perf_counter()
        jobs = [service.submit(MeshRequest(image=image,
                                           delta=delta0 + 0.003 * i,
                                           mesher="sequential"))
                for i in range(n_jobs)]
        for job in jobs:
            job.wait(600.0)
        seconds = time.perf_counter() - t0
        done = sum(j.state is JobState.DONE for j in jobs)
        return {
            "executor": service.executor,
            "n_workers": n_workers,
            "jobs": n_jobs,
            "jobs_done": done,
            "seconds": seconds,
            "jobs_per_second": done / seconds if seconds > 0 else 0.0,
        }
    finally:
        service.shutdown()


def executor_bench(out_path: pathlib.Path, n_jobs: int,
                   phantom_n: int) -> None:
    cpus = usable_cpus()
    enforced = cpus >= 2
    print(f"executor bench: {n_jobs} CPU-bound misses, 4 workers, "
          f"{cpus} usable CPU(s), gate "
          f"{'ENFORCED' if enforced else 'advisory'}")

    thread = _timed_batch("thread", 4, n_jobs, phantom_n, 1.0)
    print(f"  thread : {thread['seconds']:.2f}s "
          f"({thread['jobs_per_second']:.2f} jobs/s)")
    process = _timed_batch("process", 4, n_jobs, phantom_n, 1.0)
    print(f"  process: {process['seconds']:.2f}s "
          f"({process['jobs_per_second']:.2f} jobs/s)")

    speedup = (process["jobs_per_second"] / thread["jobs_per_second"]
               if thread["jobs_per_second"] > 0 else 0.0)
    passed = speedup >= GATE_SPEEDUP
    doc = {
        "schema": 1,
        "workload": {"jobs": n_jobs, "phantom_n": phantom_n,
                     "n_workers": 4, "mesher": "sequential"},
        "cpus": cpus,
        "thread": thread,
        "process": process,
        "speedup_process_over_thread": speedup,
        "gate": {"required": GATE_SPEEDUP, "enforced": enforced,
                 "passed": passed},
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  speedup: {speedup:.2f}x (required {GATE_SPEEDUP}x, "
          f"{'enforced' if enforced else 'advisory'}) -> {out_path}")

    check("all thread-executor jobs done",
          thread["jobs_done"] == n_jobs, str(thread["jobs_done"]))
    check("all process-executor jobs done",
          process["jobs_done"] == n_jobs, str(process["jobs_done"]))
    if enforced:
        check(f"process >= {GATE_SPEEDUP}x thread", passed,
              f"{speedup:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--executor-bench", action="store_true",
                        help="run the thread-vs-process comparison and "
                             "write BENCH_service.json")
    parser.add_argument("--skip-replay", action="store_true",
                        help="with --executor-bench: skip the workload "
                             "replay half")
    parser.add_argument("--bench-out", default=str(DEFAULT_BENCH),
                        help="output path for BENCH_service.json")
    parser.add_argument("--bench-jobs", type=int, default=8,
                        help="cache-miss jobs per executor in the bench")
    parser.add_argument("--bench-phantom", type=int, default=16,
                        help="phantom edge length for the bench jobs")
    args = parser.parse_args(argv)

    if not (args.executor_bench and args.skip_replay):
        replay()
    if args.executor_bench:
        executor_bench(pathlib.Path(args.bench_out), args.bench_jobs,
                       args.bench_phantom)

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
