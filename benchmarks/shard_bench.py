"""Domain-sharded meshing benchmark: sharded vs unsharded wall-clock.

Meshes the same image twice through a process-executor
:class:`~repro.service.MeshingService` — once unsharded (the whole
job in one worker process) and once with ``shards=N`` fanned out over
the pool — and writes ``BENCH_shard.json`` with both wall-clocks and
their ratio.

The speedup gate scales with the machine, because stitching is serial
overhead that parallel shard meshing must first buy back:

* ``>= 4`` usable CPUs: sharded must beat unsharded by ``>= 1.4x``
  (enforced);
* 2–3 CPUs: sharded must at least break even, ``>= 1.0x`` (enforced);
* 1 CPU (or no process support): recorded but advisory — blocks mesh
  serially, so sharding is pure overhead there by construction.

A second, *near-duplicate* workload measures the incremental path: a
ball-grid phantom with one small inclusion is meshed cold, then meshed
again with the inclusion displaced (well under 10% of voxels change).
On the second request only the block containing the inclusion misses
the block content cache; the rest replay their refined point sets and
only that block's seams are stitched again.  The incremental request
is held against the *unsharded* mesh of the same displaced frame —
what a caller would pay without the block cache — and must beat it by
``>= 1.1x`` (enforced on any CPU count: both sides are one process's
serial work, so the ratio does not scale with it).  The ratio over the
cold sharded request is recorded too, but gates nothing: a faster cold
stitch lowers it with no warm-path change.

Exit code 0 iff every enforced check holds::

    PYTHONPATH=src python benchmarks/shard_bench.py
    PYTHONPATH=src python benchmarks/shard_bench.py --fast
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

from repro.api import MeshRequest
from repro.imaging import ball_grid_phantom, near_duplicate_phantom
from repro.service import JobState, MeshingService, ServiceConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_BENCH = RESULTS_DIR / "BENCH_shard.json"

#: enforced sharded-over-unsharded speedups by usable CPU count.
GATE_4CPU = 1.4
GATE_2CPU = 1.0

#: enforced incremental-over-unsharded speedup on the displaced frame.
GATE_INCREMENTAL = 1.1
#: near-duplicate phantom size (fixed: the workload geometry is tuned
#: so the inclusion shift keeps the decomposition cut planes put).
INCR_PHANTOM_N = 48
INCR_SHIFT = 2.0
INCR_DELTA = 2.0
INCR_SHARDS = 4

FAILURES = []


def check(name, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {name}" + (f"  ({detail})" if detail else ""))
    if not cond:
        FAILURES.append(name)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _timed_job(service, request):
    t0 = time.perf_counter()
    job = service.submit(request)
    job.wait(1200.0)
    seconds = time.perf_counter() - t0
    if job.state is not JobState.DONE:
        raise RuntimeError(
            f"benchmark job {job.state}: {job.error or 'no error'}"
        )
    return seconds, job


def run_near_duplicate(service) -> dict:
    """Incremental vs unsharded (and vs cold sharded) on the
    near-duplicate inclusion workload."""
    base = near_duplicate_phantom(INCR_PHANTOM_N)
    shifted = near_duplicate_phantom(INCR_PHANTOM_N,
                                     inclusion_shift=INCR_SHIFT)
    changed = int((base.labels != shifted.labels).sum())
    frac = changed / base.labels.size
    print(f"  near-duplicate: {changed} voxels changed ({frac:.3%})")

    cold_s, cold = _timed_job(service, MeshRequest(
        image=base, mesher="sequential", delta=INCR_DELTA,
        shards=INCR_SHARDS))
    incr_s, incr = _timed_job(service, MeshRequest(
        image=shifted, mesher="sequential", delta=INCR_DELTA,
        shards=INCR_SHARDS))
    plain_s, plain = _timed_job(service, MeshRequest(
        image=shifted, mesher="sequential", delta=INCR_DELTA))
    bc = incr.result.stats.get("block_cache", {})
    stitch = incr.result.stats.get("stitch", {})
    speedup = plain_s / incr_s if incr_s > 0 else 0.0
    over_cold = cold_s / incr_s if incr_s > 0 else 0.0
    print(f"  cold       : {cold_s:.2f}s ({cold.result.mesh.n_tets} tets)")
    print(f"  unsharded  : {plain_s:.2f}s ({plain.result.mesh.n_tets} tets, "
          "displaced frame)")
    print(f"  incremental: {incr_s:.2f}s ({incr.result.mesh.n_tets} tets, "
          f"{bc.get('hits', 0)} block hits / {bc.get('misses', 0)} "
          f"misses, stitch {stitch.get('mode', '?')}, tier {incr.tier})")

    check("incremental run replayed cached blocks",
          bc.get("hits", 0) >= 1 and bc.get("misses", 0) >= 1,
          f"hits={bc.get('hits', 0)} misses={bc.get('misses', 0)}")
    check("incremental job landed on block_hit tier",
          incr.tier == "block_hit", str(incr.tier))
    passed = speedup >= GATE_INCREMENTAL
    print(f"  incremental speedup: {speedup:.2f}x over unsharded "
          f"(required {GATE_INCREMENTAL}x, enforced), "
          f"{over_cold:.2f}x over cold sharded")
    check(f"incremental >= {GATE_INCREMENTAL}x unsharded", passed,
          f"{speedup:.2f}x")
    return {
        "workload": {"phantom": "near_duplicate",
                     "phantom_n": INCR_PHANTOM_N,
                     "inclusion_shift": INCR_SHIFT,
                     "delta": INCR_DELTA, "shards": INCR_SHARDS,
                     "changed_voxels": changed,
                     "changed_fraction": frac},
        "cold": {"seconds": cold_s, "tets": cold.result.mesh.n_tets},
        "unsharded": {"seconds": plain_s,
                      "tets": plain.result.mesh.n_tets},
        "incremental": {"seconds": incr_s,
                        "tets": incr.result.mesh.n_tets,
                        "block_hits": bc.get("hits", 0),
                        "block_misses": bc.get("misses", 0),
                        "stitch_mode": stitch.get("mode"),
                        "tier": incr.tier},
        "speedup_incremental_over_unsharded": speedup,
        "speedup_incremental_over_cold": over_cold,
        "gate": {"required": GATE_INCREMENTAL, "enforced": True,
                 "passed": passed},
    }


def run(out_path: pathlib.Path, phantom_n: int, shards: int) -> None:
    cpus = usable_cpus()
    required = GATE_4CPU if cpus >= 4 else GATE_2CPU
    enforced = cpus >= 2
    print(f"shard bench: ball-grid n={phantom_n}, shards={shards}, "
          f"{cpus} usable CPU(s), gate "
          f"{'ENFORCED' if enforced else 'advisory'}")

    image = ball_grid_phantom(phantom_n)
    tmp = tempfile.mkdtemp(prefix="repro-shard-bench-")
    n_workers = max(2, min(shards, cpus))
    service = MeshingService(ServiceConfig(
        n_workers=n_workers, cache_dir=tmp, executor="process",
    )).start()
    try:
        # Warmup off the clock: spawn workers, prime imports.
        service.mesh(MeshRequest(image=ball_grid_phantom(16),
                                 mesher="sequential"))
        plain_s, plain_job = _timed_job(service, MeshRequest(
            image=image, mesher="sequential"))
        plain = plain_job.result
        print(f"  unsharded: {plain_s:.2f}s "
              f"({plain.mesh.n_tets} tets)")
        shard_s, shard_job = _timed_job(service, MeshRequest(
            image=image, mesher="sequential", shards=shards))
        sharded = shard_job.result
        n_blocks = sharded.stats.get("shards", 1)
        print(f"  sharded  : {shard_s:.2f}s "
              f"({sharded.mesh.n_tets} tets, {n_blocks} blocks)")
        near_dup = run_near_duplicate(service)
    finally:
        service.shutdown()

    speedup = plain_s / shard_s if shard_s > 0 else 0.0
    passed = speedup >= required
    doc = {
        "schema": 3,
        "workload": {"phantom": "ball_grid", "phantom_n": phantom_n,
                     "shards_requested": shards, "blocks": n_blocks,
                     "n_workers": n_workers, "mesher": "sequential"},
        "cpus": cpus,
        "unsharded": {"seconds": plain_s, "tets": plain.mesh.n_tets},
        "sharded": {"seconds": shard_s, "tets": sharded.mesh.n_tets,
                    "stitch": sharded.stats.get("stitch", {})},
        "speedup_sharded_over_unsharded": speedup,
        "gate": {"required": required, "enforced": enforced,
                 "passed": passed},
        "near_duplicate": near_dup,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  speedup: {speedup:.2f}x (required {required}x, "
          f"{'enforced' if enforced else 'advisory'}) -> {out_path}")

    check("sharded job actually sharded", n_blocks >= 2, str(n_blocks))
    if enforced:
        check(f"sharded >= {required}x unsharded", passed,
              f"{speedup:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="smaller phantom (CI smoke)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("-o", "--output", default=str(DEFAULT_BENCH))
    args = parser.parse_args(argv)

    run(pathlib.Path(args.output), 32 if args.fast else 48, args.shards)
    if FAILURES:
        print(f"{len(FAILURES)} gate check(s) failed: {FAILURES}")
        return 1
    print("all enforced gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
