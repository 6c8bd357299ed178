"""Kernel hot-path micro-benchmarks with a JSON artifact and a
regression gate.

Runs three canonical seeded workloads (the same family the
``tests/data/kernel_parity.json`` goldens pin) through both kernel
paths:

* ``insert``  — scalar hint-chained insertion, pure-Python vs the C
  accelerator;
* ``removal`` — vertex removal (build a triangulation, remove interior
  vertices), pure-Python hole filling vs the C removal kernel;
* ``batch``   — ``insert_many`` batched insertion vs the scalar accel
  loop (amortised ctypes crossings).

Uniform random points are not what the service inserts, so a fourth
workload replays its traffic:

* ``voxel_face`` — the final vertex set of one ``abdominal_phantom(32)``
  refinement (isosurface samples on axis-aligned voxel faces, the
  circumcenters between them) inserted one by one in timestamp order,
  then every circumcenter removed; on both kernels, with the share of
  attempts the C kernel handed back (and why) and the seconds of Python
  glue per second spent inside C.

The fifth workload is the refiner's other per-tet cost, the surface
oracle (numpy against Python, no C on either side):

* ``rays`` — the circumcenters one ``abdominal_phantom(32)`` refinement
  hands to ``SurfaceOracle.closest_surface_points``, answered
  generation by generation by the batched traversal and, one call a
  ray, by the scalar ``closest_surface_point`` the judge keeps.

It writes ``BENCH_kernels.json`` (default:
``benchmarks/results/BENCH_kernels.json``, schema 5) holding the
throughputs, the machine's CPU count, the committed pre-overhaul
baseline, and the accel/python speedups for every workload.

``--check-regression`` turns the run into a CI gate.  Absolute
throughput is machine-dependent, so the gate is ratio-based: the
accel/python speedup measured *on this machine* must stay above 80% of
the committed reference speedup (a >20% relative throughput drop of the
fast path fails the job).  On machines without a C compiler the gate
degrades to checking the pure-Python path against its own floor, and
the ``rays`` ratio, which needs no compiler.

Usage::

    PYTHONPATH=src python benchmarks/kernel_bench.py [--fast]
        [--check-regression] [-o PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro import _accel
from repro.api import MeshRequest, mesh
from repro.core.domain import RefineDomain, VertexKind
from repro.core.refiner import SequentialRefiner
from repro.delaunay import RemovalError, Triangulation3D
from repro.imaging import SurfaceOracle, abdominal_phantom

# Every ctypes entry point the kernel dispatches on.  Disabling the
# accelerator for a measurement must null ALL of them — each call site
# checks its own handle, so nulling only ``bw_insert`` would leave the
# removal/batch/commit paths accelerated.
_HANDLE_NAMES = ("bw_insert", "bw_commit", "bw_insert_many", "bw_remove")


@contextmanager
def _handles_replaced(replace):
    """Every entry point ``h`` is ``replace(h)`` while the block runs."""
    saved = {name: getattr(_accel, name) for name in _HANDLE_NAMES}
    for name, handle in saved.items():
        setattr(_accel, name, replace(handle))
    try:
        yield
    finally:
        for name, handle in saved.items():
            setattr(_accel, name, handle)


def _accel_disabled():
    return _handles_replaced(lambda handle: None)


@contextmanager
def _c_seconds():
    """Yields a one-item list: the seconds spent inside the C entry
    points while the block runs."""
    spent = [0.0]

    def timed(fn):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[0] += time.perf_counter() - t0
        return call

    with _handles_replaced(timed):
        yield spent


# Throughput of the pre-overhaul pure-Python kernel on the reference
# machine (committed with the kernel overhaul PR; the "before" column
# of the README table).
PRE_OVERHAUL_INSERTS_PER_SECOND = 1688.1
# Accel/python speedup measured on the reference machine when the C
# kernel landed.  The regression gate allows a 20% drop from this.
REFERENCE_SPEEDUP = 8.0
GATE_FRACTION = 0.8
# Floor for the pure-Python path relative to itself: it must complete
# the workload at all and not collapse (compiler-less CI fallback).
PYTHON_FLOOR_INSERTS_PER_SECOND = 300.0
# Accel/python vertex-removal speedup on the reference machine when the
# C removal kernel landed (acceptance floor was 3x; gate allows a 20%
# drop from the committed reference).
REMOVAL_REFERENCE_SPEEDUP = 3.0
# Batched insert_many vs the scalar accel loop on the reference machine.
BATCH_REFERENCE_SPEEDUP = 1.2
# Batched closest-surface-point rays vs one scalar call a ray, on the
# reference machine when the batch landed.
RAYS_REFERENCE_SPEEDUP = 2.0
N_POINTS = 400
SEED = 7

# Removal workload: the insert_remove golden's shape (build, then strip
# interior vertices).
REMOVE_SEED = 21
REMOVE_N_POINTS = 250
REMOVE_COUNT = 80
REMOVE_SHUFFLE_SEED = 5

# Voxel-face workload: the image whose refinement is replayed, and the
# largest share of attempts the C kernel may hand back to Python.
VOXEL_FACE_N = 32
VOXEL_FACE_MAX_RETRY_SHARE = 0.01

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).parent / "results" / "BENCH_kernels.json"
)


def _workload():
    rng = random.Random(SEED)
    return [
        tuple(rng.uniform(0.02, 0.98) for _ in range(3))
        for _ in range(N_POINTS)
    ]


def _insert_all(points):
    tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    hint = None
    for p in points:
        _, ntets, _ = tri.insert_point(p, hint)
        hint = ntets[0]
    return tri


def _insert_batched(points):
    tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    tri.insert_many(points)
    return tri


def _measure(points, repeats, fn=_insert_all):
    """Best-of-``repeats`` insertion throughput (inserts per second)."""
    best = float("inf")
    tri = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        tri = fn(points)
        dt = time.perf_counter() - t0
        best = min(best, dt)
    return len(points) / best, tri


def _removal_workload():
    rng = random.Random(REMOVE_SEED)
    return [
        tuple(rng.uniform(0.05, 0.95) for _ in range(3))
        for _ in range(REMOVE_N_POINTS)
    ]


def _build_removal_tri():
    """Fresh triangulation + deterministic victim order for one repeat.

    The build always runs with whatever accelerator is loaded — only
    the removal loop itself is timed (and, for the python measurement,
    de-accelerated)."""
    tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    inserted = tri.insert_many(_removal_workload())
    verts = [v for v in inserted if v is not None]
    random.Random(REMOVE_SHUFFLE_SEED).shuffle(verts)
    return tri, verts


def _remove_loop(tri, verts):
    t0 = time.perf_counter()
    n = 0
    for v in verts:
        try:
            tri.remove_vertex(v)
        except RemovalError:
            continue
        n += 1
        if n >= REMOVE_COUNT:
            break
    return n, time.perf_counter() - t0


def _measure_removals(repeats, use_accel):
    """Best-of-``repeats`` vertex-removal throughput (removals/second)."""
    best = float("inf")
    tri = None
    n_removed = 0
    for _ in range(repeats):
        tri, verts = _build_removal_tri()
        if use_accel:
            n, dt = _remove_loop(tri, verts)
        else:
            with _accel_disabled():
                n, dt = _remove_loop(tri, verts)
        best = min(best, dt)
        n_removed = n
    return n_removed / best, tri


def _voxel_face_workload():
    """The service's traffic: what one refinement left behind.

    Returns ``(new_tri, points, is_circumcenter)``: a factory of empty
    triangulations in the refiner's own box, and the live vertices of a
    sequential ``abdominal_phantom(VOXEL_FACE_N)`` mesh in
    insertion-timestamp order."""
    image = abdominal_phantom(VOXEL_FACE_N)
    domain = mesh(MeshRequest(image=image, mesher="sequential")
                  ).extras["domain"]
    store = domain.tri.mesh
    live = sorted((v for v in range(4, len(store.points))
                   if store.alive_vertex[v]),
                  key=store.timestamps.__getitem__)

    def new_tri():
        return RefineDomain(image, delta=domain.delta,
                            oracle=domain.oracle).tri

    return (new_tri, [store.points[v] for v in live],
            [domain.vertex_kind[v] == VertexKind.CIRCUMCENTER for v in live])


def _voxel_face_pass(workload):
    """One timed replay: insert everything, remove the circumcenters."""
    new_tri, points, is_circumcenter = workload
    tri = new_tri()
    t0 = time.perf_counter()
    verts, hint = [], None
    for p in points:
        v, new_tets, _ = tri.insert_point(p, hint)
        verts.append(v)
        hint = new_tets[0]
    t1 = time.perf_counter()
    removed = 0
    for v, doomed in zip(verts, is_circumcenter):
        if doomed:
            try:
                tri.remove_vertex(v)
            except RemovalError:
                continue
            removed += 1
    t2 = time.perf_counter()
    return tri, removed, t1 - t0, t2 - t1


def _voxel_face_kernel(workload, repeats):
    """Best-of-``repeats`` rates of the voxel-face replay on whichever
    kernel is enabled."""
    best_insert = best_remove = float("inf")
    for _ in range(repeats):
        tri, removed, dt_insert, dt_remove = _voxel_face_pass(workload)
        best_insert = min(best_insert, dt_insert)
        best_remove = min(best_remove, dt_remove)
    return tri, {
        "inserts_per_second": round(len(workload[1]) / best_insert, 1),
        "removals_per_second": round(removed / best_remove, 1),
        "removed": removed,
        "n_tets": tri.n_tets,
    }


def _voxel_face_section(fast, accel_available):
    workload = _voxel_face_workload()
    repeats = 2 if fast else 4
    with _accel_disabled():
        _, python = _voxel_face_kernel(workload, repeats)
    section = {
        "workload": {"image": f"abdominal_phantom({VOXEL_FACE_N})",
                     "n_points": len(workload[1]),
                     "n_circumcenters": sum(workload[2]),
                     "repeats": repeats},
        "python": python,
        "accel": None,
    }
    if not accel_available:
        return section
    tri, accel = _voxel_face_kernel(workload, repeats)
    c = tri.counters
    retried = c.accel_retries + c.accel_remove_retries
    accel["accel_retry_share"] = round(
        retried / (retried + c.accel_inserts + c.accel_removals), 5)
    accel["retry_reasons"] = {
        reason: n for reason, n in c.accel_retry_reasons.items() if n}
    # One more pass with a clock around every C call: what is left of
    # the wall time is the Python around them.
    with _c_seconds() as spent:
        _, _, dt_insert, dt_remove = _voxel_face_pass(workload)
    accel["python_seconds_per_c_second"] = round(
        (dt_insert + dt_remove - spent[0]) / spent[0], 2)
    section["accel"] = accel
    section["same_mesh"] = (accel["n_tets"] == python["n_tets"]
                            and accel["removed"] == python["removed"])
    section["insert_speedup"] = round(
        accel["inserts_per_second"] / python["inserts_per_second"], 2)
    section["removal_speedup"] = round(
        accel["removals_per_second"] / python["removals_per_second"], 2)
    return section


def _ray_generations():
    """The oracle of one ``abdominal_phantom(VOXEL_FACE_N)`` refinement
    and the circumcenters its screen asked about, one array per
    generation that asked."""
    image = abdominal_phantom(VOXEL_FACE_N)
    oracle = SurfaceOracle(image)
    batch = oracle.closest_surface_points
    generations = []

    def recording(points):
        if len(points):
            generations.append(np.array(points))
        return batch(points)

    oracle.closest_surface_points = recording
    SequentialRefiner(RefineDomain(image, oracle=oracle)).refine()
    del oracle.closest_surface_points
    return oracle, generations


def _rays_section(fast):
    oracle, generations = _ray_generations()
    repeats = 3 if fast else 7
    best_scalar = best_batch = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar = [list(map(oracle.closest_surface_point,
                           map(tuple, centers.tolist())))
                  for centers in generations]
        t1 = time.perf_counter()
        batched = [oracle.closest_surface_points(centers)
                   for centers in generations]
        t2 = time.perf_counter()
        best_scalar = min(best_scalar, t1 - t0)
        best_batch = min(best_batch, t2 - t1)
    n_rays = sum(map(len, generations))
    same = all(
        (tuple(row) == expected if found else expected is None)
        for (hit, z), answers in zip(batched, scalar)
        for found, row, expected in zip(hit.tolist(), z.tolist(), answers))
    return {
        "workload": {"image": f"abdominal_phantom({VOXEL_FACE_N})",
                     "generations": len(generations), "n_rays": n_rays,
                     "repeats": repeats},
        "scalar_rays_per_second": round(n_rays / best_scalar, 1),
        "batch_rays_per_second": round(n_rays / best_batch, 1),
        "same_answers": same,
        "speedup": round(best_scalar / best_batch, 2),
        "reference_speedup": RAYS_REFERENCE_SPEEDUP,
    }


def _rays_regressed(rays):
    """Prints why, when the ``rays`` section fails its gate."""
    floor = GATE_FRACTION * RAYS_REFERENCE_SPEEDUP
    if rays["speedup"] >= floor and rays["same_answers"]:
        return False
    print(f"REGRESSION: batched rays {rays['speedup']:.2f}x over the "
          f"scalar loop, gate {floor:.2f}x (80% of reference "
          f"{RAYS_REFERENCE_SPEEDUP}x); same answers: "
          f"{rays['same_answers']}", file=sys.stderr)
    return True


def run(fast=False, check_regression=False, output=DEFAULT_OUTPUT):
    repeats = 3 if fast else 7
    points = _workload()
    accel_available = _accel.bw_insert is not None

    with _accel_disabled():
        py_ips, py_tri = _measure(points, repeats)

    if accel_available:
        accel_ips, accel_tri = _measure(points, repeats)
        c = accel_tri.counters
        accel_detail = {
            "inserts_per_second": round(accel_ips, 1),
            "accel_inserts": c.accel_inserts,
            "accel_retries": c.accel_retries,
            "mean_walk_length": round(c.mean_walk_length, 3),
        }
        speedup = accel_ips / py_ips
    else:
        accel_ips = None
        accel_detail = {"inserts_per_second": None}
        speedup = None

    # --- vertex-removal workload -------------------------------------
    rm_repeats = max(2, repeats // 2)  # each repeat rebuilds the mesh
    py_rps, _ = _measure_removals(rm_repeats, use_accel=False)
    if accel_available:
        accel_rps, rm_tri = _measure_removals(rm_repeats, use_accel=True)
        rm_c = rm_tri.counters
        rm_speedup = accel_rps / py_rps
        removal = {
            "python_removals_per_second": round(py_rps, 1),
            "accel_removals_per_second": round(accel_rps, 1),
            "accel_removals": rm_c.accel_removals,
            "accel_remove_retries": rm_c.accel_remove_retries,
            "speedup": round(rm_speedup, 2),
            "reference_speedup": REMOVAL_REFERENCE_SPEEDUP,
        }
    else:
        accel_rps = None
        rm_speedup = None
        removal = {
            "python_removals_per_second": round(py_rps, 1),
            "accel_removals_per_second": None,
            "speedup": None,
            "reference_speedup": REMOVAL_REFERENCE_SPEEDUP,
        }

    # --- batched insertion workload ----------------------------------
    if accel_available:
        batch_ips, batch_tri = _measure(points, repeats, fn=_insert_batched)
        bc = batch_tri.counters
        batch_speedup = batch_ips / accel_ips
        batch = {
            "scalar_inserts_per_second": round(accel_ips, 1),
            "batched_inserts_per_second": round(batch_ips, 1),
            "batch_inserts": bc.accel_batch_inserts,
            "ctypes_crossings": bc.accel_batch_calls,
            "speedup": round(batch_speedup, 2),
            "reference_speedup": BATCH_REFERENCE_SPEEDUP,
        }
    else:
        batch_speedup = None
        batch = {
            "scalar_inserts_per_second": None,
            "batched_inserts_per_second": None,
            "speedup": None,
            "reference_speedup": BATCH_REFERENCE_SPEEDUP,
        }

    # --- the service's traffic: voxel-face points ---------------------
    voxel_face = _voxel_face_section(fast, accel_available)

    # --- the surface oracle: a generation's rays at once --------------
    rays = _rays_section(fast)

    doc = {
        "schema": 5,
        "cpus": os.cpu_count() or 1,
        "workload": {
            "name": "insert-uniform-box",
            "seed": SEED,
            "n_points": N_POINTS,
            "repeats": repeats,
            "n_tets": py_tri.n_tets,
            "removal": {
                "seed": REMOVE_SEED,
                "n_points": REMOVE_N_POINTS,
                "n_removed": REMOVE_COUNT,
                "repeats": rm_repeats,
            },
        },
        "pre_overhaul_baseline": {
            "inserts_per_second": PRE_OVERHAUL_INSERTS_PER_SECOND,
            "note": "pure-Python kernel before the hot-path overhaul, "
                    "reference machine",
        },
        "python_path": {"inserts_per_second": round(py_ips, 1)},
        "accel_path": {"available": accel_available, **accel_detail},
        "speedup_accel_over_python": (
            round(speedup, 2) if speedup is not None else None
        ),
        "reference_speedup": REFERENCE_SPEEDUP,
        "removal": removal,
        "batch": batch,
        "voxel_face": voxel_face,
        "rays": rays,
    }

    output = pathlib.Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(doc, indent=2) + "\n")

    print(f"python path : {py_ips:>10,.1f} inserts/s")
    if accel_available:
        print(f"accel path  : {accel_ips:>10,.1f} inserts/s "
              f"(speedup {speedup:.2f}x, retries "
              f"{accel_detail['accel_retries']})")
        print(f"removal     : {accel_rps:>10,.1f} removals/s vs "
              f"{py_rps:,.1f} python ({rm_speedup:.2f}x, retries "
              f"{removal['accel_remove_retries']})")
        print(f"batched     : {batch['batched_inserts_per_second']:>10,.1f}"
              f" inserts/s vs scalar accel ({batch_speedup:.2f}x, "
              f"{batch['ctypes_crossings']} crossings)")
    else:
        print("accel path  : unavailable (no C compiler or REPRO_ACCEL=0)")
        print(f"removal     : {py_rps:>10,.1f} removals/s (python only)")
    for kernel in ("python", "accel"):
        vf = voxel_face[kernel]
        if vf is None:
            continue
        extra = ""
        if kernel == "accel":
            extra = (f"  retry share {vf['accel_retry_share']:.4f} "
                     f"{vf['retry_reasons']}, "
                     f"{vf['python_seconds_per_c_second']:.1f} s of Python "
                     "per s of C")
        print(f"voxel faces : {vf['inserts_per_second']:>10,.1f} inserts/s "
              f"{vf['removals_per_second']:,.1f} removals/s ({kernel})"
              + extra)
    print(f"rays        : {rays['batch_rays_per_second']:>10,.1f} rays/s "
          f"batched vs {rays['scalar_rays_per_second']:,.1f} scalar "
          f"({rays['speedup']:.2f}x, {rays['workload']['n_rays']} rays in "
          f"{rays['workload']['generations']} generations)")
    print(f"wrote {output}")

    if not check_regression:
        return 0

    failed = _rays_regressed(rays)
    if accel_available:
        floor = GATE_FRACTION * REFERENCE_SPEEDUP
        if speedup < floor:
            print(f"REGRESSION: accel/python speedup {speedup:.2f}x is "
                  f"below the gate {floor:.2f}x "
                  f"(80% of reference {REFERENCE_SPEEDUP}x)",
                  file=sys.stderr)
            failed = True
        rm_floor = GATE_FRACTION * REMOVAL_REFERENCE_SPEEDUP
        if rm_speedup < rm_floor:
            print(f"REGRESSION: removal speedup {rm_speedup:.2f}x is "
                  f"below the gate {rm_floor:.2f}x "
                  f"(80% of reference {REMOVAL_REFERENCE_SPEEDUP}x)",
                  file=sys.stderr)
            failed = True
        batch_floor = GATE_FRACTION * BATCH_REFERENCE_SPEEDUP
        if batch_speedup < batch_floor:
            print(f"REGRESSION: batched-insert speedup {batch_speedup:.2f}x "
                  f"is below the gate {batch_floor:.2f}x "
                  f"(80% of reference {BATCH_REFERENCE_SPEEDUP}x)",
                  file=sys.stderr)
            failed = True
        # Counts, not timings: the same on every machine.
        share = voxel_face["accel"]["accel_retry_share"]
        if share >= VOXEL_FACE_MAX_RETRY_SHARE or not voxel_face["same_mesh"]:
            print(f"REGRESSION: voxel-face replay hands {share:.4f} of its "
                  f"attempts back to Python (limit "
                  f"{VOXEL_FACE_MAX_RETRY_SHARE}), same mesh on both "
                  f"kernels: {voxel_face['same_mesh']}", file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f"regression gate OK: insert {speedup:.2f}x >= {floor:.2f}x, "
              f"removal {rm_speedup:.2f}x >= {rm_floor:.2f}x, "
              f"batch {batch_speedup:.2f}x >= {batch_floor:.2f}x, "
              f"rays {rays['speedup']:.2f}x >= "
              f"{GATE_FRACTION * RAYS_REFERENCE_SPEEDUP:.2f}x")
    else:
        if py_ips < PYTHON_FLOOR_INSERTS_PER_SECOND:
            print(f"REGRESSION: python path {py_ips:.1f} inserts/s is "
                  f"below the floor {PYTHON_FLOOR_INSERTS_PER_SECOND}",
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print("regression gate OK (python path and rays only: accel "
              "unavailable)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="3 repeats instead of 7 (CI setting)")
    parser.add_argument("--check-regression", action="store_true",
                        help="exit 1 on a >20% relative throughput drop")
    parser.add_argument("-o", "--output", default=str(DEFAULT_OUTPUT),
                        help="where to write BENCH_kernels.json")
    args = parser.parse_args(argv)
    return run(fast=args.fast, check_regression=args.check_regression,
               output=args.output)


if __name__ == "__main__":
    sys.exit(main())
