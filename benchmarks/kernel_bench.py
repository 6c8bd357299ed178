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
oracle (C against Python):

* ``rays`` — the circumcenters one ``abdominal_phantom(32)`` refinement
  hands to ``SurfaceOracle.closest_surface_points``, answered one
  ``closest_surface_point`` call a ray by the Python reference
  traversal, and by the C traversal two ways: one call a ray (the
  judge's) and one batch a generation (the screen's).  Every answer is
  compared, on every run.

The sixth is the refinement rules' δ-proximity queries (C against
Python):

* ``grid`` — every call one ``abdominal_phantom(32)`` refinement makes
  on its two point grids (adds, removes, R1's scalar and batched
  ``any_within``, R6's ``query_ball``), replayed in order on the C grid
  and on the dict-of-cells reference, answers compared call for call.

The seventh and eighth are the per-tet rule check and the walk's seed
(C against Python), on one ``abdominal_phantom(32)`` refinement:

* ``judge`` — the refinement run twice, once judged by the C judge
  (with its deferrals answered by the Python judge, as in production)
  and once by the Python judge alone; it is one mesh, so the two runs
  make the same calls, and every answer is compared call for call.
* ``seed`` — every vertex-grid call of the refinement (stores, drops,
  seed probes) made on the C grid and on the dict reference side by
  side, answers compared call for call.

It writes ``BENCH_kernels.json`` (schema 8) holding the throughputs,
the machine's CPU count, the committed pre-overhaul baseline, and the
accel/python speedups for every workload: to ``-o PATH``, else — for a
full run only — to the committed record
``benchmarks/results/BENCH_kernels.json``.  A ``--fast`` run without
``-o`` writes nothing, so a gate run never replaces the record.

``--check-regression`` turns the run into a CI gate.  Absolute
throughput is machine-dependent, so the gate is ratio-based: the
accel/python speedup measured *on this machine* must stay above 80% of
the committed reference speedup (a >20% relative throughput drop of the
fast path fails the job).  On machines without a C compiler the gate
degrades to checking the pure-Python path against its own floor; the
``grid``, ``rays``, ``judge`` and ``seed`` ratios, and their
``same_answers``, are gated when the library is loaded.

Usage::

    PYTHONPATH=src python benchmarks/kernel_bench.py [--fast]
        [--check-regression] [-o PATH]
"""

from __future__ import annotations

import argparse
import json
import math
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
from repro.core.pointgrid import AccelGrid, ReferenceGrid
from repro.core.refiner import SequentialRefiner
from repro.delaunay import RemovalError, Triangulation3D
from repro.delaunay.triangulation import DictSeedGrid
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
# One refinement's closest-surface-point rays on the C traversal vs the
# Python reference (one call a ray), on the reference machine (2 vCPUs)
# when the C traversal landed: the generation batch, and one C call a
# ray (32.2-55.5x and 2.21-3.04x over eight runs).
RAYS_REFERENCE_SPEEDUP = 32.0
RAYS_SCALAR_REFERENCE_SPEEDUP = 2.4
# The replayed δ-grid calls on the C grid vs the dict-of-cells
# reference, on the reference machine (2 vCPUs) when the C grid landed
# (7.7-8.3x over three runs).
GRID_REFERENCE_SPEEDUP = 7.5
# One refinement's judged tets on the C judge (ctypes glue and the
# deferred tets' Python verdicts included) vs the Python judge, and its
# vertex-grid calls on the C grid vs the dict reference, on the
# reference machine (2 vCPUs) when both landed (3.4-4.2x and 1.55-1.62x
# over four runs).
JUDGE_REFERENCE_SPEEDUP = 3.4
SEED_REFERENCE_SPEEDUP = 1.5
GRID_METHODS = ("add", "remove", "any_within", "query_ball",
                "any_within_many")
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

    kinds = domain.kinds(len(store.points))[live]
    return (new_tri, [store.points[v] for v in live],
            (kinds == VertexKind.CIRCUMCENTER).tolist())


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


def _scalar_rays(oracle, generations):
    """Seconds to ask every generation's rays one
    ``closest_surface_point`` call a ray, and the answers."""
    t0 = time.perf_counter()
    answers = [list(map(oracle.closest_surface_point,
                        map(tuple, centers.tolist())))
               for centers in generations]
    return time.perf_counter() - t0, answers


def _batched_rays(oracle, generations):
    """Seconds to ask them one ``closest_surface_points`` call a
    generation, and the answers (a row as the scalar's ``None`` or
    point)."""
    t0 = time.perf_counter()
    batched = [oracle.closest_surface_points(centers)
               for centers in generations]
    seconds = time.perf_counter() - t0
    return seconds, [[tuple(row) if found else None
                      for found, row in zip(hit.tolist(), z.tolist())]
                     for hit, z in batched]


def _rays_section(fast):
    oracle, generations = _ray_generations()
    repeats = 3 if fast else 7
    n_rays = sum(map(len, generations))
    section = {
        "workload": {"image": f"abdominal_phantom({VOXEL_FACE_N})",
                     "generations": len(generations), "n_rays": n_rays,
                     "repeats": repeats},
        "reference_rays_per_second": None,
        "accel_scalar_rays_per_second": None,
        "accel_batch_rays_per_second": None,
        "same_answers": None,
        "scalar_speedup": None,
        "speedup": None,
        "reference_speedup": RAYS_REFERENCE_SPEEDUP,
        "reference_scalar_speedup": RAYS_SCALAR_REFERENCE_SPEEDUP,
    }
    rays = _accel.rays
    if rays is None:
        return section
    best = {"reference": math.inf, "scalar": math.inf, "batch": math.inf}
    expected, same = None, True
    for _ in range(repeats):
        _accel.rays = None
        try:
            seconds, reference = _scalar_rays(oracle, generations)
        finally:
            _accel.rays = rays
        best["reference"] = min(best["reference"], seconds)
        seconds, scalar = _scalar_rays(oracle, generations)
        best["scalar"] = min(best["scalar"], seconds)
        seconds, batched = _batched_rays(oracle, generations)
        best["batch"] = min(best["batch"], seconds)
        # Every ray, every run: the reference, the C scalar and the C
        # batch answer alike, and as on the first run.
        if expected is None:
            expected = reference
        same = same and expected == reference == scalar == batched
    section.update(
        reference_rays_per_second=round(n_rays / best["reference"], 1),
        accel_scalar_rays_per_second=round(n_rays / best["scalar"], 1),
        accel_batch_rays_per_second=round(n_rays / best["batch"], 1),
        same_answers=same,
        scalar_speedup=round(best["reference"] / best["scalar"], 2),
        speedup=round(best["reference"] / best["batch"], 2))
    return section


def _rays_regressed(rays):
    """Prints why, when the ``rays`` section fails its gate."""
    floor = GATE_FRACTION * RAYS_REFERENCE_SPEEDUP
    scalar_floor = GATE_FRACTION * RAYS_SCALAR_REFERENCE_SPEEDUP
    if (rays["speedup"] >= floor and rays["scalar_speedup"] >= scalar_floor
            and rays["same_answers"]):
        return False
    print(f"REGRESSION: C rays {rays['speedup']:.2f}x batched and "
          f"{rays['scalar_speedup']:.2f}x one call a ray over the Python "
          f"reference, gates {floor:.2f}x and {scalar_floor:.2f}x (80% of "
          f"references {RAYS_REFERENCE_SPEEDUP}x and "
          f"{RAYS_SCALAR_REFERENCE_SPEEDUP}x); same answers: "
          f"{rays['same_answers']}", file=sys.stderr)
    return True


def _grid_calls():
    """Every call one ``abdominal_phantom(VOXEL_FACE_N)`` refinement makes
    on its two δ-grids, in order: ``(cells, [(grid, method, args)])``
    with ``grid`` 0 for R1's and 1 for R6's."""
    domain = RefineDomain(abdominal_phantom(VOXEL_FACE_N))
    grids = (domain.iso_grid, domain.cc_grid)
    calls = []

    def recording(k, method):
        fn = getattr(grids[k], method)

        def call(*args):
            calls.append((k, method, args))
            return fn(*args)
        return call

    for k, grid in enumerate(grids):
        for method in GRID_METHODS:
            setattr(grid, method, recording(k, method))
    SequentialRefiner(domain).refine()
    return tuple(grid.cell for grid in grids), calls


def _grid_replay(grid_class, cells, calls):
    """Seconds to replay ``calls`` on fresh grids of ``grid_class``, and
    every call's answer."""
    grids = [grid_class(cell) for cell in cells]
    bound = [(getattr(grids[k], method), args) for k, method, args in calls]
    t0 = time.perf_counter()
    answers = [fn(*args) for fn, args in bound]
    seconds = time.perf_counter() - t0
    return seconds, [a.tolist() if isinstance(a, np.ndarray) else a
                     for a in answers]


def _grid_section(fast):
    cells, calls = _grid_calls()
    repeats = 3 if fast else 7
    count = {m: sum(1 for _, method, _ in calls if method == m)
             for m in GRID_METHODS}
    n_queries = (count["any_within"] + count["query_ball"] + sum(
        len(args[0]) for _, method, args in calls
        if method == "any_within_many"))
    section = {
        "workload": {"image": f"abdominal_phantom({VOXEL_FACE_N})",
                     "calls": count, "n_queries": n_queries,
                     "repeats": repeats},
        "reference_queries_per_second": None,
        "accel_queries_per_second": None,
        "same_answers": None,
        "speedup": None,
        "reference_speedup": GRID_REFERENCE_SPEEDUP,
    }
    best, answers = {}, {}
    for name, grid_class in (("reference", ReferenceGrid),
                             ("accel", AccelGrid)):
        if name == "accel" and _accel.grid is None:
            return section
        runs = [_grid_replay(grid_class, cells, calls)
                for _ in range(repeats)]
        best[name] = min(seconds for seconds, _ in runs)
        answers[name] = runs[0][1]
        section[f"{name}_queries_per_second"] = round(
            n_queries / best[name], 1)
    section["same_answers"] = answers["accel"] == answers["reference"]
    section["speedup"] = round(best["reference"] / best["accel"], 2)
    return section


def _grid_regressed(grid):
    """Prints why, when the ``grid`` section fails its gate."""
    floor = GATE_FRACTION * GRID_REFERENCE_SPEEDUP
    if grid["speedup"] >= floor and grid["same_answers"]:
        return False
    print(f"REGRESSION: C point grid {grid['speedup']:.2f}x over the "
          f"reference, gate {floor:.2f}x (80% of reference "
          f"{GRID_REFERENCE_SPEEDUP}x); same answers: "
          f"{grid['same_answers']}", file=sys.stderr)
    return True


def _judged_refine(use_c):
    """One ``abdominal_phantom(VOXEL_FACE_N)`` refinement judged by the C
    judge (``use_c``) or the Python one: seconds spent judging, every
    decision in call order, and the deferral count."""
    domain = RefineDomain(abdominal_phantom(VOXEL_FACE_N))
    decisions = []
    spent = [0.0]
    c_judge, python_judge = domain._judge_c, domain.judge

    def timed(t):
        t0 = time.perf_counter()
        decision = c_judge(t) if use_c else None
        if decision is None:
            decision = python_judge(t)
        spent[0] += time.perf_counter() - t0
        decisions.append(decision)
        return decision

    # refine_tet asks _judge_c first and judge where it says None.
    domain._judge_c = lambda t: None
    domain.judge = timed
    SequentialRefiner(domain).refine()
    deferred = sum(domain.tri.counters.judge_deferrals.values())
    return spent[0], decisions, deferred


def _judge_section(fast):
    repeats = 3 if fast else 7
    section = {
        "workload": {"image": f"abdominal_phantom({VOXEL_FACE_N})",
                     "repeats": repeats},
        "reference_judged_per_second": None,
        "accel_judged_per_second": None,
        "deferred_share": None,
        "same_answers": None,
        "speedup": None,
        "reference_speedup": JUDGE_REFERENCE_SPEEDUP,
    }
    if _accel.judge is None:
        return section
    best = {True: math.inf, False: math.inf}
    answers = {}
    for _ in range(repeats):
        for use_c in (True, False):
            seconds, decisions, deferred = _judged_refine(use_c)
            best[use_c] = min(best[use_c], seconds)
            answers.setdefault(use_c, decisions)
            if use_c:
                n_deferred = deferred
    n = len(answers[True])
    section["workload"]["n_judged"] = n
    section.update(
        reference_judged_per_second=round(n / best[False], 1),
        accel_judged_per_second=round(n / best[True], 1),
        deferred_share=round(n_deferred / n, 5),
        same_answers=answers[True] == answers[False],
        speedup=round(best[False] / best[True], 2))
    return section


class SeedTwins:
    """A triangulation's C seed grid with the dict reference beside it:
    every store, drop and probe goes to both, timed apart, and their
    answers compared (:attr:`same`).  With ``kernels_probe`` the insert
    kernels still probe the C grid themselves (through :attr:`handle`);
    without it they take the probe's seed instead, so every probe comes
    through :meth:`seed`."""

    def __init__(self, tri, kernels_probe=False):
        lo, hi = tri._lo, tri._hi
        self.grids = {
            "accel": tri._seeds,
            "reference": DictSeedGrid(tri.mesh, lo,
                                      max(h - l for l, h in zip(lo, hi))),
        }
        self.handle = tri._seeds.handle if kernels_probe else None
        self.seconds = dict.fromkeys(self.grids, 0.0)
        self.calls = {"store": 0, "drop": 0, "seed": 0}
        self.same = True

    def _both(self, method, *args):
        self.calls[method] += 1
        answers = []
        for name, grid in self.grids.items():
            t0 = time.perf_counter()
            answers.append(getattr(grid, method)(*args))
            self.seconds[name] += time.perf_counter() - t0
        self.same = self.same and answers[0] == answers[1]
        return answers[0]

    def store(self, v, p):
        self._both("store", v, p)

    def drop(self, v):
        self._both("drop", v)

    def seed(self, x, y, z, hint, last):
        return self._both("seed", x, y, z, hint, last)


def _seed_section(fast):
    repeats = 3 if fast else 7
    section = {
        "workload": {"image": f"abdominal_phantom({VOXEL_FACE_N})",
                     "repeats": repeats},
        "reference_calls_per_second": None,
        "accel_calls_per_second": None,
        "same_answers": None,
        "speedup": None,
        "reference_speedup": SEED_REFERENCE_SPEEDUP,
    }
    if _accel.vgrid is None:
        return section
    best = {"accel": math.inf, "reference": math.inf}
    same = True
    for _ in range(repeats):
        domain = RefineDomain(abdominal_phantom(VOXEL_FACE_N))
        tri = domain.tri
        twins = tri._seeds = SeedTwins(tri)
        SequentialRefiner(domain).refine()
        same = (same and twins.same
                and twins.grids["accel"].cells()
                == twins.grids["reference"].cells())
        for name, seconds in twins.seconds.items():
            best[name] = min(best[name], seconds)
    n = sum(twins.calls.values())
    section["workload"]["calls"] = twins.calls
    section.update(
        reference_calls_per_second=round(n / best["reference"], 1),
        accel_calls_per_second=round(n / best["accel"], 1),
        same_answers=same,
        speedup=round(best["reference"] / best["accel"], 2))
    return section


def _ratio_regressed(name, section, reference):
    """Prints why, when a C-against-reference section fails its gate."""
    floor = GATE_FRACTION * reference
    if section["speedup"] >= floor and section["same_answers"]:
        return False
    print(f"REGRESSION: C {name} {section['speedup']:.2f}x over the "
          f"reference, gate {floor:.2f}x (80% of reference {reference}x); "
          f"same answers: {section['same_answers']}", file=sys.stderr)
    return True


def run(fast=False, check_regression=False, output=None):
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

    # --- the surface oracle: C against the Python reference -----------
    rays = _rays_section(fast)

    # --- the δ-proximity grids: one refinement's calls, replayed ------
    grid = _grid_section(fast)

    # --- the rule check and the walk's seed: C against Python ---------
    judge = _judge_section(fast)
    seed = _seed_section(fast)

    doc = {
        "schema": 8,
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
        "grid": grid,
        "judge": judge,
        "seed": seed,
    }

    if output is not None:
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
    if rays["speedup"] is not None:
        print(f"rays        : {rays['accel_batch_rays_per_second']:>10,.1f} "
              f"rays/s C batched, "
              f"{rays['accel_scalar_rays_per_second']:,.1f} C scalar vs "
              f"{rays['reference_rays_per_second']:,.1f} reference "
              f"({rays['speedup']:.2f}x / {rays['scalar_speedup']:.2f}x, "
              f"{rays['workload']['n_rays']} rays in "
              f"{rays['workload']['generations']} generations, same "
              f"answers: {rays['same_answers']})")
    if grid["speedup"] is not None:
        print(f"grid        : {grid['accel_queries_per_second']:>10,.1f} "
              f"queries/s C vs {grid['reference_queries_per_second']:,.1f} "
              f"reference ({grid['speedup']:.2f}x, same answers: "
              f"{grid['same_answers']})")
    if judge["speedup"] is not None:
        print(f"judge       : {judge['accel_judged_per_second']:>10,.1f} "
              f"tets/s C vs {judge['reference_judged_per_second']:,.1f} "
              f"reference ({judge['speedup']:.2f}x, deferred share "
              f"{judge['deferred_share']}, same answers: "
              f"{judge['same_answers']})")
    if seed["speedup"] is not None:
        print(f"seed        : {seed['accel_calls_per_second']:>10,.1f} "
              f"calls/s C vs {seed['reference_calls_per_second']:,.1f} "
              f"reference ({seed['speedup']:.2f}x, same answers: "
              f"{seed['same_answers']})")
    print(f"wrote {output}" if output is not None else
          "wrote nothing (a --fast run writes only to -o PATH)")

    if not check_regression:
        return 0

    failed = False
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
        if grid["speedup"] is not None and _grid_regressed(grid):
            failed = True
        if rays["speedup"] is not None and _rays_regressed(rays):
            failed = True
        if judge["speedup"] is not None and _ratio_regressed(
                "judge", judge, JUDGE_REFERENCE_SPEEDUP):
            failed = True
        if seed["speedup"] is not None and _ratio_regressed(
                "seed grid", seed, SEED_REFERENCE_SPEEDUP):
            failed = True
        if failed:
            return 1
        print(f"regression gate OK: insert {speedup:.2f}x >= {floor:.2f}x, "
              f"removal {rm_speedup:.2f}x >= {rm_floor:.2f}x, "
              f"batch {batch_speedup:.2f}x >= {batch_floor:.2f}x, "
              f"rays {rays['speedup']:.2f}x >= "
              f"{GATE_FRACTION * RAYS_REFERENCE_SPEEDUP:.2f}x (scalar "
              f"{rays['scalar_speedup']:.2f}x >= "
              f"{GATE_FRACTION * RAYS_SCALAR_REFERENCE_SPEEDUP:.2f}x), "
              f"grid {grid['speedup']:.2f}x >= "
              f"{GATE_FRACTION * GRID_REFERENCE_SPEEDUP:.2f}x, "
              f"judge {judge['speedup']:.2f}x >= "
              f"{GATE_FRACTION * JUDGE_REFERENCE_SPEEDUP:.2f}x, "
              f"seed {seed['speedup']:.2f}x >= "
              f"{GATE_FRACTION * SEED_REFERENCE_SPEEDUP:.2f}x")
    else:
        if py_ips < PYTHON_FLOOR_INSERTS_PER_SECOND:
            print(f"REGRESSION: python path {py_ips:.1f} inserts/s is "
                  f"below the floor {PYTHON_FLOOR_INSERTS_PER_SECOND}",
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print("regression gate OK (python path only: accel unavailable)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="3 repeats instead of 7 (CI setting)")
    parser.add_argument("--check-regression", action="store_true",
                        help="exit 1 on a >20% relative throughput drop")
    parser.add_argument("-o", "--output", default=None,
                        help="where to write BENCH_kernels.json (default: "
                        "the committed record, full runs only)")
    args = parser.parse_args(argv)
    output = args.output
    if output is None and not args.fast:
        output = DEFAULT_OUTPUT
    return run(fast=args.fast, check_regression=args.check_regression,
               output=output)


if __name__ == "__main__":
    sys.exit(main())
