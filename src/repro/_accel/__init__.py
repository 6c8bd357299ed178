"""Optional C accelerator for the Bowyer-Watson hot paths.

When a C compiler is available, :data:`bw_insert`, :data:`bw_commit`,
:data:`bw_insert_many` and :data:`bw_remove` hold ctypes handles to the
kernels in ``bw_kernel.c`` (compiled once, cached by source hash);
otherwise they are ``None`` and the pure-Python kernels run unchanged.
The C routines drive whole operations (walk, cavity search, validation,
commit; batched insertion; a sequential vertex removal from ball to
commit) directly on the mesh's struct-of-arrays buffers.  A commit owns
the tet rows, the adjacency, the ``v2t`` anchors and the tet allocator:
it pops the mesh's free-slot stack, bumps the popped slots' epochs,
takes fresh slots from the tail and pushes the slots it frees, in the
order ``MeshArrays`` would.  The vertex store, and the stores into the
vertex grid, stay with the Python caller.  On any inconclusive floating
point filter the routines return *without mutating anything* and the
caller re-runs the Python filtered/exact path, so meshes are
bit-identical with and
without the accelerator — the C path is purely an execution strategy,
never a semantic change.  One exact zero needs no exact arithmetic and is
concluded in C: four points sharing a coordinate bit for bit (samples
on one axis-aligned voxel face) have orientation 0, and the C consumers
decide it as the Python kernel does.  Every RETRY carries a reason
(:data:`RETRY_REASONS`), counted per triangulation and published as
``kernel.accel_retry.<reason>``.

The same library holds the refinement rules' proximity grid
(``pointgrid.c``); :data:`grid` binds its entry points, or is ``None``
and ``core.pointgrid`` keeps its dict-of-cells reference grid.  It also
holds the surface oracle's Amanatides-Woo traversal (``rays.c``): the
site lookup, the closest-point ray and the segment crossing, scalar and
as one loop over a batch of rows.  :data:`rays` binds those, or is
``None`` and ``imaging.isosurface`` runs its Python reference traversal.
The triangulation's vertex grid and the walk's seed probe are
``vgrid.c`` (:data:`vgrid`, else ``DictSeedGrid``); ``bw_insert`` and
``bw_insert_many`` run the probe themselves when handed the grid.  The
rule check of one tet is ``judge.c`` (:data:`judge`, reading a
:class:`JudgeContext`): it returns the rule R1-R5 and its point as
``RefineDomain.judge`` would, or a defer code (:data:`DEFER_REASONS`)
where its arithmetic may differ from the reference's, and then the
Python judge decides.  Every entry point but the four ``bw_*`` is bound
through ``PyDLL`` and runs whole under the interpreter lock.

Set ``REPRO_ACCEL=0`` to disable the accelerator (e.g. to benchmark
the pure-Python kernel, or to rule it out while debugging).  Compile and load failures degrade silently to
the Python path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Status codes returned by bw_insert / bw_commit (keep in sync with
# bw_kernel.c).
OK = 0
RETRY = 1
ERR_DUP = 2
ERR_FACE = 3
ERR_CLOSED = 4

# bw_remove returns a fill-tet count > 0 or this retry sentinel.
REMOVE_RETRY = -1

# Why a kernel returned RETRY, indexed by the BW_WHY_* code it leaves in
# out_i (keep in sync with bw_kernel.c).
RETRY_REASONS = (
    "other",            # dead or cycling walk, stale anchor, error status
    "walk_filter",      # orientation filter during point location
    "insphere_filter",  # insphere filter (cavity search, apex sweep)
    "orient_filter",    # orientation filter (validation, fill)
    "growth",           # needs array growth (a batch: passes its bound)
    "scratch",          # scratch or hash table overflow
    "removal_tie",      # removal: degenerate sweep or refused fill
)
_WHY_SCRATCH = RETRY_REASONS.index("scratch")

_SRCS = tuple(Path(__file__).with_name(name)
              for name in ("bw_kernel.c", "pointgrid.c", "rays.c",
                           "vgrid.c", "judge.c"))

# Scratch sizing.  Cavities larger than _SCRATCH_CAP tets/faces RETRY
# into the Python path, which has no such limits; typical cavities are
# 20-60 faces.  Before each call the mesh is grown to _SCRATCH_CAP slots
# past its tail, so no cavity or fill the kernel accepts needs growth.
_SCRATCH_CAP = 4096
_TABLE_CAP = 16384  # power of two; >= 2 * 3 * _SCRATCH_CAP for sparsity

# Batched insertion: points per ctypes crossing.
_BATCH_CAP = 512

# Vertex removal: advancing-front entry slots (9 ints each), fill-tet
# capacity, and the largest link the C path accepts (its face keys pack
# three link positions of 12 bits).  Balls are capped by _SCRATCH_CAP.
_ENT_CAP = 8192
_FILL_CAP = 2048
_LINK_CAP = 4096


def _disabled() -> bool:
    return os.environ.get("REPRO_ACCEL", "").strip() == "0"


def _load():
    """Compile (cached) and load the kernel library; None on failure."""
    if _disabled():
        return None
    try:
        source = b"".join(src.read_bytes() for src in _SRCS)
    except OSError:
        return None
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    tag = hashlib.sha256(source).hexdigest()[:16]
    cache_root = os.environ.get("REPRO_ACCEL_CACHE")
    if cache_root:
        cache = Path(cache_root)
    else:
        uid = getattr(os, "getuid", lambda: 0)()
        cache = Path(tempfile.gettempdir()) / f"repro-accel-{uid}"
    so = cache / f"bw_kernel-{tag}.so"
    if not so.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            tmp = so.with_name(f".{so.name}.{os.getpid()}.tmp")
            # -ffp-contract=off is load-bearing: the filter error bounds
            # assume every double operation is individually rounded, and
            # FMA contraction breaks that.  No -ffast-math for the same
            # reason.
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-ffp-contract=off",
                 "-fno-math-errno", *map(str, _SRCS), "-o", str(tmp)],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, so)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        return ctypes.CDLL(str(so))
    except OSError:
        return None


def _handle(lib, name: str, nargs: int):
    if lib is None:
        return None
    try:
        fn = getattr(lib, name)
    except AttributeError:
        return None
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_void_p] * nargs
    return fn


_LIB = _load()
bw_insert = _handle(_LIB, "bw_insert", 19)
bw_commit = _handle(_LIB, "bw_commit", 16)
bw_insert_many = _handle(_LIB, "bw_insert_many", 19)
bw_remove = _handle(_LIB, "bw_remove", 23)
AVAILABLE = bw_insert is not None

# The point grid's entry points (pointgrid.c, ``pg_<name>``): restype,
# then argtypes.
_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_GRID = {
    "new": (_P, _D),
    "free": (None, _P),
    "len": (_I, _P),
    "contains": (ctypes.c_bool, _P, _I),
    "add": (_I, _P, _I, _D, _D, _D),
    "remove": (None, _P, _I),
    "any_within": (ctypes.c_bool, _P, _D, _D, _D, _D, _I),
    "query_ball": (_I, _P, _D, _D, _D, _D, _P, _I),
    "any_within_many": (None, _P, _P, _I, _D, _P),
}


# The surface oracle's entry points (rays.c, ``ray_<name>``), likewise.
_RAYS = {
    "crossing": (_I, _P, _P, _D, _D, _D, _D, _D, _D, _P),
    "site": (_I, _P, _P, _D, _D, _D, _P),
    "closest": (_I, _P, _P, _P, _D, _D, _D, _P),
    "sites_many": (_I, _P, _P, _P, _I, _P),
    "closest_many": (_I, _P, _P, _P, _P, _I, _P, _P),
}


def _entry_points(lib, prefix: str, table):
    """The entry points ``prefix + name`` of ``table`` as attributes
    (``grid.add``, ``rays.closest``, ...), or None.  Bound through
    ``PyDLL`` on the loaded library: a call keeps the interpreter lock
    from entry to return, so each one is atomic for the refinement
    threads that share a grid."""
    if lib is None:
        return None
    lib = ctypes.PyDLL(lib._name, handle=lib._handle)
    try:
        fns = {name: getattr(lib, prefix + name) for name in table}
    except AttributeError:
        return None
    for name, (restype, *argtypes) in table.items():
        fns[name].restype = restype
        fns[name].argtypes = argtypes
    return SimpleNamespace(**fns)


# The triangulation's vertex grid and seed probe (vgrid.c, ``vg_<name>``).
_VGRID = {
    "new": (_P, _D, _D, _D, _D, _I),
    "free": (None, _P),
    "add": (_I, _P, _P, _P, _I, _I),
    "drop": (None, _P, _P, _I, _I),
    "cells": (_I, _P, _P, _I),
    "seed": (_I, _P, _P, _P, _I, _P, _I, _D, _D, _D, _I, _I),
}


class JudgeContext(ctypes.Structure):
    """What ``judge`` reads (judge.c's ``judge_ctx``): the mesh arrays,
    the circumball store's rows, the vertex kinds, the image, R1's point
    grid and the rules' numbers.  The caller rewrites a pointer when its
    array moves."""

    _fields_ = [
        ("coords", _P), ("tv", _P), ("adj", _P), ("epoch", _P),
        ("rows", _P), ("n_rows", _I), ("kinds", _P), ("n_kinds", _I),
        ("labels", _P), ("feature", _P), ("geometry", _P), ("iso", _P),
        ("delta", _D), ("slack", _D), ("re_bound", _D), ("cos_bound", _D),
        ("size", _D), ("hull", _D * 16), ("hull_margin", _D),
    ]


# judge's verdicts (keep in sync with judge.c): 0 no rule, 1-5 the rule
# R1-R5 with its point (| JUDGE_MIDPOINT: the longest edge's midpoint
# replaced the circumcentre), JUDGE_SIZE when Python's size function
# decides R5, and JUDGE_DEFER - k when Python judges the tet for
# DEFER_REASONS[k].
JUDGE_SIZE = 6
JUDGE_MIDPOINT = 8
JUDGE_DEFER = -1
DEFER_REASONS = (
    "reach_tie",   # R1's reach test within math.dist's rounding
    "angle_tie",   # R3's planar angle within math.acos's rounding of 30
    "edge_tie",    # R4's radius-edge ratio within math.dist's rounding
    "midpoint",    # two longest edges within math.dist's rounding
    "nonfinite",   # a centre that is not finite (the reference raises)
)

grid = _entry_points(_LIB, "pg_", _GRID)
rays = _entry_points(_LIB, "ray_", _RAYS)
vgrid = _entry_points(_LIB, "vg_", _VGRID)
_judge = _entry_points(_LIB, "", {"judge": (_I, _P, _I, _P)})
judge = None if _judge is None else _judge.judge


class AccelScratch:
    """Per-consumer scratch buffers + cached pointers for the kernels.

    The argument tuples of raw pointers are rebuilt only when one of the
    mesh's arrays is reallocated (growth), which keeps the per-call
    ctypes overhead to the function call itself.  The tag array and the
    edge hash table are epoch-stamped by the caller's generation
    counter, so they are never cleared.  The batched-insertion and
    removal buffers are allocated lazily on first use.

    Each call hands the kernel the mesh's allocator (free-slot stack,
    its count, the epochs, the tail) and, after a commit, writes the
    counts the kernel returns back into the mesh.
    """

    __slots__ = (
        "cav", "bnd", "newt", "stk", "ekey", "estamp", "eval_", "pairs",
        "in_f", "in_i", "out_i", "tag", "pts",
        "faces", "link", "ents", "cand", "fill", "canon", "mate", "ext",
        "_arrays", "_args", "_args_commit", "_args_many", "_args_remove",
    )

    def __init__(self) -> None:
        self.cav = np.empty(_SCRATCH_CAP, dtype=np.int32)
        self.bnd = np.empty(_SCRATCH_CAP, dtype=np.int32)
        self.newt = np.empty(_SCRATCH_CAP, dtype=np.int32)
        self.stk = np.empty(_SCRATCH_CAP, dtype=np.int32)
        self.ekey = np.empty(_TABLE_CAP, dtype=np.int64)
        self.estamp = np.zeros(_TABLE_CAP, dtype=np.int64)
        self.eval_ = np.empty(_TABLE_CAP, dtype=np.int32)
        self.pairs = np.empty(3 * _SCRATCH_CAP, dtype=np.int32)
        self.in_f = np.empty(3, dtype=np.float64)
        self.in_i = np.zeros(16, dtype=np.int64)
        self.out_i = np.zeros(16, dtype=np.int64)
        self.tag = None
        self.pts = None
        self.faces = None
        self.link = None
        self.ents = None
        self.cand = None
        self.fill = None
        self.canon = None
        self.mate = None
        self.ext = None
        self._arrays = (None,) * 6
        self._args = None
        self._args_commit = None
        self._args_many = None
        self._args_remove = None

    def _bind(self, mesh) -> None:
        """Reserve the headroom a call can use, then (re)build the
        pointer tuples if an array moved."""
        mesh.reserve_tets(mesh.tet_top + _SCRATCH_CAP)
        # Growth replaces the tet arrays together, and coords with v2t.
        if mesh.coords is self._arrays[0] and mesh.tet_adj is self._arrays[2]:
            return
        arrays = (mesh.coords, mesh.tet_verts_arr, mesh.tet_adj, mesh.v2t,
                  mesh.tet_free, mesh.tet_epoch)
        cap_t = mesh.tet_adj.shape[0]
        if self.tag is None or self.tag.shape[0] < cap_t:
            # Fresh zeros are fine: the generation counter only grows,
            # so stale stamps can never collide with a future call.
            self.tag = np.zeros(cap_t, dtype=np.int64)
        self._arrays = arrays
        self._args = _pointers(
            *arrays, self.tag, self.cav, self.bnd, self.newt, self.stk,
            self.ekey, self.estamp, self.eval_, self.pairs, self.in_f,
            self.in_i, self.out_i)
        self._args_commit = _pointers(
            *arrays, self.cav, self.bnd, self.newt, self.ekey, self.estamp,
            self.eval_, self.pairs, self.in_f, self.in_i, self.out_i)
        self._args_many = None  # rebuilt lazily (batch buffers)
        self._args_remove = None

    def _alloc_in(self, mesh, at: int) -> None:
        """The allocator's tail, capacity and free count, into
        ``in_i[at:at + 3]``."""
        in_i = self.in_i
        in_i[at] = mesh.tet_top
        in_i[at + 1] = mesh.tet_adj.shape[0]
        in_i[at + 2] = mesh.n_free_tets

    @staticmethod
    def _alloc_out(mesh, n_free, tail, born) -> None:
        """Hand a commit's allocator counts back to the mesh."""
        mesh.n_free_tets = int(n_free)
        mesh.tet_top = int(tail)
        mesh.n_live_tets += int(born)

    def insert(self, mesh, px, py, pz, seed, rng_state, gen, vnew,
               last_located, vgrid) -> int:
        """Run one C insert attempt; returns a BW_* status code.

        With ``vgrid`` (a ``vg_*`` handle) ``seed`` is the caller's hint
        (-1: none) and the kernel probes the grid for the walk's first
        tet, leaving which candidate it took in ``out_i[10]``; with
        ``None``, ``seed`` is that tet."""
        self._bind(mesh)
        in_f = self.in_f
        in_f[0] = px
        in_f[1] = py
        in_f[2] = pz
        in_i = self.in_i
        in_i[0] = seed
        in_i[1] = rng_state
        in_i[2] = mesh.n_live_tets
        in_i[3] = gen
        in_i[4] = vnew
        self._alloc_in(mesh, 5)
        in_i[8] = _SCRATCH_CAP
        in_i[9] = _TABLE_CAP
        in_i[10] = last_located
        in_i[11] = mesh.coords.shape[0]
        status = bw_insert(*self._args, vgrid)
        if status == OK:
            out = self.out_i
            self._alloc_out(mesh, out[2], out[3], out[1] - out[0])
        return status

    def commit(self, mesh, px, py, pz, gen, vnew, cavity,
               boundary_codes) -> int:
        """Commit a precomputed cavity (speculative path); BW_* status.

        ``cavity`` is the list of cavity tet ids, ``boundary_codes`` the
        ``t*4+i`` codes in the Python kernel's emission order.  Returns
        ``RETRY`` without calling C when the cavity exceeds the scratch.
        """
        ncav = len(cavity)
        nb = len(boundary_codes)
        if ncav > _SCRATCH_CAP or nb > _SCRATCH_CAP:
            self.out_i[:4] = (0, 0, 0, _WHY_SCRATCH)
            return RETRY
        self._bind(mesh)
        self.cav[:ncav] = cavity
        self.bnd[:nb] = boundary_codes
        in_f = self.in_f
        in_f[0] = px
        in_f[1] = py
        in_f[2] = pz
        in_i = self.in_i
        in_i[0] = gen
        in_i[1] = vnew
        self._alloc_in(mesh, 2)
        in_i[5] = _TABLE_CAP
        in_i[6] = ncav
        in_i[7] = nb
        status = bw_commit(*self._args_commit)
        if status == OK:
            out = self.out_i
            self._alloc_out(mesh, out[0], out[1], nb - ncav)
        return status

    def insert_many(self, mesh, points, seed_tet, rng_state, gen0,
                    v_base, slot_bound, vert_bound, last_located,
                    vgrid) -> np.ndarray:
        """Run one batched insertion crossing over ``points``.

        ``points`` is a sequence of (x, y, z); at most ``_BATCH_CAP``
        are attempted, and the batch stops before an insert that would
        take a slot at or past ``slot_bound`` or a vertex id at or past
        ``vert_bound`` (both within the arrays).  With ``vgrid`` the
        kernel probes it for the first walk's seed (``seed_tet`` unused).
        Returns the ``out_i`` array (``n_done``, ``n_gens``, rng state,
        last located tet, counter totals, allocator counts, stop reason,
        the probe's candidate).
        """
        npts = min(len(points), _BATCH_CAP)
        self._bind(mesh)
        if self.pts is None:
            self.pts = np.empty((_BATCH_CAP, 3), dtype=np.float64)
        if self._args_many is None:
            self._args_many = _pointers(
                *self._arrays, self.tag, self.cav, self.bnd, self.newt,
                self.stk, self.ekey, self.estamp, self.eval_, self.pairs,
                self.pts, self.in_i, self.out_i)
        self.pts[:npts] = points[:npts]
        in_i = self.in_i
        in_i[0] = seed_tet
        in_i[1] = rng_state
        in_i[2] = mesh.n_live_tets
        in_i[3] = gen0
        in_i[4] = v_base
        self._alloc_in(mesh, 5)
        in_i[6] = slot_bound  # in place of the capacity
        in_i[8] = _SCRATCH_CAP
        in_i[9] = _TABLE_CAP
        in_i[10] = npts
        in_i[11] = vert_bound
        in_i[12] = last_located
        bw_insert_many(*self._args_many, vgrid)
        out = self.out_i
        self._alloc_out(mesh, out[8], out[10], out[9] - mesh.n_live_tets)
        return out

    def _bind_remove(self, mesh) -> None:
        self._bind(mesh)
        if self.ents is None:
            self.ents = np.empty(9 * _ENT_CAP, dtype=np.int32)
            self.cand = np.empty(_LINK_CAP, dtype=np.int32)
            self.fill = np.empty(4 * _FILL_CAP, dtype=np.int32)
            self.canon = np.empty(4 * _FILL_CAP, dtype=np.int32)
            self.mate = np.empty(4 * _FILL_CAP, dtype=np.int32)
            self.faces = np.empty(5 * _SCRATCH_CAP, dtype=np.int32)
            self.ext = np.empty(2 * _SCRATCH_CAP, dtype=np.int32)
            self.link = np.empty(_LINK_CAP, dtype=np.int32)
        if self._args_remove is None:
            self._args_remove = _pointers(
                *self._arrays, self.tag, self.cav, self.stk, self.faces,
                self.link, self.ents, self.cand, self.fill, self.canon,
                self.newt, self.mate, self.ext, self.ekey, self.estamp,
                self.eval_, self.in_i, self.out_i)

    def remove(self, mesh, v, gen) -> int:
        """Run one C vertex removal (sequential path).

        Returns the fill-tet count — the mesh arrays are committed, the
        new tet ids are ``self.newt[:n]``, the ball's ``self.cav[:out_i[0]]``
        — or ``REMOVE_RETRY`` with nothing mutated and the reason in
        ``out_i[5]``.
        """
        self._bind_remove(mesh)
        in_i = self.in_i
        in_i[0] = v
        in_i[1] = gen
        self._alloc_in(mesh, 2)
        in_i[5] = _SCRATCH_CAP
        in_i[6] = _LINK_CAP
        in_i[7] = _ENT_CAP
        in_i[8] = _FILL_CAP
        in_i[9] = _TABLE_CAP
        n_fill = bw_remove(*self._args_remove)
        if n_fill >= 0:
            out = self.out_i
            self._alloc_out(mesh, out[1], out[2], n_fill - out[0])
        return n_fill


def _pointers(*arrays):
    """The arrays' data pointers, as a ctypes argument tuple."""
    return tuple(ctypes.c_void_p(a.ctypes.data) for a in arrays)
