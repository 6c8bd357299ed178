"""Optional C accelerator for the Bowyer-Watson hot paths.

When a C compiler is available, :data:`bw_insert`, :data:`bw_commit`,
:data:`bw_insert_many` and :data:`bw_remove` hold ctypes handles to the
kernels in ``bw_kernel.c`` (compiled once, cached by source hash);
otherwise they are ``None`` and the pure-Python kernels run unchanged.
The C routines drive whole operations (walk, cavity search, validation,
commit; batched insertion; a sequential vertex removal from ball to
commit) directly on the mesh's struct-of-arrays buffers.  A commit owns
the tet rows, the adjacency and the ``v2t`` anchors; the vertex store,
the free lists, the per-slot epochs and the vertex grid stay with the
Python caller.  On any inconclusive floating point filter the routines
return *without mutating anything* and the caller re-runs the Python
filtered/exact path, so meshes are bit-identical with and without the
accelerator — the C path is purely an execution strategy, never a
semantic change.  One exact zero needs no exact arithmetic and is
concluded in C: four points sharing a coordinate bit for bit (samples
on one axis-aligned voxel face) have orientation 0, and the C consumers
decide it as the Python kernel does.  Every RETRY carries a reason
(:data:`RETRY_REASONS`), counted per triangulation and published as
``kernel.accel_retry.<reason>``.

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
    "free_window",      # needs free-list entries below the window
    "growth",           # needs array growth
    "scratch",          # scratch, hash table or record overflow
    "removal_tie",      # removal: degenerate sweep or refused fill
)
_WHY_SCRATCH = RETRY_REASONS.index("scratch")

_SRC = Path(__file__).with_name("bw_kernel.c")

# Scratch sizing.  Cavities larger than _SCRATCH_CAP tets/faces (or
# needing more than _FREE_CAP free-list pops) RETRY into the Python
# path, which has no such limits; typical cavities are 20-60 faces.
_SCRATCH_CAP = 4096
_TABLE_CAP = 16384  # power of two; >= 2 * 3 * _SCRATCH_CAP for sparsity
_FREE_CAP = 256

# Batched insertion: points per ctypes crossing, internal free-stack
# depth, and replay-record capacity (the batch stops early, with
# progress, when a record would overflow).
_BATCH_CAP = 512
_FSTK_CAP = 8192
_REC_CAP = 1 << 16

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
        source = _SRC.read_bytes()
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
                 "-fno-math-errno", str(_SRC), "-o", str(tmp)],
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
bw_insert = _handle(_LIB, "bw_insert", 17)
bw_commit = _handle(_LIB, "bw_commit", 15)
bw_insert_many = _handle(_LIB, "bw_insert_many", 20)
bw_remove = _handle(_LIB, "bw_remove", 22)
AVAILABLE = bw_insert is not None


class AccelScratch:
    """Per-consumer scratch buffers + cached pointers for the kernels.

    The argument tuples of raw pointers are rebuilt only when one of the
    mesh's arrays is reallocated (growth), which keeps the per-call
    ctypes overhead to the function call itself.  The tag array and the
    edge hash table are epoch-stamped by the caller's generation
    counter, so they are never cleared.  The batched-insertion and
    removal buffers are allocated lazily on first use.
    """

    __slots__ = (
        "cav", "bnd", "newt", "stk", "ekey", "estamp", "eval_", "pairs",
        "free_top", "in_f", "in_i", "out_i", "tag",
        "fstk", "fwin", "rec", "pts",
        "faces", "link", "ents", "cand", "fill", "canon", "mate", "ext",
        "_coords", "_tv", "_adj", "_v2t", "_args", "_args_commit",
        "_args_many", "_args_remove",
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
        self.free_top = np.empty(_FREE_CAP, dtype=np.int32)
        self.in_f = np.empty(3, dtype=np.float64)
        self.in_i = np.zeros(16, dtype=np.int64)
        self.out_i = np.zeros(16, dtype=np.int64)
        self.tag = None
        self.fstk = None
        self.fwin = None
        self.rec = None
        self.pts = None
        self.faces = None
        self.link = None
        self.ents = None
        self.cand = None
        self.fill = None
        self.canon = None
        self.mate = None
        self.ext = None
        self._coords = None
        self._tv = None
        self._adj = None
        self._v2t = None
        self._args = None
        self._args_commit = None
        self._args_many = None
        self._args_remove = None

    def _bind(self, mesh) -> None:
        coords = mesh.coords
        tv = mesh.tet_verts_arr
        adj = mesh.tet_adj
        v2t = mesh.v2t
        if (coords is self._coords and tv is self._tv and adj is self._adj
                and v2t is self._v2t):
            return
        cap_t = adj.shape[0]
        if self.tag is None or self.tag.shape[0] < cap_t:
            # Fresh zeros are fine: the generation counter only grows,
            # so stale stamps can never collide with a future call.
            self.tag = np.zeros(cap_t, dtype=np.int64)
        self._coords = coords
        self._tv = tv
        self._adj = adj
        self._v2t = v2t
        p = ctypes.c_void_p
        self._args = tuple(
            p(arr.ctypes.data)
            for arr in (coords, tv, adj, v2t, self.tag, self.free_top,
                        self.cav, self.bnd, self.newt, self.stk,
                        self.ekey, self.estamp, self.eval_, self.pairs,
                        self.in_f, self.in_i, self.out_i)
        )
        self._args_commit = tuple(
            p(arr.ctypes.data)
            for arr in (coords, tv, adj, v2t, self.free_top, self.cav,
                        self.bnd, self.newt, self.ekey, self.estamp,
                        self.eval_, self.pairs, self.in_f, self.in_i,
                        self.out_i)
        )
        self._args_many = None  # rebuilt lazily (batch buffers)
        self._args_remove = None

    def _fill_window(self, mesh, n_free_total: int) -> int:
        n_avail = n_free_total if n_free_total < _FREE_CAP else _FREE_CAP
        if n_avail:
            self.free_top[:n_avail] = mesh._free_tets[-n_avail:][::-1]
        return n_avail

    def insert(self, mesh, px, py, pz, seed_tet, rng_state, gen, vnew,
               n_free_total) -> int:
        """Run one C insert attempt; returns a BW_* status code."""
        self._bind(mesh)
        in_f = self.in_f
        in_f[0] = px
        in_f[1] = py
        in_f[2] = pz
        n_avail = self._fill_window(mesh, n_free_total)
        in_i = self.in_i
        in_i[0] = seed_tet
        in_i[1] = rng_state
        in_i[2] = mesh.n_live_tets
        in_i[3] = gen
        in_i[4] = vnew
        in_i[5] = mesh.tet_top
        in_i[6] = self._adj.shape[0]
        in_i[7] = n_avail
        in_i[8] = n_free_total
        in_i[9] = _SCRATCH_CAP
        in_i[10] = _TABLE_CAP
        return bw_insert(*self._args)

    def commit(self, mesh, px, py, pz, gen, vnew, n_free_total,
               cavity, boundary_codes) -> int:
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
        n_avail = self._fill_window(mesh, n_free_total)
        in_i = self.in_i
        in_i[0] = gen
        in_i[1] = vnew
        in_i[2] = mesh.tet_top
        in_i[3] = self._adj.shape[0]
        in_i[4] = n_avail
        in_i[5] = n_free_total
        in_i[6] = _TABLE_CAP
        in_i[7] = ncav
        in_i[8] = nb
        return bw_commit(*self._args_commit)

    def _bind_many(self) -> None:
        if self.fstk is None:
            self.fstk = np.empty(_FSTK_CAP, dtype=np.int32)
            self.fwin = np.empty(_SCRATCH_CAP, dtype=np.int32)
            self.rec = np.empty(_REC_CAP, dtype=np.int32)
            self.pts = np.empty((_BATCH_CAP, 3), dtype=np.float64)
        if self._args_many is None:
            p = ctypes.c_void_p
            self._args_many = tuple(
                p(arr.ctypes.data)
                for arr in (self._coords, self._tv, self._adj, self._v2t,
                            self.tag, self.free_top, self.cav, self.bnd,
                            self.newt,
                            self.stk, self.ekey, self.estamp, self.eval_,
                            self.pairs, self.fstk, self.fwin, self.rec,
                            self.pts, self.in_i, self.out_i)
            )

    def insert_many(self, mesh, points, seed_tet, rng_state, gen0,
                    v_base, n_free_total) -> np.ndarray:
        """Run one batched insertion crossing over ``points``.

        ``points`` is a sequence of (x, y, z); at most ``_BATCH_CAP``
        are attempted.  Returns the ``out_i`` array (``n_done``,
        ``n_gens``, rng state, last located tet, counter totals, record
        length, live/tail totals, stop reason); replay records are in
        ``self.rec``.
        """
        self._bind(mesh)
        self._bind_many()
        npts = min(len(points), _BATCH_CAP)
        self.pts[:npts] = points[:npts]
        n_avail = n_free_total if n_free_total < _FSTK_CAP else _FSTK_CAP
        if n_avail > _FREE_CAP:
            free = np.asarray(mesh._free_tets[-n_avail:], dtype=np.int32)
            if self.free_top.shape[0] < n_avail:
                self.free_top = np.empty(n_avail, dtype=np.int32)
                self._args = None
                self._coords = None  # force pointer rebuild
                self._bind(mesh)
                self._bind_many()
            self.free_top[:n_avail] = free[::-1]
        else:
            n_avail = self._fill_window(mesh, n_free_total)
        in_i = self.in_i
        in_i[0] = seed_tet
        in_i[1] = rng_state
        in_i[2] = mesh.n_live_tets
        in_i[3] = gen0
        in_i[4] = v_base
        in_i[5] = mesh.tet_top
        in_i[6] = self._adj.shape[0]
        in_i[7] = n_avail
        in_i[8] = n_free_total
        in_i[9] = _SCRATCH_CAP
        in_i[10] = _TABLE_CAP
        in_i[11] = npts
        in_i[12] = mesh.coords.shape[0]
        in_i[13] = _FSTK_CAP
        in_i[14] = _REC_CAP
        bw_insert_many(*self._args_many)
        return self.out_i

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
            p = ctypes.c_void_p
            self._args_remove = tuple(
                p(arr.ctypes.data)
                for arr in (self._coords, self._tv, self._adj, self._v2t,
                            self.tag, self.free_top, self.cav, self.stk,
                            self.faces, self.link, self.ents, self.cand,
                            self.fill, self.canon, self.newt, self.mate,
                            self.ext, self.ekey, self.estamp, self.eval_,
                            self.in_i, self.out_i)
            )

    def remove(self, mesh, v, gen, n_free_total) -> int:
        """Run one C vertex removal (sequential path).

        Returns the fill-tet count — the mesh arrays are committed, the
        new tet ids are ``self.newt[:n]``, the ball's ``self.cav[:out_i[0]]``
        — or ``REMOVE_RETRY`` with nothing mutated and the reason in
        ``out_i[5]``.
        """
        self._bind_remove(mesh)
        n_avail = self._fill_window(mesh, n_free_total)
        in_i = self.in_i
        in_i[0] = v
        in_i[1] = gen
        in_i[2] = mesh.tet_top
        in_i[3] = self._adj.shape[0]
        in_i[4] = n_avail
        in_i[5] = n_free_total
        in_i[6] = _SCRATCH_CAP
        in_i[7] = _LINK_CAP
        in_i[8] = _ENT_CAP
        in_i[9] = _FILL_CAP
        in_i[10] = _TABLE_CAP
        return bw_remove(*self._args_remove)
