"""Low-level tetrahedral mesh storage with face-to-face adjacency.

Storage layout (struct-of-arrays, free-stack recycled).  The NumPy
arrays are the *only* authority for tet connectivity since the mirror
retirement: every consumer — the Python kernel, the vectorized batch
predicates and the C accelerator — reads ``tet_verts_arr``/``tet_adj``
directly (``row.tolist()`` turns a row into native ints once per tet,
which is what the scalar hot paths index with).

* ``coords``             – ``(capacity, 3) float64`` vertex coordinates.
* ``points[v]``          – the same coordinates as a 3-tuple of floats
                           (scalar mirror; identical bit patterns —
                           kept because pulling ``np.float64`` scalars
                           out of an ndarray is 2-5x slower than native
                           float arithmetic).
* ``timestamps[v]``      – global insertion counter; the shard layer
                           exports a block's vertices in this order (no
                           removal reads it).
* ``alive_vertex[v]``    – False once a vertex has been removed.
* ``tet_verts_arr``      – ``(capacity, 4) int32`` vertex ids per tet;
                           ``-1`` rows for dead/recycled slots.
* ``tet_adj``            – ``(capacity, 4) int32``; ``tet_adj[t][i]`` is
                           the tet sharing the face opposite local
                           vertex ``i``; ``HULL`` (-1) on the hull.
* ``tet_top``            – one past the highest slot ever allocated
                           (the array tail; dead slots below it are on
                           the free stack).
* ``tet_free``           – ``(capacity,) int32`` free-slot stack, bottom
                           first; ``tet_free[:n_free_tets]`` are the dead
                           slots below ``tet_top`` and the next pop is
                           the last of them.  A new tet takes a popped
                           slot (LIFO) before a fresh one from the tail;
                           a killed tet's slot is pushed.
* ``n_free_tets``        – how many entries of ``tet_free`` are live.
* ``tet_epoch``          – ``(capacity,) int32``; bumped every time a
                           popped slot is handed out again, so a record
                           kept by ``(tet, epoch)`` (Poor Element List
                           entries, circumballs, ``tet_cc``) sees that
                           "its" tet died even if the id was recycled.
                           An allocation bumps it before the slot's row
                           is written.
* ``tet_cc[t]``          – cached circumsphere entry for the filtered
                           in-sphere fast path (see
                           :func:`repro.geometry.predicates.circumsphere_entry`)
                           with the slot's epoch appended; ``(epoch,)``
                           for degenerate tets, ``None`` until first
                           use.  An entry whose epoch is not the slot's
                           belongs to a previous owner.
* ``v2t``                – ``int32`` array: one live incident tet per
                           vertex (point-location and ball-collection
                           anchor); ``HULL`` before the first incidence,
                           ``DEAD`` after vertex removal.

The free stack, its count, the epochs and ``tet_top`` are the one tet
allocator: :meth:`MeshArrays.add_tet` / :meth:`~MeshArrays.add_tets_batch`
/ :meth:`~MeshArrays.kill_tet` / :meth:`~MeshArrays.kill_tets_batch`
here, and the C kernels (``repro._accel``), which are handed the same
arrays and pop, push and bump them in the same order.

All tetrahedra are stored positively oriented (``orient3d > 0``), which
the in-sphere predicate requires.  Growth doubles the NumPy capacity, so
long-lived references to the arrays must be re-fetched from the mesh
after any allocation (all in-tree callers hold them for at most one
operation).
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

HULL = -1  # adjacency marker: face on the convex hull (virtual box surface)
DEAD = -2  # adjacency marker used transiently for invalidated slots

#: Row ``i``: local vertex indices of the face opposite local vertex
#: ``i``, in :meth:`MeshArrays.face_opposite`'s order (batch callers).
FACE_OPPOSITE = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

Point = Tuple[float, float, float]

_INIT_V_CAP = 256
_INIT_T_CAP = 1024


def _regrown(old: np.ndarray, cap: int, fill) -> np.ndarray:
    """``old`` copied into a ``cap``-row array padded with ``fill``."""
    grown = np.full((cap,) + old.shape[1:], fill, dtype=old.dtype)
    grown[: old.shape[0]] = old
    return grown


class MeshArrays:
    """Growable struct-of-arrays store for vertices and tetrahedra."""

    __slots__ = (
        "coords",
        "points",
        "timestamps",
        "alive_vertex",
        "tet_verts_arr",
        "tet_adj",
        "tet_top",
        "tet_free",
        "n_free_tets",
        "tet_epoch",
        "tet_cc",
        "v2t",
        "_free_verts",
        "_clock",
        "n_live_tets",
    )

    def __init__(self) -> None:
        self.coords = np.zeros((_INIT_V_CAP, 3), dtype=np.float64)
        self.tet_verts_arr = np.full((_INIT_T_CAP, 4), -1, dtype=np.int32)
        self.tet_adj = np.full((_INIT_T_CAP, 4), HULL, dtype=np.int32)
        self.v2t = np.full(_INIT_V_CAP, HULL, dtype=np.int32)
        self.points: List[Point] = []
        self.timestamps: List[int] = []
        self.alive_vertex: List[bool] = []
        self.tet_top = 0
        self.tet_free = np.zeros(_INIT_T_CAP, dtype=np.int32)
        self.n_free_tets = 0
        self.tet_epoch = np.zeros(_INIT_T_CAP, dtype=np.int32)
        self.tet_cc: List[Optional[tuple]] = [None] * _INIT_T_CAP
        self._free_verts: List[int] = []
        self._clock = itertools.count(1)  # monotonic insertion clock
        self.n_live_tets = 0

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def _grow_verts(self, need: int) -> None:
        cap = self.coords.shape[0]
        while cap < need:
            cap *= 2
        self.coords = _regrown(self.coords, cap, 0.0)
        self.v2t = _regrown(self.v2t, cap, HULL)

    def _grow_tets(self, need: int) -> None:
        old = self.tet_adj.shape[0]
        cap = old
        while cap < need:
            cap *= 2
        self.tet_verts_arr = _regrown(self.tet_verts_arr, cap, -1)
        self.tet_adj = _regrown(self.tet_adj, cap, HULL)
        self.tet_free = _regrown(self.tet_free, cap, 0)
        self.tet_epoch = _regrown(self.tet_epoch, cap, 0)
        self.tet_cc.extend([None] * (cap - old))

    def reserve_tets(self, n: int) -> None:
        """Grow the tet arrays to at least ``n`` slots (the C kernels
        cannot grow them)."""
        if n > self.tet_adj.shape[0]:
            self._grow_tets(n)

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(self, p: Sequence[float]) -> int:
        """Store a new vertex and stamp it with the insertion clock."""
        pt = (float(p[0]), float(p[1]), float(p[2]))
        ts = next(self._clock)
        if self._free_verts:
            v = self._free_verts.pop()
            self.points[v] = pt
            self.timestamps[v] = ts
            self.alive_vertex[v] = True
        else:
            v = len(self.points)
            if v >= self.coords.shape[0]:
                self._grow_verts(v + 1)
            self.points.append(pt)
            self.timestamps.append(ts)
            self.alive_vertex.append(True)
        self.v2t[v] = HULL
        c = self.coords[v]
        c[0] = pt[0]
        c[1] = pt[1]
        c[2] = pt[2]
        return v

    def kill_vertex(self, v: int) -> None:
        self.alive_vertex[v] = False
        self.v2t[v] = DEAD
        self._free_verts.append(v)

    @property
    def n_vertices(self) -> int:
        return len(self.points) - len(self._free_verts)

    # ------------------------------------------------------------------
    # tetrahedra
    # ------------------------------------------------------------------
    def add_tet(self, verts: Tuple[int, int, int, int]) -> int:
        """Allocate a tet slot; adjacency starts as four HULL markers."""
        n = self.n_free_tets
        if n:
            n -= 1
            self.n_free_tets = n
            t = int(self.tet_free[n])
            self.tet_epoch[t] += 1
        else:
            t = self.tet_top
            if t >= self.tet_adj.shape[0]:
                self._grow_tets(t + 1)
            self.tet_top = t + 1
        tv = self.tet_verts_arr[t]
        tv[0] = verts[0]
        tv[1] = verts[1]
        tv[2] = verts[2]
        tv[3] = verts[3]
        adj = self.tet_adj[t]
        adj[0] = adj[1] = adj[2] = adj[3] = HULL
        v2t = self.v2t
        for v in verts:
            v2t[v] = t
        self.n_live_tets += 1
        return t

    def add_tets_batch(self, verts_rows: np.ndarray) -> List[int]:
        """Allocate slots for ``k`` new tets at once.

        ``verts_rows`` is a ``(k, 4)`` int array.  Slot assignment is
        identical to ``k`` successive :meth:`add_tet` calls (LIFO
        free-stack pops first, then fresh slots in order), so recycled
        ids — and therefore all downstream iteration orders — match the
        scalar path bit-for-bit.  ``v2t`` is *not* updated here; the
        caller owns anchor maintenance (the insertion commit rewrites
        anchors for every new tet anyway).
        """
        k = verts_rows.shape[0]
        n = self.n_free_tets
        popped = min(k, n)
        top = self.tet_top
        tail = top + k - popped
        if tail > self.tet_adj.shape[0]:
            self._grow_tets(tail)
        tids = np.empty(k, dtype=np.intp)
        tids[:popped] = self.tet_free[n - popped:n][::-1]
        tids[popped:] = np.arange(top, tail)
        self.n_free_tets = n - popped
        self.tet_top = tail
        self.tet_epoch[tids[:popped]] += 1
        self.tet_verts_arr[tids] = verts_rows
        self.tet_adj[tids] = HULL
        self.n_live_tets += k
        return tids.tolist()

    def kill_tet(self, t: int) -> None:
        self.tet_verts_arr[t] = -1
        n = self.n_free_tets
        self.tet_free[n] = t
        self.n_free_tets = n + 1
        self.n_live_tets -= 1

    def kill_tets_batch(self, ts: Sequence[int]) -> None:
        """Kill several tets; the stack order matches per-tet kills."""
        k = len(ts)
        n = self.n_free_tets
        idx = np.asarray(ts, dtype=np.intp)
        self.tet_free[n:n + k] = idx
        self.n_free_tets = n + k
        self.tet_verts_arr[idx] = -1
        self.n_live_tets -= k

    def free_tets(self) -> List[int]:
        """The free-slot stack, bottom first (the next pop is the last)."""
        return self.tet_free[:self.n_free_tets].tolist()

    def is_live(self, t: int) -> bool:
        return 0 <= t < self.tet_top and self.tet_verts_arr[t, 0] >= 0

    def live_tets(self) -> Iterator[int]:
        """Iterate ids of all live tetrahedra (snapshot at call time)."""
        live = self.tet_verts_arr[: self.tet_top, 0] >= 0
        yield from np.flatnonzero(live).tolist()

    def live_tet_ids(self) -> np.ndarray:
        """Ids of all live tetrahedra as an int array (ascending)."""
        live = self.tet_verts_arr[: self.tet_top, 0] >= 0
        return np.flatnonzero(live)

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def face_opposite(self, t: int, i: int) -> Tuple[int, int, int]:
        """Vertex ids of the face of ``t`` opposite local vertex ``i``."""
        a, b, c, d = self.tet_verts_arr[t].tolist()
        if i == 0:
            return (b, c, d)
        if i == 1:
            return (a, c, d)
        if i == 2:
            return (a, b, d)
        return (a, b, c)

    def local_index(self, t: int, v: int) -> int:
        """Local index (0..3) of global vertex ``v`` inside tet ``t``."""
        verts = self.tet_verts_arr[t].tolist()
        for i in range(4):
            if verts[i] == v:
                return i
        raise ValueError(f"vertex {v} not in tet {t} {verts}")

    def neighbor_index(self, t: int, nbr: int) -> int:
        """Local face index of ``t`` across which ``nbr`` lies."""
        adj = self.tet_adj[t]
        for i in range(4):
            if adj[i] == nbr:
                return i
        raise ValueError(f"tet {nbr} is not a neighbor of {t}")

    def set_mutual_adjacency(self, t1: int, i1: int, t2: int, i2: int) -> None:
        self.tet_adj[t1][i1] = t2
        self.tet_adj[t2][i2] = t1

    def incident_tets(self, v: int) -> List[int]:
        """All live tets incident to vertex ``v`` (breadth-first from v2t)."""
        seed = int(self.v2t[v])
        if seed < 0 or not self.is_live(seed):
            seed = self._find_incident_slow(v)
            if seed is None:
                return []
        tva = self.tet_verts_arr
        tadj = self.tet_adj
        out = [seed]
        seen = {seed}
        stack = [seed]
        while stack:
            t = stack.pop()
            verts = tva[t].tolist()
            adj = tadj[t].tolist()
            for i in range(4):
                nbr = adj[i]
                if nbr < 0 or nbr in seen:
                    continue
                # The face shared with nbr is opposite local vertex i; it
                # contains v iff v is not the opposite vertex.
                if verts[i] == v:
                    continue
                nverts = tva[nbr].tolist()
                if nverts[0] < 0 or v not in nverts:
                    continue
                seen.add(nbr)
                out.append(nbr)
                stack.append(nbr)
        return out

    def _find_incident_slow(self, v: int) -> Optional[int]:
        tva = self.tet_verts_arr
        for t in self.live_tets():
            if v in tva[t].tolist():
                self.v2t[v] = t
                return t
        return None
