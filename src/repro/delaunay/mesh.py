"""Low-level tetrahedral mesh storage with face-to-face adjacency.

Storage layout (struct-of-arrays, free-list recycled).  The NumPy
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
* ``timestamps[v]``      – global insertion counter, used by vertex
                           removal to replay link vertices in insertion
                           order (paper Section 4.2).
* ``alive_vertex[v]``    – False once a vertex has been removed.
* ``tet_verts_arr``      – ``(capacity, 4) int32`` vertex ids per tet;
                           ``-1`` rows for dead/recycled slots.
* ``tet_adj``            – ``(capacity, 4) int32``; ``tet_adj[t][i]`` is
                           the tet sharing the face opposite local
                           vertex ``i``; ``HULL`` (-1) on the hull.
* ``tet_top``            – one past the highest slot ever allocated
                           (the array tail; dead slots below it are on
                           the free list).
* ``tet_cc[t]``          – cached circumsphere entry for the filtered
                           in-sphere fast path (see
                           :func:`repro.geometry.predicates.circumsphere_entry`);
                           ``None`` until first use, ``()`` for
                           degenerate tets.
* ``v2t``                – ``int32`` array: one live incident tet per
                           vertex (point-location and ball-collection
                           anchor); ``HULL`` before the first incidence,
                           ``DEAD`` after vertex removal.

All tetrahedra are stored positively oriented (``orient3d > 0``), which
the in-sphere predicate requires.  Growth doubles the NumPy capacity, so
long-lived references to ``coords``/``tet_verts_arr``/``tet_adj``/``v2t``
must be re-fetched from the mesh after any allocation (all in-tree
callers hold them for at most one operation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Tet:
    """Immutable view of a tetrahedron handed to callers."""

    id: int
    verts: Tuple[int, int, int, int]


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
        "tet_epoch",
        "tet_cc",
        "v2t",
        "_free_tets",
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
        # Epoch counter per slot: bumps every time the slot is reused, so
        # stale references (e.g. Poor Element List entries) can detect
        # that "their" tet died even if the id was recycled.
        self.tet_epoch: List[int] = []
        self.tet_cc: List[Optional[tuple]] = []
        self._free_tets: List[int] = []
        self._free_verts: List[int] = []
        self._clock = itertools.count(1)  # monotonic insertion clock
        self.n_live_tets = 0

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def _grow_verts(self) -> None:
        cap = self.coords.shape[0] * 2
        old = self.coords
        grown = np.zeros((cap, 3), dtype=np.float64)
        grown[: old.shape[0]] = old
        self.coords = grown
        anchors = np.full(cap, HULL, dtype=np.int32)
        anchors[: self.v2t.shape[0]] = self.v2t
        self.v2t = anchors

    def _grow_tets(self, need: int) -> None:
        cap = self.tet_adj.shape[0]
        while cap < need:
            cap *= 2
        tv = np.full((cap, 4), -1, dtype=np.int32)
        tv[: self.tet_verts_arr.shape[0]] = self.tet_verts_arr
        self.tet_verts_arr = tv
        ta = np.full((cap, 4), HULL, dtype=np.int32)
        ta[: self.tet_adj.shape[0]] = self.tet_adj
        self.tet_adj = ta

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
                self._grow_verts()
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
        if self._free_tets:
            t = self._free_tets.pop()
            self.tet_epoch[t] += 1
            self.tet_cc[t] = None
        else:
            t = self.tet_top
            self.tet_top = t + 1
            if t >= self.tet_adj.shape[0]:
                self._grow_tets(t + 1)
            self.tet_epoch.append(0)
            self.tet_cc.append(None)
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
        free-list pops first, then fresh slots in order), so recycled
        ids — and therefore all downstream iteration orders — match the
        scalar path bit-for-bit.  ``v2t`` is *not* updated here; the
        caller owns anchor maintenance (the insertion commit rewrites
        anchors for every new tet anyway).
        """
        k = verts_rows.shape[0]
        free = self._free_tets
        epoch = self.tet_epoch
        ccs = self.tet_cc
        top = self.tet_top
        tids: List[int] = []
        for _ in range(k):
            if free:
                t = free.pop()
                epoch[t] += 1
                ccs[t] = None
            else:
                t = top
                top += 1
                epoch.append(0)
                ccs.append(None)
            tids.append(t)
        self.tet_top = top
        if top > self.tet_adj.shape[0]:
            self._grow_tets(top)
        idx = np.asarray(tids, dtype=np.intp)
        self.tet_verts_arr[idx] = verts_rows
        self.tet_adj[idx] = HULL
        self.n_live_tets += k
        return tids

    def bump_slots(self, tids: Sequence[int]) -> None:
        """The Python half of an allocation the C kernel committed on
        the shared tail: every recycled slot in ``tids`` gets its epoch
        bumped and its cached circumsphere dropped, every fresh one
        (they arrive in tail order) an entry in both lists, and
        ``tet_top`` follows."""
        epoch = self.tet_epoch
        ccs = self.tet_cc
        top = len(epoch)
        for t in tids:
            if t < top:
                epoch[t] += 1
                ccs[t] = None
            else:
                epoch.append(0)
                ccs.append(None)
                top += 1
        self.tet_top = top

    def kill_tet(self, t: int) -> None:
        self.tet_verts_arr[t] = -1
        self._free_tets.append(t)
        self.n_live_tets -= 1

    def kill_tets_batch(self, ts: Sequence[int]) -> None:
        """Kill several tets; free-list order matches per-tet kills."""
        self._free_tets.extend(ts)
        self.tet_verts_arr[np.asarray(ts, dtype=np.intp)] = -1
        self.n_live_tets -= len(ts)

    def is_live(self, t: int) -> bool:
        return 0 <= t < self.tet_top and self.tet_verts_arr[t, 0] >= 0

    def tet_epochs(self) -> np.ndarray:
        """``tet_epoch`` as an int64 array (a snapshot, for batch
        validation of ``(tet, epoch)`` references)."""
        return np.fromiter(self.tet_epoch, np.int64, len(self.tet_epoch))

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
