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

``tet_verts`` survives only as a read-only compatibility *view*
(``mesh.tet_verts[t]`` -> 4-tuple or ``None``) for tests and cold
paths; it materializes tuples on demand instead of mirroring state.

All tetrahedra are stored positively oriented (``orient3d > 0``), which
the in-sphere predicate requires.  Growth doubles the NumPy capacity, so
long-lived references to ``coords``/``tet_verts_arr``/``tet_adj``/``v2t``
must be re-fetched from the mesh after any allocation (all in-tree
callers hold them for at most one operation).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
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

# Per-thread allocation arena chunk sizes.  Tet chunks are claimed from
# the shared tail under the allocator lock; larger chunks mean fewer
# trips to that lock, smaller chunks waste fewer slots at merge time.
_TET_CHUNK = 256
_VERT_CHUNK = 64


class _ResizeGate:
    """Shared/exclusive gate between commits and array growth.

    Committing threads enter in *shared* mode (a counter bump under a
    condition variable) for the duration of one commit; array growth —
    which **replaces** the NumPy arrays, so a commit writing through a
    stale pointer with the GIL released would be lost — takes the gate
    in *exclusive* mode and drains every in-flight commit first.

    Exclusive entry is only ever taken while holding the mesh's
    allocator lock (chunk-refill slow path), so writers never race each
    other; commits must pre-claim capacity *before* entering the shared
    section or they would deadlock against their own refill.
    """

    __slots__ = ("_cond", "_readers", "_writers")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers = 0

    def acquire_shared(self) -> None:
        cond = self._cond
        with cond:
            while self._writers:
                cond.wait()
            self._readers += 1

    def release_shared(self) -> None:
        cond = self._cond
        with cond:
            self._readers -= 1
            if not self._readers:
                cond.notify_all()

    @contextmanager
    def exclusive(self):
        cond = self._cond
        with cond:
            self._writers += 1
            while self._readers:
                cond.wait()
        try:
            yield
        finally:
            with cond:
                self._writers -= 1
                cond.notify_all()


class ThreadAllocArena:
    """Private allocation state for one worker thread.

    Holds a per-thread slice of the free lists plus a reserved range of
    fresh slots (``[cursor, chunk_end)``) claimed from the shared tail
    in chunks, so commits allocate and recycle slots without touching
    any shared structure on the fast path.  ``live_delta`` batches
    ``n_live_tets`` updates; it is flushed under the allocator lock at
    every chunk refill and at merge time.
    """

    __slots__ = (
        "tid", "free_tets", "free_verts",
        "tet_cursor", "tet_chunk_end",
        "vert_cursor", "vert_chunk_end",
        "live_delta",
    )

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.free_tets: List[int] = []
        self.free_verts: List[int] = []
        self.tet_cursor = 0
        self.tet_chunk_end = 0
        self.vert_cursor = 0
        self.vert_chunk_end = 0
        self.live_delta = 0

    def peek_vertex_id(self) -> int:
        """Id the next :meth:`MeshArrays.add_vertex` call will return."""
        if self.free_verts:
            return self.free_verts[-1]
        return self.vert_cursor


@dataclass(frozen=True)
class Tet:
    """Immutable view of a tetrahedron handed to callers."""

    id: int
    verts: Tuple[int, int, int, int]


class _TetVertsView:
    """Read-only tuple view over ``tet_verts_arr`` (compat shim).

    Indexing returns the historical mirror's value: a 4-tuple of native
    ints for live slots, ``None`` for dead ones.  Hot paths should read
    ``tet_verts_arr`` directly instead.
    """

    __slots__ = ("_mesh",)

    def __init__(self, mesh: "MeshArrays") -> None:
        self._mesh = mesh

    def __len__(self) -> int:
        return self._mesh.tet_top

    def __getitem__(self, t: int) -> Optional[Tuple[int, int, int, int]]:
        row = self._mesh.tet_verts_arr[t].tolist()
        if row[0] < 0:
            return None
        return tuple(row)

    def __iter__(self):
        arr = self._mesh.tet_verts_arr
        for t in range(self._mesh.tet_top):
            row = arr[t].tolist()
            yield tuple(row) if row[0] >= 0 else None


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
        "_alloc_lock",
        "_resize_gate",
        "_alloc_tls",
        "_arenas_on",
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
        # Monotonic insertion clock.  itertools.count is bumped by a
        # single C-level call, so concurrent arena allocations get
        # unique timestamps without a lock.
        self._clock = itertools.count(1)
        self.n_live_tets = 0
        # Per-thread allocation arenas (threaded two-phase refinement).
        self._alloc_lock = threading.Lock()
        self._resize_gate = _ResizeGate()
        self._alloc_tls = threading.local()
        self._arenas_on = False

    @property
    def tet_verts(self) -> _TetVertsView:
        return _TetVertsView(self)

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
    # per-thread allocation arenas
    # ------------------------------------------------------------------
    @property
    def resize_gate(self) -> _ResizeGate:
        return self._resize_gate

    def current_alloc_arena(self) -> Optional[ThreadAllocArena]:
        """This thread's installed arena, or None outside arena runs."""
        if not self._arenas_on:
            return None
        return getattr(self._alloc_tls, "arena", None)

    def adopt_alloc_arena(self, arena: Optional[ThreadAllocArena]) -> None:
        """Install ``arena`` as the calling thread's allocation arena."""
        self._alloc_tls.arena = arena

    def begin_thread_arenas(self, n: int) -> List[ThreadAllocArena]:
        """Create ``n`` arenas and route allocations through them.

        The pre-existing shared free lists are handed wholesale to
        arena 0 so a single-thread arena run pops recycled slots in
        exactly the order the sequential kernel would.
        """
        arenas = [ThreadAllocArena(i) for i in range(n)]
        arenas[0].free_tets.extend(self._free_tets)
        self._free_tets.clear()
        arenas[0].free_verts.extend(self._free_verts)
        self._free_verts.clear()
        self._arenas_on = True
        return arenas

    def end_thread_arenas(self, arenas: Sequence[ThreadAllocArena]) -> None:
        """Merge arena state back into the shared structures.

        Every dead slot below ``tet_top`` ends up on the shared free
        list exactly once; a chunk still sitting at the array tail is
        trimmed back off instead (single-thread runs always hit this,
        which leaves the end state bit-identical to a sequential run).
        """
        self._arenas_on = False
        with self._alloc_lock:
            for a in arenas:
                self.n_live_tets += a.live_delta
                a.live_delta = 0
                self._free_tets.extend(a.free_tets)
                a.free_tets.clear()
                self._free_verts.extend(a.free_verts)
                a.free_verts.clear()
                if a.tet_cursor < a.tet_chunk_end:
                    if a.tet_chunk_end == self.tet_top:
                        del self.tet_epoch[a.tet_cursor:]
                        del self.tet_cc[a.tet_cursor:]
                        self.tet_top = a.tet_cursor
                    else:
                        self._free_tets.extend(
                            range(a.tet_cursor, a.tet_chunk_end))
                a.tet_cursor = a.tet_chunk_end = 0
                if a.vert_cursor < a.vert_chunk_end:
                    if a.vert_chunk_end == len(self.points):
                        del self.points[a.vert_cursor:]
                        del self.timestamps[a.vert_cursor:]
                        del self.alive_vertex[a.vert_cursor:]
                    else:
                        self._free_verts.extend(
                            range(a.vert_cursor, a.vert_chunk_end))
                a.vert_cursor = a.vert_chunk_end = 0

    def ensure_arena_capacity(self, arena: ThreadAllocArena,
                              n_tets: int = 0, n_verts: int = 0) -> None:
        """Guarantee chunk space before a commit enters the resize gate.

        Must be called *outside* the shared gate section: refilling a
        chunk may grow the arrays, which takes the gate exclusively.
        """
        if arena.tet_chunk_end - arena.tet_cursor < n_tets:
            self._claim_tet_chunk(arena, n_tets)
        if (n_verts and not arena.free_verts
                and arena.vert_chunk_end - arena.vert_cursor < n_verts):
            self._claim_vert_chunk(arena, n_verts)

    def _claim_tet_chunk(self, arena: ThreadAllocArena, need: int) -> None:
        with self._alloc_lock:
            self.n_live_tets += arena.live_delta
            arena.live_delta = 0
            top = self.tet_top
            if arena.tet_chunk_end == top:
                # Grow the current chunk in place — with one thread this
                # is always the case, so fresh slot ids stay identical
                # to the sequential kernel's ``tet_top++`` sequence.
                short = need - (arena.tet_chunk_end - arena.tet_cursor)
                n = max(short, _TET_CHUNK)
            else:
                if arena.tet_cursor < arena.tet_chunk_end:
                    arena.free_tets.extend(
                        range(arena.tet_cursor, arena.tet_chunk_end))
                n = max(need, _TET_CHUNK)
                arena.tet_cursor = top
            new_top = top + n
            if new_top > self.tet_adj.shape[0]:
                with self._resize_gate.exclusive():
                    self._grow_tets(new_top)
            # Seed epochs at -1: the first allocation bumps them to 0,
            # matching what a fresh sequential append would have had.
            self.tet_epoch.extend([-1] * n)
            self.tet_cc.extend([None] * n)
            arena.tet_chunk_end = new_top
            # Published last so lock-free readers never index the epoch
            # list past its end.
            self.tet_top = new_top

    def _claim_vert_chunk(self, arena: ThreadAllocArena, need: int) -> None:
        with self._alloc_lock:
            base = len(self.points)
            if arena.vert_chunk_end == base:
                short = need - (arena.vert_chunk_end - arena.vert_cursor)
                n = max(short, _VERT_CHUNK)
            else:
                if arena.vert_cursor < arena.vert_chunk_end:
                    arena.free_verts.extend(
                        range(arena.vert_cursor, arena.vert_chunk_end))
                n = max(need, _VERT_CHUNK)
                arena.vert_cursor = base
            new_len = base + n
            if new_len > self.coords.shape[0]:
                with self._resize_gate.exclusive():
                    while self.coords.shape[0] < new_len:
                        self._grow_verts()
            # alive/timestamps before points: lock-free readers (e.g.
            # the point-location grid rebuild) enumerate ``points`` and
            # index the flag lists, so those must never be shorter.
            self.alive_vertex.extend([False] * n)
            self.timestamps.extend([0] * n)
            self.points.extend([(0.0, 0.0, 0.0)] * n)
            arena.vert_chunk_end = new_len

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(self, p: Sequence[float]) -> int:
        """Store a new vertex and stamp it with the insertion clock."""
        pt = (float(p[0]), float(p[1]), float(p[2]))
        arena = self.current_alloc_arena()
        if arena is not None:
            return self._add_vertex_arena(arena, pt)
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

    def _add_vertex_arena(self, arena: ThreadAllocArena, pt: Point) -> int:
        ts = next(self._clock)
        if arena.free_verts:
            v = arena.free_verts.pop()
        else:
            if arena.vert_cursor >= arena.vert_chunk_end:
                self._claim_vert_chunk(arena, 1)
            v = arena.vert_cursor
            arena.vert_cursor = v + 1
        # Coordinates before liveness: lock-free readers that reach
        # ``v`` through a freshly committed tet row must see real
        # geometry, not the recycled slot's stale coordinates.
        c = self.coords[v]
        c[0] = pt[0]
        c[1] = pt[1]
        c[2] = pt[2]
        self.points[v] = pt
        self.timestamps[v] = ts
        self.v2t[v] = HULL
        self.alive_vertex[v] = True
        return v

    def kill_vertex(self, v: int) -> None:
        self.alive_vertex[v] = False
        self.v2t[v] = DEAD
        arena = self.current_alloc_arena()
        if arena is not None:
            arena.free_verts.append(v)
        else:
            self._free_verts.append(v)

    @property
    def n_vertices(self) -> int:
        return len(self.points) - len(self._free_verts)

    # ------------------------------------------------------------------
    # tetrahedra
    # ------------------------------------------------------------------
    def add_tet(self, verts: Tuple[int, int, int, int]) -> int:
        """Allocate a tet slot; adjacency starts as four HULL markers."""
        arena = self.current_alloc_arena()
        if arena is not None:
            return self._add_tet_arena(arena, verts)
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

    def _add_tet_arena(self, arena: ThreadAllocArena,
                       verts: Tuple[int, int, int, int]) -> int:
        if arena.free_tets:
            t = arena.free_tets.pop()
        else:
            if arena.tet_cursor >= arena.tet_chunk_end:
                self._claim_tet_chunk(arena, 1)
            t = arena.tet_cursor
            arena.tet_cursor = t + 1
        # Epoch bump *before* the row write: lock-free validators record
        # (tet, epoch) pairs and must observe the bump no later than an
        # alive-looking row appearing in the slot.
        self.tet_epoch[t] += 1
        self.tet_cc[t] = None
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
        arena.live_delta += 1
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
        arena = self.current_alloc_arena()
        if arena is not None:
            return self._add_tets_batch_arena(arena, verts_rows, k)
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

    def _add_tets_batch_arena(self, arena: ThreadAllocArena,
                              verts_rows: np.ndarray, k: int) -> List[int]:
        free = arena.free_tets
        epoch = self.tet_epoch
        ccs = self.tet_cc
        tids: List[int] = []
        for _ in range(k):
            if free:
                t = free.pop()
            else:
                if arena.tet_cursor >= arena.tet_chunk_end:
                    self._claim_tet_chunk(arena, k - len(tids))
                t = arena.tet_cursor
                arena.tet_cursor = t + 1
            # All epoch bumps land before any row write below.
            epoch[t] += 1
            ccs[t] = None
            tids.append(t)
        idx = np.asarray(tids, dtype=np.intp)
        self.tet_verts_arr[idx] = verts_rows
        self.tet_adj[idx] = HULL
        arena.live_delta += k
        return tids

    def bump_slots(self, tids: Sequence[int]) -> None:
        """The Python half of an allocation the C kernel committed on
        the shared tail: every recycled slot in ``tids`` gets its epoch
        bumped and its cached circumsphere dropped, every fresh one
        (they arrive in tail order) an entry in both lists, and
        ``tet_top`` follows.  Not for arena runs, whose chunks are
        pre-extended."""
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
        arena = self.current_alloc_arena()
        if arena is not None:
            arena.free_tets.append(t)
            arena.live_delta -= 1
            return
        self._free_tets.append(t)
        self.n_live_tets -= 1

    def kill_tets_batch(self, ts: Sequence[int]) -> None:
        """Kill several tets; free-list order matches per-tet kills."""
        arena = self.current_alloc_arena()
        if arena is not None:
            arena.free_tets.extend(ts)
            self.tet_verts_arr[np.asarray(ts, dtype=np.intp)] = -1
            arena.live_delta -= len(ts)
            return
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
