"""Incremental 3D Delaunay triangulation with insertions and removals.

The triangulation always lives inside a *virtual box* (paper Figure 1):
the box is triangulated into 6 tetrahedra and every subsequent point is
inserted strictly inside it, so no ghost/infinite elements are needed.

Hot-path kernel design
----------------------
The insertion pipeline (locate -> compute_cavity -> commit) is the
throughput bottleneck of the whole mesher, so it is organised around
three accelerations, none of which changes any mesh output:

* **point location** starts from a uniform-grid vertex bucket (each
  inserted vertex registers its cell; a query walks from a tet incident
  to the nearest registered vertex) or from the last located tet, and
  randomizes its face order with an inline LCG instead of a
  ``random.Random`` call per step.
* **cavity search** replaces most in-sphere predicate evaluations with a
  cached circumsphere test: every tet carries a precomputed
  ``(center, r^2, error-band)`` record (built vectorized for the whole
  commit batch) and the full robust predicate runs only inside the
  rounding-error band, so the fast path is *guaranteed* to agree with
  exact arithmetic.  Visited/boundary bookkeeping uses epoch-tagged
  scratch arrays reused across operations instead of per-call sets.
* **the commit phase** validates all boundary faces with one vectorized
  orientation batch, checks cavity closedness with packed edge keys and
  ``np.unique``, allocates all new tets at once (free-list order
  identical to the scalar path) and wires internal adjacency by sorting
  edge keys — only the ``v2t`` anchor maintenance stays scalar, because
  its "last writer wins" semantics must match the historical loop.

Crucially the depth-first cavity *enumeration order* is untouched:
cavity membership is predicate-determined (traversal-invariant), but the
order in which cavity tets and boundary faces are emitted dictates new
tet ids and hence every downstream decision, so it is part of the
deterministic contract (see ``tests/test_kernel_parity.py``).

Speculative-execution support
-----------------------------
Every operation accepts an optional ``touch`` callback which is invoked
with each vertex id the operation reads *before* the read happens.  The
parallel refiner uses this hook to take per-vertex try-locks; when a lock
is already owned by another thread the callback raises
:class:`RollbackSignal`, the operation unwinds without having mutated
anything, and the caller rolls back (paper Section 4.2).  All mutation is
deferred until the read phase has fully succeeded, which is what makes
rollbacks free of side effects; it then happens under one commit lock,
so concurrent operations share the allocator and the scratch buffers
without racing (their geometry is disjoint: each holds its own
vertices).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import _accel
from repro.delaunay.mesh import HULL, MeshArrays
from repro.geometry.batch import insphere_many, new_tet_records
from repro.geometry.predicates import (
    STATS,
    circumsphere_entry,
    insphere,
    orient3d,
)

Point = Tuple[float, float, float]
TouchFn = Optional[Callable[[int], None]]

# Inline LCG constants (glibc) for the walk's face-order randomization.
_LCG_MULT = 1103515245
_LCG_INC = 12345
_LCG_MASK = 0x7FFFFFFF

# Initial vertex-bucket grid resolution along the longest box axis; the
# grid doubles its resolution whenever occupancy exceeds ~8 vertices per
# cell so bucket lookups stay local as the mesh grows.
_GRID_RES = 16


class RollbackSignal(Exception):
    """Raised by a touch callback to abort an operation without side effects.

    Carries the id of the thread that owns the contended vertex so the
    contention manager can record the dependency (``conflicting_id``);
    ``-1`` when the operation lost a race with a commit instead of a
    lock (the element it read changed under it).
    """

    def __init__(self, owner: int = -1):
        super().__init__(f"rollback: vertex owned by thread {owner}")
        self.owner = owner


class PointLocationError(Exception):
    """The walk left the triangulated domain (point outside the box)."""


class InsertionError(Exception):
    """Insertion would create a degenerate element (point on a cavity face,
    duplicate vertex, ...).  The triangulation is left untouched."""


class RemovalError(Exception):
    """The removal ball could not be consistently re-triangulated.  The
    triangulation is left untouched and the caller skips the removal."""


class KernelCounters:
    """Per-triangulation kernel statistics (advisory; races tolerated).

    Complemented by the process-wide predicate filter counters in
    :data:`repro.geometry.predicates.STATS`; both are published through
    ``runtime/stats.py`` into the metrics registry.
    """

    __slots__ = (
        "locate_calls", "walk_steps",
        "seed_grid_hits", "seed_hint_hits", "seed_scans",
        "cavity_calls", "cavity_tets",
        "cc_cached", "cc_computed",
        "scratch_reuses", "scratch_grows",
        "accel_inserts", "accel_retries",
        "accel_batch_calls", "accel_batch_inserts",
        "accel_removals", "accel_remove_retries",
        "commits", "commit_wait_seconds", "commit_work_seconds",
        "accel_retry_reasons",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self.commit_wait_seconds = 0.0
        self.commit_work_seconds = 0.0
        #: every attempt the C kernels handed to the Python path
        #: (``accel_retries`` + ``accel_remove_retries``), by the reason
        #: the kernel gave
        self.accel_retry_reasons = dict.fromkeys(_accel.RETRY_REASONS, 0)

    def note_retry(self, why) -> None:
        """Count one RETRY under the kernel's ``BW_WHY_*`` code."""
        self.accel_retry_reasons[_accel.RETRY_REASONS[int(why)]] += 1

    def snapshot(self) -> dict:
        """Flat name -> number; reasons read ``accel_retry.<reason>``."""
        snap = {name: getattr(self, name) for name in self.__slots__}
        for reason, n in snap.pop("accel_retry_reasons").items():
            snap[f"accel_retry.{reason}"] = n
        return snap

    @property
    def mean_walk_length(self) -> float:
        return self.walk_steps / self.locate_calls if self.locate_calls else 0.0

    @property
    def commit_seconds(self) -> float:
        """Total commit time (wait + work); kept for back-compat."""
        return self.commit_wait_seconds + self.commit_work_seconds

    @property
    def mean_commit_seconds(self) -> float:
        return self.commit_work_seconds / self.commits if self.commits else 0.0

    @property
    def mean_commit_wait_seconds(self) -> float:
        return self.commit_wait_seconds / self.commits if self.commits else 0.0


class Triangulation3D:
    """Delaunay triangulation of points inside a virtual bounding box."""

    def __init__(self, lo: Sequence[float], hi: Sequence[float],
                 margin: float = 0.0, seed: int = 0x5EED):
        """Create the box triangulation (the paper's only sequential step).

        Parameters
        ----------
        lo, hi:
            Opposite corners of the region that must be enclosed.
        margin:
            Extra slack added on every side; the refiner passes a few
            multiples of ``delta`` so circumcenters never escape.
        seed:
            Seed for the walk's face-order randomization.  The state is
            per-instance (concurrent triangulations never share RNG
            state) and the sequential pipeline is fully deterministic
            for a fixed seed.
        """
        self.mesh = MeshArrays()
        dx = (hi[0] - lo[0]) or 1.0
        dy = (hi[1] - lo[1]) or 1.0
        dz = (hi[2] - lo[2]) or 1.0
        pad = margin + 0.25 * max(dx, dy, dz)
        self._lo = (lo[0] - pad, lo[1] - pad, lo[2] - pad)
        self._hi = (hi[0] + pad, hi[1] + pad, hi[2] + pad)

        # The virtual bounding volume is an enclosing *simplex* rather
        # than the paper's 6-tet box.  A simplex's hull facets are single
        # triangles, so interior insertions never need to re-triangulate
        # the hull, and 4 auxiliary vertices cannot form the cospherical /
        # cocircular clusters that a cube's corners do — which is what
        # makes vertex removal near the boundary robust.  Functionally the
        # two choices are identical: the auxiliary volume is carved away
        # at extraction (paper Figure 1).
        cx = 0.5 * (self._lo[0] + self._hi[0])
        cy = 0.5 * (self._lo[1] + self._hi[1])
        cz = 0.5 * (self._lo[2] + self._hi[2])
        extent = max(
            self._hi[0] - self._lo[0],
            self._hi[1] - self._lo[1],
            self._hi[2] - self._lo[2],
        )
        k = 3.0 * extent
        corners = [
            (cx + k, cy + k, cz + k),
            (cx + k, cy - k, cz - k),
            (cx - k, cy + k, cz - k),
            (cx - k, cy - k, cz + k),
        ]
        self.box_vertices: List[int] = [
            self.mesh.add_vertex(c) for c in corners
        ]
        v = self.box_vertices
        pts = self.mesh.points
        tet = (v[0], v[1], v[2], v[3])
        if orient3d(pts[tet[0]], pts[tet[1]], pts[tet[2]], pts[tet[3]]) < 0:
            tet = (v[1], v[0], v[2], v[3])
        self.mesh.add_tet(tet)
        # Inward-facing face planes of the simplex, used by the insertion
        # gate: a point is insertable when strictly inside the simplex
        # hull by a small safety margin.
        self._hull_planes = []
        tv = self.mesh.tet_verts_arr[0].tolist()
        for i in range(4):
            face = [tv[j] for j in range(4) if j != i]
            a, b, c = (pts[w] for w in face)
            n = (
                (b[1] - a[1]) * (c[2] - a[2]) - (b[2] - a[2]) * (c[1] - a[1]),
                (b[2] - a[2]) * (c[0] - a[0]) - (b[0] - a[0]) * (c[2] - a[2]),
                (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]),
            )
            norm = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
            n = (n[0] / norm, n[1] / norm, n[2] / norm)
            off = n[0] * a[0] + n[1] * a[1] + n[2] * a[2]
            inner = pts[tv[i]]
            side = n[0] * inner[0] + n[1] * inner[1] + n[2] * inner[2] - off
            if side < 0:
                n = (-n[0], -n[1], -n[2])
                off = -off
            self._hull_planes.append((n, off))
        self._hull_margin = 1e-9 * k

        # Walk randomization state (inline LCG; one state per instance).
        self._walk_state = ((seed ^ 0x2545F491) & _LCG_MASK) or 1
        # Point-location acceleration: last successfully located tet and
        # a uniform-grid vertex bucket index (cell -> most recent vertex
        # inserted there).  Both are *hints*: the walk verifies
        # containment, so stale entries cost steps, never correctness —
        # which also makes unsynchronized concurrent access benign.
        self._last_located = 0
        self._vgrid: Dict[Tuple[int, int, int], int] = {}
        self._extent = extent
        self._vgrid_res = _GRID_RES
        self._vgrid_inv = _GRID_RES / extent
        self._vgrid_cap = _GRID_RES ** 3 // 8
        # Epoch-tagged scratch for the cavity search (reused across
        # operations; values: gen = in cavity, gen+1 = checked out).
        # Generations come from an itertools.count: next() is a single
        # GIL-atomic operation, so concurrent speculative threads always
        # draw distinct generation pairs.
        self._cav_tag: List[int] = []
        self._cav_gen = itertools.count(2, 2)
        self.counters = KernelCounters()
        # Lazily allocated scratch for the optional C kernels.
        self._acc = None
        # Serializes mesh mutation (store, allocator, C scratch) when
        # speculative threads commit; the sequential paths never take it.
        self._commit_lock = threading.Lock()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices

    @property
    def n_tets(self) -> int:
        return self.mesh.n_live_tets

    def point(self, v: int) -> Point:
        return self.mesh.points[v]

    def tet_points(self, t: int):
        pts = self.mesh.points
        a, b, c, d = self.mesh.tet_verts_arr[t].tolist()
        return pts[a], pts[b], pts[c], pts[d]

    def is_box_vertex(self, v: int) -> bool:
        """True for the 4 auxiliary corners of the virtual bounding simplex."""
        return v < 4

    def inside_box(self, p: Sequence[float], slack: float = 0.0) -> bool:
        """True if ``p`` lies strictly inside the padded image box."""
        lo, hi = self._lo, self._hi
        return all(lo[i] + slack < p[i] < hi[i] - slack for i in range(3))

    def inside_domain(self, p: Sequence[float]) -> bool:
        """True if ``p`` is strictly inside the virtual bounding simplex.

        This is the insertion gate: any such point can be triangulated.
        It is a superset of :meth:`inside_box` — circumcenters of exterior
        tetrahedra routinely fall outside the padded image box but are
        perfectly insertable.
        """
        m = self._hull_margin
        for n, off in self._hull_planes:
            if n[0] * p[0] + n[1] * p[1] + n[2] * p[2] - off <= m:
                return False
        return True

    # ------------------------------------------------------------------
    # point location
    # ------------------------------------------------------------------
    def _grid_key(self, x: float, y: float, z: float) -> Tuple[int, int, int]:
        lo = self._lo
        inv = self._vgrid_inv
        return (int((x - lo[0]) * inv), int((y - lo[1]) * inv),
                int((z - lo[2]) * inv))

    def _regrid(self) -> None:
        """Double the vertex grid's resolution and re-bin live vertices."""
        res = self._vgrid_res * 2
        self._vgrid_res = res
        self._vgrid_inv = res / self._extent
        self._vgrid_cap = res ** 3 // 8
        mesh = self.mesh
        alive = mesh.alive_vertex
        gk = self._grid_key
        grid: Dict[Tuple[int, int, int], int] = {}
        for v, pt in enumerate(mesh.points):
            if alive[v]:
                grid[gk(pt[0], pt[1], pt[2])] = v
        self._vgrid = grid

    def _locate_seed(self, x: float, y: float, z: float,
                     hint: Optional[int] = None) -> int:
        """Pick the walk's starting tet.

        Candidates: a tet incident to the nearest vertex registered in
        the query's grid neighborhood, the caller's hint, the last
        located tet, a linear scan — whichever of the first two is
        closer to the query wins (the caller's hint is excellent during
        refinement but arbitrary for scattered insertion workloads).
        """
        mesh = self.mesh
        counters = self.counters
        pts = mesh.points
        grid = self._vgrid
        lo = self._lo
        inv = self._vgrid_inv
        kx = int((x - lo[0]) * inv)
        ky = int((y - lo[1]) * inv)
        kz = int((z - lo[2]) * inv)
        best_v = grid.get((kx, ky, kz))
        if best_v is not None:
            q = pts[best_v]
            dx = q[0] - x
            dy = q[1] - y
            dz = q[2] - z
            best_d = dx * dx + dy * dy + dz * dz
        elif grid:
            # Probe the 26 surrounding buckets for the nearest registered
            # vertex (the grid keeps occupancy low, so the home bucket is
            # often empty while the neighborhood rarely is).
            best_d = math.inf
            for nk in (
                (kx - 1, ky - 1, kz - 1), (kx - 1, ky - 1, kz),
                (kx - 1, ky - 1, kz + 1), (kx - 1, ky, kz - 1),
                (kx - 1, ky, kz), (kx - 1, ky, kz + 1),
                (kx - 1, ky + 1, kz - 1), (kx - 1, ky + 1, kz),
                (kx - 1, ky + 1, kz + 1), (kx, ky - 1, kz - 1),
                (kx, ky - 1, kz), (kx, ky - 1, kz + 1),
                (kx, ky, kz - 1), (kx, ky, kz + 1),
                (kx, ky + 1, kz - 1), (kx, ky + 1, kz),
                (kx, ky + 1, kz + 1), (kx + 1, ky - 1, kz - 1),
                (kx + 1, ky - 1, kz), (kx + 1, ky - 1, kz + 1),
                (kx + 1, ky, kz - 1), (kx + 1, ky, kz),
                (kx + 1, ky, kz + 1), (kx + 1, ky + 1, kz - 1),
                (kx + 1, ky + 1, kz), (kx + 1, ky + 1, kz + 1),
            ):
                v = grid.get(nk)
                if v is None:
                    continue
                q = pts[v]
                dx = q[0] - x
                dy = q[1] - y
                dz = q[2] - z
                d = dx * dx + dy * dy + dz * dz
                if d < best_d:
                    best_d = d
                    best_v = v
        if best_v is not None:
            t = int(mesh.v2t[best_v])
            if t >= 0 and mesh.tet_verts_arr[t, 0] >= 0:
                if hint is not None:
                    h = pts[mesh.tet_verts_arr[hint, 0]]
                    dx = h[0] - x
                    dy = h[1] - y
                    dz = h[2] - z
                    if dx * dx + dy * dy + dz * dz < best_d:
                        counters.seed_hint_hits += 1
                        return hint
                counters.seed_grid_hits += 1
                return t
        if hint is not None:
            counters.seed_hint_hits += 1
            return hint
        t = self._last_located
        if mesh.is_live(t):
            counters.seed_hint_hits += 1
            return t
        counters.seed_scans += 1
        return next(mesh.live_tets())

    def locate(self, p: Sequence[float],
               hint: Optional[int] = None) -> int:
        """Find a tetrahedron containing ``p`` by a remembering walk."""
        mesh = self.mesh
        pts = mesh.points
        tva = mesh.tet_verts_arr
        tet_adj = mesh.tet_adj
        orient = orient3d
        px = p[0]
        py = p[1]
        pz = p[2]
        pq = (px, py, pz)
        if hint is not None and mesh.is_live(hint):
            t = self._locate_seed(px, py, pz, hint)
        else:
            t = self._locate_seed(px, py, pz)
        max_steps = mesh.n_live_tets * 2 + 64
        state = self._walk_state
        steps = 0
        # The walk itself is read-only point location and is deliberately
        # NOT protected by vertex locks (the paper locks what cavity
        # expansion and ball filling touch).  A concurrently invalidated
        # tet is detected and the walk restarts from a live one; a
        # wrongly located tet is caught by the conflict check in
        # compute_cavity.
        while steps < max_steps:
            steps += 1
            verts = tva[t].tolist()
            if verts[0] < 0:  # invalidated under our feet
                t = next(mesh.live_tets())
                continue
            qa = pts[verts[0]]
            qb = pts[verts[1]]
            qc = pts[verts[2]]
            qd = pts[verts[3]]
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            start = (state >> 13) & 3
            moved = False
            for k in range(4):
                i = (start + k) & 3
                if i == 0:
                    s = orient(pq, qb, qc, qd)
                elif i == 1:
                    s = orient(qa, pq, qc, qd)
                elif i == 2:
                    s = orient(qa, qb, pq, qd)
                else:
                    s = orient(qa, qb, qc, pq)
                if s < 0:
                    nbr = tet_adj[t, i]
                    if nbr == HULL:
                        raise PointLocationError(
                            f"point {tuple(p)} escapes the virtual box"
                        )
                    t = int(nbr)
                    moved = True
                    break
            if not moved:
                self._walk_state = state
                self._last_located = t
                counters = self.counters
                counters.locate_calls += 1
                counters.walk_steps += steps
                return t
        raise PointLocationError("walk did not converge (cycling)")

    # ------------------------------------------------------------------
    # insertion (Bowyer-Watson)
    # ------------------------------------------------------------------
    def _cc_entry(self, t: int):
        """Compute and cache tet ``t``'s circumsphere record (scalar path).

        Stored as ``()`` for degenerate tets so the cache distinguishes
        "computed, no fast path" from "not computed yet" (``None``).
        """
        mesh = self.mesh
        pts = mesh.points
        a, b, c, d = mesh.tet_verts_arr[t].tolist()
        e = circumsphere_entry(pts[a], pts[b], pts[c], pts[d])
        e = e if e is not None else ()
        mesh.tet_cc[t] = e
        self.counters.cc_computed += 1
        return e

    def _size_cavity_scratch(self) -> None:
        """Make the cavity tags cover every allocated slot.  A
        speculative commit calls this before it releases
        ``_commit_lock``: peers index the shared tags by tet id, and can
        reach its new slots once its vertex locks are gone."""
        tag = self._cav_tag
        short = self.mesh.tet_top - len(tag)
        if short > 0:
            tag.extend([0] * (short + 1024))

    def compute_cavity(self, p: Sequence[float], hint: Optional[int] = None,
                       touch: TouchFn = None
                       ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Conflict region of ``p``: cavity tets + boundary (tet, face) pairs.

        Purely a read operation; safe to abandon at any point.  With
        ``touch``, every vertex of a tet is locked before the tet is
        tested, so the cavity and its one-ring are frozen by the time
        this returns (an operation that would change either must lock
        three vertices held here) and a lost lock unwinds with nothing
        mutated.  The conflict rule is *strict* (``insphere > 0``):
        cospherical ties stay
        outside the cavity, which yields degenerate-but-valid new elements
        instead of corrupting the cavity's star-shapedness.  A located tet
        that is not in strict conflict means ``p`` duplicates an existing
        vertex (a point inside a closed tet lies on its circumsphere only
        at a vertex) and raises :class:`InsertionError`.

        The in-sphere tests run through the cached circumsphere records
        (exact-agreeing fast path, see module docstring); the depth-first
        enumeration order is part of the deterministic output contract
        and must not change.
        """
        mesh = self.mesh
        pts = mesh.points
        # The walk takes no lock, so on real threads it can cross a
        # commit in flight: a face not wired yet, a row naming a vertex
        # not stored yet.  A failed walk is repeated with commits shut
        # out (the holder of ``_commit_lock`` waits for nothing, so
        # blocking here under vertex locks cannot deadlock): what fails
        # then is the point's own failure, raised as it is in a
        # sequential run, and the caller skips the operation instead of
        # retrying it for ever.
        try:
            t0 = self.locate(p, hint)
        except (IndexError, PointLocationError):
            if touch is None:
                raise
            with self._commit_lock:
                t0 = self.locate(p, hint)
        v0 = mesh.tet_verts_arr[t0].tolist()
        if touch is not None:
            if min(v0) < 0:
                raise RollbackSignal(owner=-1)
            for v in v0:
                touch(v)
            if mesh.tet_verts_arr[t0].tolist() != v0:
                raise RollbackSignal(owner=-1)
        # Fetched under t0's locks: a growth that replaces the arrays
        # later copies every row this search reads unchanged.
        tva = mesh.tet_verts_arr
        px = p[0]
        py = p[1]
        pz = p[2]
        ccs = mesh.tet_cc
        counters = self.counters
        stats = STATS
        cc_tests = 0
        cc_fast = 0
        cc_fallback = 0
        cc_cached = 0

        ent = ccs[t0]
        if ent is None:
            ent = self._cc_entry(t0)
        else:
            cc_cached += 1
        if ent:
            cc_tests += 1
            dx = px - ent[0]
            dy = py - ent[1]
            dz = pz - ent[2]
            d2 = dx * dx + dy * dy + dz * dz
            sv = d2 - ent[3]
            band = ent[4] + ent[5] * d2
            if sv > band:
                cc_fast += 1
                s0 = -1
            elif sv < -band:
                cc_fast += 1
                s0 = 1
            else:
                cc_fallback += 1
                s0 = insphere(pts[v0[0]], pts[v0[1]], pts[v0[2]],
                              pts[v0[3]], p)
        else:
            s0 = insphere(pts[v0[0]], pts[v0[1]], pts[v0[2]], pts[v0[3]], p)
        if s0 <= 0:
            stats.cc_tests += cc_tests
            stats.cc_fast += cc_fast
            stats.cc_fallback += cc_fallback
            raise InsertionError(
                f"point {tuple(p)} duplicates an existing vertex"
            )

        # Epoch-tagged scratch instead of per-call sets.
        tag = self._cav_tag
        if len(tag) < mesh.tet_top:
            self._size_cavity_scratch()
            counters.scratch_grows += 1
        else:
            counters.scratch_reuses += 1
        gen = next(self._cav_gen)
        genout = gen + 1

        tet_adj = mesh.tet_adj
        cavity = [t0]
        tag[t0] = gen
        boundary: List[Tuple[int, int]] = []
        stack = [t0]
        while stack:
            t = stack.pop()
            row = tet_adj[t].tolist()
            for i in range(4):
                nbr = row[i]
                if nbr < 0:  # HULL
                    boundary.append((t, i))
                    continue
                tg = tag[nbr]
                if tg == gen:
                    continue
                if tg == genout:
                    boundary.append((t, i))
                    continue
                nverts = tva[nbr].tolist()
                if touch is not None:
                    for v in nverts:
                        touch(v)
                ent = ccs[nbr]
                if ent is None:
                    ent = self._cc_entry(nbr)
                else:
                    cc_cached += 1
                if ent:
                    cc_tests += 1
                    dx = px - ent[0]
                    dy = py - ent[1]
                    dz = pz - ent[2]
                    d2 = dx * dx + dy * dy + dz * dz
                    sv = d2 - ent[3]
                    band = ent[4] + ent[5] * d2
                    if sv > band:
                        cc_fast += 1
                        s = -1
                    elif sv < -band:
                        cc_fast += 1
                        s = 1
                    else:
                        cc_fallback += 1
                        s = insphere(pts[nverts[0]], pts[nverts[1]],
                                     pts[nverts[2]], pts[nverts[3]], p)
                else:
                    s = insphere(pts[nverts[0]], pts[nverts[1]],
                                 pts[nverts[2]], pts[nverts[3]], p)
                if s > 0:
                    tag[nbr] = gen
                    cavity.append(nbr)
                    stack.append(nbr)
                else:
                    tag[nbr] = genout
                    boundary.append((t, i))
        stats.cc_tests += cc_tests
        stats.cc_fast += cc_fast
        stats.cc_fallback += cc_fallback
        counters.cavity_calls += 1
        counters.cavity_tets += len(cavity)
        counters.cc_cached += cc_cached
        return cavity, boundary

    def insert_point(self, p: Sequence[float], hint: Optional[int] = None,
                     touch: TouchFn = None
                     ) -> Tuple[int, List[int], List[int]]:
        """Insert ``p``; returns ``(vertex_id, new_tets, killed_tets)``.

        Raises :class:`InsertionError` (triangulation untouched) when the
        insertion would create a degenerate tetrahedron — e.g. ``p``
        duplicates an existing vertex or lies exactly on a cavity boundary
        face.  Raises :class:`PointLocationError` if ``p`` is outside the
        virtual box.

        Dispatch: a sequential insert (no ``touch`` callback) is one
        call of the compiled C kernel when available; a speculative one
        (real threads and the simulator alike) grows its cavity in
        :meth:`compute_cavity`, locking as it goes, and commits under
        ``_commit_lock`` through the C commit.  Whatever either C
        routine cannot decide with conclusive floating point filters is
        redone — with zero mutation having happened — by the pure-Python
        code below, whose exact-arithmetic fallback always concludes.
        All routes replicate the same traversal and allocation orders,
        so the resulting meshes are bit-identical
        (tests/test_kernel_parity.py).
        """
        if not self.inside_domain(p):
            raise PointLocationError(
                f"point {tuple(p)} outside the virtual bounding simplex"
            )
        if touch is not None:
            return self._insert_point_locked(p, hint, touch)
        if _accel.bw_insert is not None:
            result = self._insert_point_c(p, hint)
            if result is not None:
                return result
        return self._insert_point_py(p, hint)

    def _insert_point_c(self, p: Sequence[float], hint: Optional[int]
                        ) -> Optional[Tuple[int, List[int], List[int]]]:
        """One C-kernel insert attempt; ``None`` means "retry in Python".

        The C routine does the walk, cavity search, validation and the
        mesh-array commit (rows, adjacency, ``v2t`` anchors); this glue
        reproduces the Python-side bookkeeping (scalar mirrors, free
        lists, epochs, the new vertex's own anchor, counters, vertex
        grid) in exactly the order the Python kernel would, so the two
        paths are indistinguishable afterwards.
        """
        mesh = self.mesh
        acc = self._acc
        if acc is None:
            acc = self._acc = _accel.AccelScratch()
        px = float(p[0])
        py = float(p[1])
        pz = float(p[2])
        if hint is not None and mesh.is_live(hint):
            seed = self._locate_seed(px, py, pz, hint)
        else:
            seed = self._locate_seed(px, py, pz)
        free_t = mesh._free_tets
        free_v = mesh._free_verts
        # Prospective vertex id: what add_vertex will allocate after the
        # C kernel succeeds (it only writes the id into tet rows; the
        # coordinates are passed separately).
        vnew = free_v[-1] if free_v else len(mesh.points)
        gen = next(self._cav_gen)
        status = acc.insert(mesh, px, py, pz, seed, self._walk_state, gen,
                            vnew, len(free_t))
        counters = self.counters
        out = acc.out_i
        if status == _accel.RETRY:
            counters.accel_retries += 1
            counters.note_retry(out[9])
            return None
        # The walk succeeded for every non-RETRY status: commit its
        # state and counters exactly as locate() would have.
        counters.locate_calls += 1
        counters.walk_steps += int(out[4])
        self._walk_state = int(out[5])
        self._last_located = int(out[6])
        stats = STATS
        n_o = int(out[7])
        n_i = int(out[8])
        stats.orient3d_calls += n_o
        stats.orient3d_filtered += n_o
        stats.insphere_calls += n_i
        stats.insphere_filtered += n_i
        if status == _accel.ERR_DUP:
            raise InsertionError(
                f"point {tuple(p)} duplicates an existing vertex"
            )
        counters.cavity_calls += 1
        counters.cavity_tets += int(out[0])
        if status == _accel.ERR_FACE:
            raise InsertionError(
                "degenerate insertion: point lies on a cavity face"
            )
        if status == _accel.ERR_CLOSED:
            raise InsertionError(
                "degenerate insertion: cavity boundary is not a closed surface"
            )
        counters.accel_inserts += 1
        ncav = int(out[0])
        nb = int(out[1])
        consumed = int(out[2])
        cavity = acc.cav[:ncav].tolist()
        new_tets = acc.newt[:nb].tolist()
        mesh.add_vertex((px, py, pz))  # allocates exactly vnew
        # Every new tet names vnew and the last one wins; the kernel
        # anchored the other vertices.
        mesh.v2t[vnew] = new_tets[-1]
        if consumed:
            del free_t[-consumed:]
        mesh.bump_slots(new_tets)
        free_t.extend(cavity)
        mesh.n_live_tets += nb - ncav
        self._vgrid[self._grid_key(px, py, pz)] = vnew
        if len(mesh.points) > self._vgrid_cap:
            self._regrid()
        return vnew, new_tets, cavity

    # ------------------------------------------------------------------
    # speculative insertion (the paper's protocol, Section 4.2)
    # ------------------------------------------------------------------
    def _insert_point_locked(self, p: Sequence[float], hint: Optional[int],
                             touch: TouchFn
                             ) -> Tuple[int, List[int], List[int]]:
        """Cavity under vertex locks, then the commit under
        ``_commit_lock``: in C when the accelerator is loaded, in Python
        when it is not or the kernel could not conclude — under the same
        held locks either way, so no half-committed cavity is ever
        exposed.  The wait for the lock and the work under it are
        counted apart (``commit_wait_seconds`` / ``commit_work_seconds``).
        """
        cavity, boundary = self.compute_cavity(p, hint, touch)
        t0 = time.perf_counter()
        with self._commit_lock:
            t1 = time.perf_counter()
            result = None
            if _accel.bw_commit is not None:
                result = self._commit_insertion_c(p, cavity, boundary)
            if result is None:
                result = self._commit_insertion(p, cavity, boundary)
            self._size_cavity_scratch()
        counters = self.counters
        counters.commits += 1
        counters.commit_wait_seconds += t1 - t0
        counters.commit_work_seconds += time.perf_counter() - t1
        return result

    def _commit_insertion_c(self, p: Sequence[float], cavity: List[int],
                            boundary: List[Tuple[int, int]]
                            ) -> Optional[Tuple[int, List[int], List[int]]]:
        """Commit a cavity :meth:`compute_cavity` found through the C
        kernel (orientation and closure checks, then the mutation
        burst).  The caller holds ``_commit_lock`` and every vertex lock
        of the cavity's closure.  ``None`` on an inconclusive
        orientation filter, with nothing mutated: the caller runs
        :meth:`_commit_insertion`, still under the same locks.
        """
        mesh = self.mesh
        acc = self._acc
        if acc is None:
            acc = self._acc = _accel.AccelScratch()
        px = float(p[0])
        py = float(p[1])
        pz = float(p[2])
        free_t = mesh._free_tets
        free_v = mesh._free_verts
        if free_v:
            # The kernel writes rows naming the new vertex before
            # add_vertex below stores it, and the walks of other threads
            # read rows without a lock.  A recycled slot must not show
            # them its last owner's coordinates; a fresh one is past the
            # end of ``points`` until then, which compute_cavity turns
            # into a rollback.
            vnew = free_v[-1]
            mesh.points[vnew] = mesh.coords[vnew] = (px, py, pz)
        else:
            vnew = len(mesh.points)
        codes = [t * 4 + i for t, i in boundary]
        status = acc.commit(mesh, px, py, pz, next(self._cav_gen), vnew,
                            len(free_t), cavity, codes)
        counters = self.counters
        stats = STATS
        out = acc.out_i
        n_o = int(out[2])
        stats.orient3d_calls += n_o
        stats.orient3d_filtered += n_o
        if status == _accel.RETRY:
            counters.accel_retries += 1
            counters.note_retry(out[3])
            return None
        if status == _accel.ERR_FACE:
            raise InsertionError(
                "degenerate insertion: point lies on a cavity face"
            )
        if status == _accel.ERR_CLOSED:
            raise InsertionError(
                "degenerate insertion: cavity boundary is not a closed surface"
            )
        counters.accel_inserts += 1
        new_tets = acc.newt[:len(boundary)].tolist()
        mesh.add_vertex((px, py, pz))  # allocates exactly vnew
        mesh.v2t[vnew] = new_tets[-1]  # the kernel anchored the others
        consumed = int(out[0])
        if consumed:
            del free_t[-consumed:]
        mesh.bump_slots(new_tets)
        free_t.extend(cavity)
        mesh.n_live_tets += len(boundary) - len(cavity)
        self._vgrid[self._grid_key(px, py, pz)] = vnew
        if len(mesh.points) > self._vgrid_cap:
            self._regrid()
        return vnew, new_tets, cavity

    # ------------------------------------------------------------------
    # batched insertion (initial sampling fast path)
    # ------------------------------------------------------------------
    def insert_many(self, points: Sequence[Sequence[float]],
                    hint: Optional[int] = None, skip_errors: bool = True
                    ) -> List[Optional[int]]:
        """Insert a sequence of points; one result slot per input point.

        Returns the new vertex id per point, or ``None`` where the
        insertion was skipped (duplicate / degenerate / outside the
        domain) — unless ``skip_errors`` is false, in which case the
        first failure raises.  Semantically identical to a loop of
        :meth:`insert_point` with hint chaining; when the C accelerator
        is available and the vertex free list is empty (so new vertex
        ids are contiguous — always true during the initial sampling
        burst), runs of points are dispatched through one batched ctypes
        crossing and only the stoppers (inconclusive filters, capacity
        growth, errors) fall back to the scalar path.
        """
        results: List[Optional[int]] = []
        mesh = self.mesh
        n = len(points)
        i = 0
        while i < n:
            if (n - i > 1 and _accel.bw_insert_many is not None
                    and not mesh._free_verts):
                done = self._insert_batch_c(points, i, results)
                if done:
                    i += done
                    hint = self._last_located
                    continue
            try:
                v, ntets, _ = self.insert_point(points[i], hint)
            except (InsertionError, PointLocationError):
                if not skip_errors:
                    raise
                results.append(None)
            else:
                hint = ntets[0]
                results.append(v)
            i += 1
        return results

    def _insert_batch_c(self, points: Sequence[Sequence[float]], start: int,
                        results: List[Optional[int]]) -> int:
        """One batched C crossing starting at ``points[start]``.

        Appends the committed vertex ids to ``results`` and returns how
        many points were committed (0 means the first point needs the
        scalar path).  The C kernel walks, carves and commits each point
        directly on the mesh arrays, maintaining its own free-list
        stack; this glue replays the per-insert records to bring the
        Python-side bookkeeping (points, timestamps, epochs, free
        lists, vertex grid, counters) to exactly the state a scalar loop
        would have produced.  Batch and scalar paths may
        locate through different seed tets, but cavity membership is
        predicate-determined, so the resulting topology is identical.
        """
        mesh = self.mesh
        acc = self._acc
        if acc is None:
            acc = self._acc = _accel.AccelScratch()
        p0 = points[start]
        seed = self._locate_seed(float(p0[0]), float(p0[1]), float(p0[2]))
        free_t = mesh._free_tets
        gen0 = next(self._cav_gen)
        v_base = len(mesh.points)
        out = acc.insert_many(mesh, points[start:start + _accel._BATCH_CAP],
                              seed, self._walk_state, gen0, v_base,
                              len(free_t))
        n_done = int(out[0])
        n_gens = int(out[1])
        # Keep the shared generation allocator ahead of every generation
        # the batch consumed (one per attempted point; one was already
        # drawn above).
        cav_gen = self._cav_gen
        for _ in range(n_gens - 1):
            next(cav_gen)
        self._walk_state = int(out[2])
        counters = self.counters
        stats = STATS
        n_o = int(out[5])
        n_i = int(out[6])
        stats.orient3d_calls += n_o
        stats.orient3d_filtered += n_o
        stats.insphere_calls += n_i
        stats.insphere_filtered += n_i
        counters.walk_steps += int(out[4])
        if n_done == 0:
            counters.accel_retries += 1
            counters.note_retry(out[11])
            return 0
        self._last_located = int(out[3])
        counters.locate_calls += n_done
        counters.cavity_calls += n_done
        counters.cavity_tets += int(out[7])
        counters.accel_inserts += n_done
        counters.accel_batch_calls += 1
        counters.accel_batch_inserts += n_done
        rec = acc.rec
        pos = 0
        gk = self._grid_key
        vgrid = self._vgrid
        # The kernel anchored every vertex, the batch's own included
        # (later inserts re-anchor earlier ones); add_vertex resets the
        # anchor of the slot it hands out, so those are put back after.
        anchors = mesh.v2t[v_base:v_base + n_done].copy()
        for k in range(n_done):
            p = points[start + k]
            vnew = mesh.add_vertex(
                (float(p[0]), float(p[1]), float(p[2]))
            )
            ncav = int(rec[pos])
            nb = int(rec[pos + 1])
            consumed = int(rec[pos + 2])
            pos += 3
            cav = rec[pos:pos + ncav].tolist()
            pos += ncav
            newt = rec[pos:pos + nb].tolist()
            pos += nb
            if consumed:
                del free_t[-consumed:]
            mesh.bump_slots(newt)
            free_t.extend(cav)
            mesh.n_live_tets += nb - ncav
            vgrid[gk(p[0], p[1], p[2])] = vnew
            if len(mesh.points) > self._vgrid_cap:
                self._regrid()
            results.append(vnew)
        mesh.v2t[v_base:v_base + n_done] = anchors
        return n_done

    def _insert_point_py(self, p: Sequence[float],
                         hint: Optional[int] = None
                         ) -> Tuple[int, List[int], List[int]]:
        """Pure-Python insertion (filtered predicates + exact fallback)."""
        cavity, boundary = self.compute_cavity(p, hint)
        return self._commit_insertion(p, cavity, boundary)

    def _commit_insertion(self, p: Sequence[float], cavity: List[int],
                          boundary: List[Tuple[int, int]]
                          ) -> Tuple[int, List[int], List[int]]:
        """Validate and commit a precomputed cavity (pure Python).

        Everything after the cavity search: the sequential Python
        path, and the speculative one when the C commit is not loaded
        or could not conclude.  Raises :class:`InsertionError` with the
        triangulation untouched when the cavity is degenerate.
        """
        mesh = self.mesh
        nb = len(boundary)

        bt = np.fromiter((b[0] for b in boundary), dtype=np.intp, count=nb)
        bi = np.fromiter((b[1] for b in boundary), dtype=np.intp, count=nb)
        btv = mesh.tet_verts_arr[bt]          # (nb, 4) vertex ids
        coords = mesh.coords
        rows = np.arange(nb)

        # Validate before mutating: each new tet replaces the cavity-side
        # vertex of a boundary face with p and must stay positively
        # oriented (cavity star-shapedness around p).  The orientation
        # sign falls out of the circumsphere-record computation (its
        # Cramer denominator is -orient3d's determinant), so one fused
        # batch yields both the validation and the cached records the
        # next cavity searches will consume.
        quads = coords[btv.ravel()].reshape(nb, 4, 3)
        quads[rows, bi] = p
        all_positive, entries = new_tet_records(quads)
        if not all_positive:
            raise InsertionError(
                "degenerate insertion: point lies on a cavity face"
            )
        # Closed-surface check: every edge of the boundary triangles must
        # be shared by exactly two of them.
        keep = np.arange(4)[None, :] != bi[:, None]
        faces = btv[keep].reshape(nb, 3).astype(np.int64)
        edges = np.empty((nb, 3, 2), dtype=np.int64)
        edges[:, 0, 0] = faces[:, 0]
        edges[:, 0, 1] = faces[:, 1]
        edges[:, 1, 0] = faces[:, 0]
        edges[:, 1, 1] = faces[:, 2]
        edges[:, 2, 0] = faces[:, 1]
        edges[:, 2, 1] = faces[:, 2]
        keys = (edges.min(axis=2) << 32) | edges.max(axis=2)   # (nb, 3)
        flat = keys.ravel()
        if flat.size & 1:
            raise InsertionError(
                "degenerate insertion: cavity boundary is not a closed surface"
            )
        # One stable sort serves two purposes: the closed-surface check
        # (every edge key must appear exactly twice: consecutive sorted
        # pairs equal, adjacent pairs distinct) and, later, the internal
        # adjacency pairing.
        order = np.argsort(flat, kind="stable")
        sf = flat[order]
        first = order[0::2]
        second = order[1::2]
        if (sf[0::2] != sf[1::2]).any() or (sf[1:-1:2] == sf[2::2]).any():
            raise InsertionError(
                "degenerate insertion: cavity boundary is not a closed surface"
            )

        # ---- commit phase (no predicate can fail from here on) ----
        vnew = mesh.add_vertex(p)
        # Record external adjacency before killing cavity tets.
        ext = mesh.tet_adj[bt, bi].astype(np.intp)

        new_verts = btv.copy()
        new_verts[rows, bi] = vnew
        new_tets = mesh.add_tets_batch(new_verts)
        nt_arr = np.asarray(new_tets, dtype=np.intp)
        tet_adj = mesh.tet_adj  # re-fetch: the batch alloc may have grown it

        # External faces: new tet k inherits boundary face k's outside
        # neighbor; the neighbor's back-pointer (currently at the dying
        # cavity tet) is redirected to the new tet.
        tet_adj[nt_arr, bi] = ext
        real = np.flatnonzero(ext != HULL)
        if real.size:
            os_ = ext[real]
            back = (tet_adj[os_] == bt[real][:, None]).argmax(axis=1)
            tet_adj[os_, back] = nt_arr[real]

        # Internal faces: each contains vnew plus one edge of a boundary
        # triangle; the two new tets sharing that edge are adjacent.  The
        # local slot opposite edge m of face r is the r-th boundary
        # face's non-bi position in *descending* edge order (edge pairs
        # (0,1),(0,2),(1,2) drop positions 2,1,0 respectively).
        pos = np.broadcast_to(np.arange(4), (nb, 4))[keep].reshape(nb, 3)
        slots = pos[:, ::-1]                                   # (nb, 3)
        flat_nt = np.repeat(nt_arr, 3)
        flat_slot = slots.ravel()
        tet_adj[flat_nt[first], flat_slot[first]] = flat_nt[second]
        tet_adj[flat_nt[second], flat_slot[second]] = flat_nt[first]

        mesh.kill_tets_batch(cavity)
        # v2t anchors for surviving vertices may point at dead tets; they
        # are refreshed lazily, but make sure vnew's anchor is live.
        # Scalar loop: the "last new tet wins" ordering is part of the
        # deterministic contract.
        v2t = mesh.v2t
        v2t[vnew] = new_tets[0]
        nv_rows = new_verts.tolist()
        for r in range(nb):
            nt = new_tets[r]
            row = nv_rows[r]
            v2t[row[0]] = nt
            v2t[row[1]] = nt
            v2t[row[2]] = nt
            v2t[row[3]] = nt

        # Store the circumsphere records computed during validation (the
        # quads held exactly the new tets' coordinates: boundary face + p).
        ccs = mesh.tet_cc
        for r in range(nb):
            e = entries[r]
            ccs[new_tets[r]] = e if e is not None else ()

        self._vgrid[self._grid_key(p[0], p[1], p[2])] = vnew
        if len(mesh.points) > self._vgrid_cap:
            self._regrid()
        return vnew, new_tets, cavity

    # ------------------------------------------------------------------
    # removal
    # ------------------------------------------------------------------
    def remove_vertex(self, v: int, touch: TouchFn = None,
                      on_commit: Optional[Callable[[], None]] = None
                      ) -> Tuple[List[int], List[int]]:
        """Remove vertex ``v`` and re-triangulate its ball.

        Returns ``(new_tets, killed_tets)``.  The ball is filled with the
        tetrahedra of a *local* Delaunay triangulation of the link
        vertices, built by inserting them in global insertion-timestamp
        order (paper Section 4.2), selecting the local tets whose
        circumsphere contains ``v``; the selection is verified to tile the
        hole exactly before any mutation happens, and
        :class:`RemovalError` is raised otherwise.

        ``on_commit`` is called once the removal can no longer fail.  In
        a speculative removal that is inside the commit lock, before
        ``v``'s slot is freed, which is when a caller keeping records by
        vertex id must drop them: a peer thread can be handed the slot
        as soon as the lock is released.

        Dispatch: a sequential removal (no ``touch`` callback) is one
        operation of the compiled C kernel when available — same ball,
        fill, verification, slots and adjacency as the code below — and
        runs here, with nothing mutated, whenever the kernel cannot
        conclude (tests/test_kernel_ties.py holds the two to one mesh
        store).
        """
        mesh = self.mesh
        if self.is_box_vertex(v):
            raise RemovalError("virtual box corners cannot be removed")
        if not mesh.alive_vertex[v]:
            raise RemovalError(f"vertex {v} is not alive")
        if touch is None and _accel.bw_remove is not None:
            result = self._remove_vertex_c(v)
            if result is not None:
                # No peer to be handed the slot: after is soon enough.
                if on_commit is not None:
                    on_commit()
                return result
        pts = mesh.points
        p = pts[v]

        # Lock the vertex itself before walking its star: any concurrent
        # operation that would create or destroy a tet incident to ``v``
        # must touch ``v`` too, so holding it freezes the ball.
        if touch is not None:
            touch(v)
        ball = mesh.incident_tets(v)
        if not ball:
            raise RemovalError(f"vertex {v} has no incident tetrahedra")
        if touch is not None:
            tva = mesh.tet_verts_arr
            for t in ball:
                for w in tva[t].tolist():
                    touch(w)

        # Hole boundary: the face opposite v in each ball tet, plus its
        # outside neighbor.
        hole_faces: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        link: List[int] = []
        link_seen: Set[int] = set()
        for t in ball:
            li = mesh.local_index(t, v)
            face = mesh.face_opposite(t, li)
            key = tuple(sorted(face))
            hole_faces[key] = (t, li)
            for w in face:
                if w not in link_seen:
                    link_seen.add(w)
                    link.append(w)

        ball_volume = self._abs_volume_sum(
            mesh.tet_verts_arr[np.asarray(ball, dtype=np.int64)]
        )
        # Fill strategies, both verified against the hole boundary
        # before any mutation:
        #  1. boundary-conforming Delaunay gift-wrapping (advancing front
        #     seeded with the hole's own boundary faces, min-id tie-break);
        #  2. fallback: local Delaunay triangulation of the link replayed
        #     in global insertion-timestamp order (the paper's approach).
        fill = None
        errors = []
        for strategy in (self._fill_hole_giftwrap,
                         self._fill_hole_local_dt):
            try:
                candidate = strategy(p, link, hole_faces, ball)
                self._verify_fill(candidate, hole_faces, ball_volume)
            except RemovalError as exc:
                errors.append(f"{strategy.__name__}: {exc}")
                continue
            fill = candidate
            break
        if fill is None:
            raise RemovalError(
                "ball re-triangulation failed (" + "; ".join(errors) + ")"
            )
        boundary_faces = set(hole_faces.keys())

        # ---- commit ----
        # Under speculative execution the mutation burst must not
        # interleave with another commit: the free lists, the epoch
        # lists and array growth are not safe from two threads at once.
        with self._commit_lock if touch is not None else nullcontext():
            if on_commit is not None:
                on_commit()
            # Resolve each boundary face's outside neighbor *and* the
            # slot in that neighbor pointing back into the ball before
            # killing any tet: killed slots get recycled by add_tet,
            # which would make the stale back-pointers ambiguous.
            ext: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
            for key, (t, li) in hole_faces.items():
                o = int(mesh.tet_adj[t][li])
                j = mesh.neighbor_index(o, t) if o != HULL else -1
                ext[key] = (o, j)

            for t in ball:
                mesh.kill_tet(t)
            mesh.kill_vertex(v)
            gkey = self._grid_key(p[0], p[1], p[2])
            if self._vgrid.get(gkey) == v:
                del self._vgrid[gkey]

            new_tets: List[int] = []
            face_map: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
            for tet in fill:
                a, b, c, d = tet
                if orient3d(pts[a], pts[b], pts[c], pts[d]) < 0:
                    tet = (b, a, c, d)
                    a, b = b, a
                nt = mesh.add_tet(tet)
                new_tets.append(nt)
                for i, f3 in enumerate(((b, c, d), (a, c, d),
                                        (a, b, d), (a, b, c))):
                    f = tuple(sorted(f3))
                    if f in boundary_faces:
                        o, j = ext[f]
                        mesh.tet_adj[nt][i] = o
                        if o != HULL:
                            mesh.tet_adj[o][j] = nt
                    else:
                        other = face_map.pop(f, None)
                        if other is None:
                            face_map[f] = (nt, i)
                        else:
                            mesh.set_mutual_adjacency(
                                nt, i, other[0], other[1]
                            )

            tva = mesh.tet_verts_arr
            v2t = mesh.v2t
            for nt in new_tets:
                for w in tva[nt].tolist():
                    v2t[w] = nt
            self._size_cavity_scratch()
        return new_tets, ball

    # ------------------------------------------------------------------
    # hole-filling strategies for vertex removal
    # ------------------------------------------------------------------
    def _remove_vertex_c(self, v: int
                         ) -> Optional[Tuple[List[int], List[int]]]:
        """One C-kernel removal; ``None`` means "run the Python path".

        The C routine collects the ball, fills the hole, verifies the
        fill (face pairing, boundary equality, volume) and only then
        commits rows, adjacency and ``v2t`` anchors; any inconclusive
        filter, cospherical tie, refused fill or capacity limit returns
        the retry sentinel with nothing mutated.  This glue keeps what
        the Python commit would have done beside the arrays: the free
        lists (the ball's slots pushed in ball order, the fill's popped
        LIFO), the epochs, the vertex itself, the grid and the counters.
        """
        mesh = self.mesh
        acc = self._acc
        if acc is None:
            acc = self._acc = _accel.AccelScratch()
        free_t = mesh._free_tets
        n_fill = acc.remove(mesh, v, next(self._cav_gen), len(free_t))
        out = acc.out_i
        n_o = int(out[3])
        n_i = int(out[4])
        stats = STATS
        stats.orient3d_calls += n_o
        stats.orient3d_filtered += n_o
        stats.insphere_calls += n_i
        stats.insphere_filtered += n_i
        counters = self.counters
        if n_fill < 0:
            counters.accel_remove_retries += 1
            counters.note_retry(out[5])
            return None
        counters.accel_removals += 1
        n_ball = int(out[0])
        ball = acc.cav[:n_ball].tolist()
        new_tets = acc.newt[:n_fill].tolist()
        consumed = int(out[1])
        if n_fill < n_ball:
            free_t.extend(ball[:n_ball - n_fill])
        elif consumed:
            del free_t[-consumed:]
        mesh.bump_slots(new_tets)
        mesh.n_live_tets += n_fill - n_ball
        p = mesh.points[v]
        mesh.kill_vertex(v)
        gkey = self._grid_key(p[0], p[1], p[2])
        if self._vgrid.get(gkey) == v:
            del self._vgrid[gkey]
        return new_tets, ball

    def _fill_hole_giftwrap(self, p, link, hole_faces, ball):
        """Delaunay gift-wrapping of the removal ball.

        Advancing front seeded with the hole's own boundary faces, so the
        result conforms to the surrounding mesh by construction.  Apexes
        are chosen by the standard empty-circumsphere sweep with a
        deterministic smallest-id tie-break (a "pulling" resolution of
        cospherical clusters); dominance is re-verified so degenerate
        inputs fail cleanly instead of producing overlaps.
        """
        mesh = self.mesh
        pts = mesh.points

        # Front entries: sorted-face-key -> (template, slot).  Placing an
        # apex vertex at ``template[slot]`` must give a positively
        # oriented tet on the *remaining hole* side of the face.
        front: Dict[Tuple[int, int, int], Tuple[List[int], int]] = {}
        for key, (t, li) in hole_faces.items():
            template = mesh.tet_verts_arr[t].tolist()
            front[key] = (template, li)

        link_sorted = sorted(link)
        fill: List[Tuple[int, int, int, int]] = []
        made: Set[Tuple[int, int, int, int]] = set()
        max_iter = 8 * len(ball) + 64
        it = 0
        while front:
            it += 1
            if it > max_iter:
                raise RemovalError("gift-wrapping did not converge")
            key, (template, slot) = front.popitem()
            face_verts = set(template) - {template[slot]}

            def tet_points_for(apex):
                args = [pts[template[m]] for m in range(4)]
                args[slot] = pts[apex]
                return args

            candidates = []
            best = None
            for w in link_sorted:
                if w in face_verts:
                    continue
                args = tet_points_for(w)
                if orient3d(*args) <= 0:
                    continue
                candidates.append(w)
                if best is None:
                    best = w
                    continue
                bargs = tet_points_for(best)
                if insphere(bargs[0], bargs[1], bargs[2], bargs[3], pts[w]) > 0:
                    best = w
            if best is None:
                raise RemovalError("gift-wrapping found no apex for a face")
            # Dominance re-check (guards non-transitive degenerate sweeps)
            # and collection of the cospherical tie set.
            bargs = tet_points_for(best)
            ties = [best]
            for w in candidates:
                if w == best:
                    continue
                s = insphere(bargs[0], bargs[1], bargs[2], bargs[3], pts[w])
                if s > 0:
                    raise RemovalError("gift-wrapping apex not dominant")
                if s == 0:
                    ties.append(w)
            if len(ties) > 1:
                # Cospherical cluster: any tie is Delaunay-valid, but only
                # choices consistent with the already-fixed hole boundary
                # tile the ball.  Prefer the apex whose new tet cancels the
                # most faces already waiting in the front.
                def front_score(w):
                    nv = list(template)
                    nv[slot] = w
                    score = 0
                    for j in range(4):
                        if j == slot:
                            continue
                        fkey = tuple(sorted(nv[m] for m in range(4) if m != j))
                        if fkey in front:
                            score += 1
                    return (score, -w)

                best = max(ties, key=front_score)
                bargs = tet_points_for(best)

            new_verts = list(template)
            new_verts[slot] = best
            tet = tuple(new_verts)
            canon = tuple(sorted(tet))
            if canon in made:
                raise RemovalError("gift-wrapping repeated a tetrahedron")
            made.add(canon)
            fill.append(tet)

            # Push / cancel the three faces containing the new apex.
            for j in range(4):
                if j == slot:
                    continue
                fkey = tuple(sorted(new_verts[m] for m in range(4) if m != j))
                if fkey in front:
                    del front[fkey]
                else:
                    # Flip parity so an apex beyond this face orients
                    # positively: swap two slots other than j.
                    flipped = list(new_verts)
                    others = [m for m in range(4) if m != j]
                    flipped[others[0]], flipped[others[1]] = (
                        flipped[others[1]], flipped[others[0]],
                    )
                    front[fkey] = (flipped, j)
        return fill

    def _fill_hole_local_dt(self, p, link, hole_faces, ball):
        """The paper's strategy: local DT of the link replayed in global
        insertion-timestamp order; keep the local tets whose circumsphere
        strictly contains the removed point."""
        mesh = self.mesh
        pts = mesh.points
        order = sorted(link, key=lambda w: mesh.timestamps[w])
        lo = [min(pts[w][i] for w in link) for i in range(3)]
        hi = [max(pts[w][i] for w in link) for i in range(3)]
        extent = max(hi[i] - lo[i] for i in range(3))
        local = Triangulation3D(lo, hi, margin=2.0 * extent)
        l2g: Dict[int, int] = {}
        hint = None
        try:
            for w in order:
                lv, ntets, _ = local.insert_point(pts[w], hint)
                l2g[lv] = w
                hint = ntets[0]
        except (InsertionError, PointLocationError) as exc:
            raise RemovalError(f"link re-triangulation failed: {exc}") from exc

        fill: List[Tuple[int, int, int, int]] = []
        lmesh = local.mesh
        lids = lmesh.live_tet_ids()
        signs = insphere_many(lmesh.coords, lmesh.tet_verts_arr, lids, p,
                              lmesh.points)
        for lt, s in zip(lids.tolist(), signs.tolist()):
            if s <= 0:
                continue
            lverts = lmesh.tet_verts_arr[lt].tolist()
            if any(lw not in l2g for lw in lverts):
                continue
            fill.append(tuple(l2g[lw] for lw in lverts))
        if not fill:
            raise RemovalError("no local tetrahedra conflict with the vertex")
        return fill

    def _verify_fill(self, fill, hole_faces, ball_volume: float) -> None:
        """Check that ``fill`` tiles the removal ball (of volume
        ``ball_volume``) exactly.

        Face-pairing check: every face appears at most twice, the faces
        appearing once are exactly the hole boundary.  A volume check
        guards against abstractly-paired but geometrically overlapping
        configurations.
        """
        face_count: Dict[Tuple[int, int, int], int] = {}
        for a, b, c, d in fill:
            for f3 in ((b, c, d), (a, c, d), (a, b, d), (a, b, c)):
                f = tuple(sorted(f3))
                face_count[f] = face_count.get(f, 0) + 1
        if any(c > 2 for c in face_count.values()):
            raise RemovalError("fill face shared by more than two tets")
        boundary = {f for f, c in face_count.items() if c == 1}
        if boundary != set(hole_faces.keys()):
            raise RemovalError("fill does not tile the removal ball")

        fill_volume = self._abs_volume_sum(
            np.asarray(fill, dtype=np.int64)
        )
        if abs(fill_volume - ball_volume) > 1e-6 * max(1.0, ball_volume):
            raise RemovalError("fill volume does not match ball volume")

    def _abs_volume_sum(self, vrows: np.ndarray) -> float:
        """Sum of |tet volume| over (n, 4) vertex-id rows, batched.

        Only feeds the removal tolerance check (1e-6 relative), so the
        numpy summation-order difference vs a scalar loop is harmless.
        """
        P = self.mesh.coords[vrows]
        d = P[:, 3]
        ad = P[:, 0] - d
        bd = P[:, 1] - d
        cd = P[:, 2] - d
        # explicit cross/dot: np.cross pays moveaxis overhead per call,
        # which dominates at removal-ball sizes (~25 rows)
        vol6 = (
            ad[:, 0] * (bd[:, 1] * cd[:, 2] - bd[:, 2] * cd[:, 1])
            + ad[:, 1] * (bd[:, 2] * cd[:, 0] - bd[:, 0] * cd[:, 2])
            + ad[:, 2] * (bd[:, 0] * cd[:, 1] - bd[:, 1] * cd[:, 0])
        )
        return float(np.abs(vol6).sum()) / 6.0

    # ------------------------------------------------------------------
    # validation (test / debug helpers)
    # ------------------------------------------------------------------
    def validate_topology(self) -> None:
        """Assert structural invariants; raises AssertionError on failure."""
        mesh = self.mesh
        pts = mesh.points
        for t in mesh.live_tets():
            verts = mesh.tet_verts_arr[t].tolist()
            a, b, c, d = (pts[verts[0]], pts[verts[1]], pts[verts[2]], pts[verts[3]])
            assert orient3d(a, b, c, d) > 0, f"tet {t} not positively oriented"
            adj = mesh.tet_adj[t]
            for i in range(4):
                nbr = int(adj[i])
                if nbr == HULL:
                    continue
                assert mesh.is_live(nbr), f"tet {t} adj to dead tet {nbr}"
                face = set(mesh.face_opposite(t, i))
                nface_ok = face.issubset(set(mesh.tet_verts_arr[nbr].tolist()))
                assert nface_ok, f"face mismatch {t}/{nbr}"
                j = mesh.neighbor_index(nbr, t)
                assert set(mesh.face_opposite(nbr, j)) == face, \
                    f"reciprocal face mismatch {t}/{nbr}"

    def is_delaunay(self, tol_exhaustive: int = 250_000) -> bool:
        """Exhaustive empty-circumsphere check (tests only; O(n_t * n_v)).

        Vectorized through the cached circumsphere records: for each live
        tet the squared distances of all live vertices are compared
        against the record's radius band at once; only vertices falling
        inside the uncertainty band are re-checked with the robust
        predicate.
        """
        mesh = self.mesh
        pts = mesh.points
        live_verts = [w for w in range(len(pts)) if mesh.alive_vertex[w]]
        n_checks = mesh.n_live_tets * len(live_verts)
        if n_checks > tol_exhaustive:
            raise ValueError(
                f"mesh too large for exhaustive Delaunay check ({n_checks})"
            )
        lv = np.asarray(live_verts, dtype=np.intp)
        pv = mesh.coords[lv]
        ccs = mesh.tet_cc
        for t in mesh.live_tets():
            verts = mesh.tet_verts_arr[t].tolist()
            ent = ccs[t]
            if ent is None:
                ent = self._cc_entry(t)
            a, b, c, d = (pts[verts[0]], pts[verts[1]], pts[verts[2]],
                          pts[verts[3]])
            if ent:
                diff = pv - ent[:3]
                d2 = (diff * diff).sum(axis=1)
                sv = d2 - ent[3]
                band = ent[4] + ent[5] * d2
                if (sv < -band).any():
                    inside = lv[sv < -band]
                    # Certainly-inside lanes can still be the tet's own
                    # vertices only if the entry were wrong; re-verify
                    # robustly to keep the audit trustworthy.
                    for w in inside.tolist():
                        if w in verts:
                            continue
                        if insphere(a, b, c, d, pts[w]) > 0:
                            return False
                unsure = lv[np.abs(sv) <= band]
                for w in unsure.tolist():
                    if w in verts:
                        continue
                    if insphere(a, b, c, d, pts[w]) > 0:
                        return False
            else:
                for w in live_verts:
                    if w in verts:
                        continue
                    if insphere(a, b, c, d, pts[w]) > 0:
                        return False
        return True
