"""Refinement domain: rules R1-R6 and their application (paper Section 3).

:class:`RefineDomain` bundles everything the refinement loop needs —
the shared triangulation, the image's surface oracle, the sampling
parameter ``delta``, the size function, per-vertex classification
(isosurface sample vs circumcenter), and the spatial grids behind the
delta-proximity checks.  Both the sequential refiner and the parallel
refiners drive the same domain object; parallel callers pass a ``touch``
callback so every vertex an operation reads gets locked first
(Section 4.2).

Rule summary (priority order):

* **R1**  circumball of ``t`` intersects the isosurface: insert the
  closest isosurface point to ``c(t)`` unless an isosurface vertex
  already lies within ``delta`` of it.
* **R2**  circumball intersects the isosurface and ``r(t) > 2*delta``:
  insert ``c(t)``.
* **R3**  a facet's Voronoi edge crosses the isosurface and the facet
  has a planar angle below 30 degrees or a vertex that is not an
  isosurface sample: insert the surface center.
* **R4**  ``c(t)`` inside the object and radius-edge ratio > 2:
  insert ``c(t)``.
* **R5**  ``c(t)`` inside the object and ``r(t) > sf(c(t))``:
  insert ``c(t)``.
* **R6**  when an isosurface vertex ``z`` is inserted, delete all
  circumcenter vertices within ``2*delta`` of ``z`` (termination).
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import _accel
from repro.core.pointgrid import PointGrid
from repro.core.sizing import SizeSpec, unconstrained
from repro.delaunay import (
    HULL,
    InsertionError,
    PointLocationError,
    RemovalError,
    RollbackSignal,
    Triangulation3D,
)
from repro.delaunay.mesh import FACE_OPPOSITE
from repro.geometry.batch import (
    circumballs_many,
    shortest_edges_many,
    triangle_min_angles_many,
)
from repro.geometry.predicates import circumcenter_tet
from repro.geometry.quality import (
    shortest_edge,
    triangle_min_angle,
)
from repro.imaging.image import SegmentedImage
from repro.imaging.isosurface import SurfaceOracle

TouchFn = Optional[Callable[[int], None]]

#: The paper's quality contract (Section 3): R4 splits a tet whose
#: radius-edge ratio exceeds this bound ...
RADIUS_EDGE_BOUND = 2.0
#: ... and R3 a restricted facet with a planar angle below this one
#: (degrees).  The baselines carry their own knobs.
PLANAR_ANGLE_BOUND_DEG = 30.0

# Room the screen leaves wherever its float arithmetic is not the
# judge's own (numpy's root of a sum of squares against ``math.dist``,
# its arc cosine against ``math.acos``): a tie goes to "maybe" and
# ``refine_tet`` decides.
_TIE = 1e-12
_ANGLE_TIE_DEG = 1e-9


def _grown(arr: np.ndarray, n: int, fill) -> np.ndarray:
    """``arr`` itself when it has ``n`` rows, else a copy of at least
    twice the length, padded with ``fill``."""
    if len(arr) >= n:
        return arr
    out = np.full((max(n, 2 * len(arr)),) + arr.shape[1:], fill, arr.dtype)
    out[: len(arr)] = arr
    return out


class VertexKind(IntEnum):
    """Paper Section 3: vertices are isosurface samples, circumcenters,
    or surface-centers; the auxiliary bounding-simplex corners are BOX."""

    BOX = 0
    ISOSURFACE = 1     # R1 samples and R3 surface-centers
    CIRCUMCENTER = 2   # R2 / R4 / R5 Steiner points


@dataclass
class OperationResult:
    """What a single refinement operation did."""

    rule: str
    inserted_vertex: Optional[int] = None
    removed_vertices: List[int] = field(default_factory=list)
    new_tets: List[int] = field(default_factory=list)
    killed_tets: List[int] = field(default_factory=list)
    skipped: bool = False
    skip_reason: str = ""
    r6_conflicts: int = 0  # R6 removals abandoned due to lock conflicts


class CircumballStore:
    """The circumballs of a :class:`~repro.delaunay.mesh.TetMesh`, one
    store for every rule set over it (PI2M's, the baselines') and their
    extractions: row ``t`` of ``rows`` is ``(cx, cy, cz, r, epoch)`` of
    tet slot ``t``, current while ``epoch`` is the slot's.  The scalar
    and the batch reader fill the same rows, so they cannot disagree on
    a centre or a radius.  A row is written in one piece; the lock keeps
    a growing copy from tearing or losing a row another thread is
    writing."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.rows = np.full((1024, 5), -1.0)
        self._lock = threading.Lock()

    def ball(self, t: int) -> Tuple[Tuple[float, float, float], float]:
        """Circumcenter + circumradius of live tet ``t``."""
        mesh = self.mesh
        epoch = mesh.tet_epoch.item(t)
        store = self.rows
        if t < len(store):
            cx, cy, cz, r, stored = store[t].tolist()
            if stored == epoch:
                return (cx, cy, cz), r
        pts = mesh.points
        a, b, c, d = (pts[v] for v in mesh.tet_verts_arr[t].tolist())
        try:
            cc = circumcenter_tet(a, b, c, d)
            dx, dy, dz = cc[0] - a[0], cc[1] - a[1], cc[2] - a[2]
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
        except ZeroDivisionError:
            cc = (
                (a[0] + b[0] + c[0] + d[0]) / 4.0,
                (a[1] + b[1] + c[1] + d[1]) / 4.0,
                (a[2] + b[2] + c[2] + d[2]) / 4.0,
            )
            r = math.inf
        with self._lock:
            self.rows = store = _grown(self.rows, t + 1, -1.0)
            store[t] = (cc[0], cc[1], cc[2], r, epoch)
        return cc, r

    def balls(self, tets: np.ndarray) -> np.ndarray:
        """``rows``, made current for the live tets ``tets`` (repeats
        allowed).

        Rows that are stale are computed in one batch, bit-identical to
        what :meth:`ball` would have stored.
        """
        mesh = self.mesh
        # Epochs before rows: a commit bumps a slot before it writes it.
        epoch = mesh.tet_epoch[tets]
        with self._lock:
            self.rows = store = _grown(self.rows, mesh.tet_top, -1.0)
            is_stale = store[tets, 4] != epoch
            stale = tets[is_stale]
            if stale.size:
                quads = mesh.coords[mesh.tet_verts_arr[stale]]
                store[stale, :3], store[stale, 3] = circumballs_many(quads)
                store[stale, 4] = epoch[is_stale]
        return store

    def centre_labels(self, image, tets: np.ndarray, adj: np.ndarray):
        """``(rows, slot_label)`` for a generation ``tets`` and its face
        neighbours ``adj`` (``-1``: none): the rows made current, and the
        image label at each circumcentre as a per-slot array whose spare
        last entry the ``-1`` reads (background)."""
        top = self.mesh.tet_top
        seen = np.zeros(top, dtype=bool)
        seen[tets] = True
        seen[adj[adj >= 0]] = True
        ids = np.flatnonzero(seen)
        store = self.balls(ids)
        slot_label = np.zeros(top + 1, dtype=np.int32)
        slot_label[ids] = image.labels_at_many(store[ids, :3])
        return store, slot_label


#: :meth:`RefineDomain.judge`'s answer when no rule applies.
_NO_RULE = ("none", None, None)

#: The C judge's verdicts 1-5: the rule and the kind of vertex it inserts.
_C_RULES = (
    None,
    ("R1", VertexKind.ISOSURFACE),
    ("R2", VertexKind.CIRCUMCENTER),
    ("R3", VertexKind.ISOSURFACE),
    ("R4", VertexKind.CIRCUMCENTER),
    ("R5", VertexKind.CIRCUMCENTER),
)


class RefineDomain:
    """Shared refinement state + the rule engine."""

    def __init__(
        self,
        image: SegmentedImage,
        delta: Optional[float] = None,
        size_function: Optional[SizeSpec] = None,
        oracle: Optional[SurfaceOracle] = None,
        enable_r6: bool = True,
    ):
        self.enable_r6 = enable_r6
        self.image = image
        self.oracle = oracle if oracle is not None else SurfaceOracle(image)
        # "delta values equal to multiples of the voxel size is sufficient"
        self.delta = float(delta) if delta is not None else 2.0 * image.min_spacing
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        spec = size_function if size_function is not None else unconstrained()
        self.sf = spec.bind(self)
        self._size_spec = spec

        lo, hi = image.foreground_bounds()
        margin = max(6.0 * self.delta, 2.0 * max(image.spacing))
        self.tri = Triangulation3D(lo, hi, margin=margin)

        # Conservative slack for the circumball-vs-surface test: the EDT
        # measures voxel-center to surface-voxel-center distance.
        sp = image.spacing
        self._surface_slack = math.sqrt(
            sp[0] * sp[0] + sp[1] * sp[1] + sp[2] * sp[2]
        )

        # Vertex bookkeeping — the kind of every vertex, one int8 array
        # indexed by vertex id (:meth:`kinds`), and the two proximity
        # grids.  ``register_vertex`` and ``forget_vertex`` are the only
        # writers.
        self._kind_arr = np.full(256, VertexKind.CIRCUMCENTER, dtype=np.int8)
        self._array_lock = threading.Lock()
        self.iso_grid = PointGrid(cell=self.delta)
        self.cc_grid = PointGrid(cell=2.0 * self.delta)
        for v in self.tri.box_vertices:
            self.register_vertex(v, self.tri.mesh.points[v], VertexKind.BOX)

        # The circumball store; the scalar and the batch reader are bound
        # once, so a call is the store's own method, not a delegation.
        self._balls = CircumballStore(self.tri.mesh)
        self.circumball = self._balls.ball
        self.circumballs = self._balls.balls
        # The C judge's context (None: the Python judge decides alone).
        self._judge_ctx = None
        if _accel.judge is not None:
            self._init_c_judge()

        # counters consumed by benchmarks / EXPERIMENTS.md
        self.n_insertions = 0
        self.n_removals = 0
        self.n_skipped = 0

    # ------------------------------------------------------------------
    # geometric helpers
    # ------------------------------------------------------------------
    def surface_distance(self, p: Sequence[float]) -> float:
        """Approximate distance from ``p`` to the isosurface.

        Looks up the nearest surface voxel of the (clamped) voxel holding
        ``p`` and measures the true world distance from ``p`` to that
        voxel's center.  Exact to within one voxel for points near the
        image; crucially, it stays accurate for points far *outside* the
        image box, where the clamped EDT value alone would be wildly
        wrong and would make every remote circumball look like it crosses
        the surface.
        """
        return math.dist(p, self.oracle.nearest_surface_voxel(p))

    def _ball_reaches_site(self, c, r: float, site) -> bool:
        """Conservative circumball-vs-isosurface test, given the surface
        site nearest to the center ``c``."""
        return r == math.inf or math.dist(c, site) <= r + self._surface_slack

    def point_inside_object(self, p) -> bool:
        return self.image.label_at(p) != 0

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def screen(self, tets) -> np.ndarray:
        """Could a rule apply?  One bool per live tet id in ``tets``.

        ``False`` is exact: :meth:`refine_tet` answers ``rule="none"``
        for that tet now, and keeps answering it while the tet lives —
        R2/R4/R5 read the tet's own geometry, a blocked R1 stays blocked
        because isosurface samples are never removed, and R3 can only
        start to apply when a face neighbour is replaced, in which case
        the replacement is a new tet that judges the shared facet by the
        same symmetric test.  ``True`` means "maybe": ``refine_tet``
        decides, and it remains the only code that applies a rule.

        Every test is the judge's own — same circumballs (the shared
        store), same sites, labels and samples — evaluated as array
        masks; where the arithmetic differs in the last bit the
        comparison is widened (``_TIE``).  R1's closest-point rays are
        asked only for tets no other rule flags, and all of them in one
        :meth:`SurfaceOracle.closest_surface_points` call: one C loop
        over the rows that walks each ray with the judge's traversal, so
        it returns the judge's floats.  Reads the mesh without locks, so
        it must not run while other threads refine.
        """
        mesh = self.tri.mesh
        tets = np.asarray(tets, dtype=np.int64)
        if tets.size == 0:
            return np.zeros(0, dtype=bool)
        verts = mesh.tet_verts_arr[tets]
        adj = mesh.tet_adj[tets]
        has_nbr = adj != HULL
        store, slot_label = self._balls.centre_labels(self.image, tets, adj)
        c = store[tets, :3]
        r = store[tets, 3]
        label = slot_label[tets]
        inside = label != 0

        # ---- R2, and R1's precondition ----
        site = self.oracle.nearest_surface_voxels(c)
        d = c - site
        gap = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
                      + d[:, 2] * d[:, 2])
        reaches = (r == np.inf) | (
            gap <= (r + self._surface_slack) * (1.0 + _TIE))
        maybe = reaches & (r > 2.0 * self.delta)

        # ---- R4 ----
        rows = np.flatnonzero(inside & ~maybe)
        se = shortest_edges_many(mesh.coords[verts[rows]])
        maybe[rows[(se == 0.0) | (
            r[rows] >= RADIUS_EDGE_BOUND * se * (1.0 - _TIE))]] = True

        # ---- R3 ----
        ti, fi = np.nonzero(has_nbr & (slot_label[adj] != label[:, None]))
        if ti.size:
            face = verts[ti[:, None], FACE_OPPOSITE[fi]]
            kinds = self.kinds(len(mesh.points))
            wanted = (kinds[face] != VertexKind.ISOSURFACE).any(axis=1)
            rest = np.flatnonzero(~wanted)
            wanted[rest] = triangle_min_angles_many(
                mesh.coords[face[rest]]
            ) < PLANAR_ANGLE_BOUND_DEG + _ANGLE_TIE_DEG
            maybe[ti[wanted]] = True

        # ---- R5 ----
        rows = np.flatnonzero(inside & ~maybe)
        if rows.size:
            sf = self.sf
            size = np.array([sf(p) for p in map(tuple, c[rows].tolist())])
            maybe[rows[r[rows] > size]] = True

        # ---- R1 ----
        rows = np.flatnonzero(reaches & ~maybe)
        hit, z = self.oracle.closest_surface_points(c[rows])
        rows = rows[hit]
        if rows.size:
            blocked = self.iso_grid.any_within_many(z[hit], self.delta)
            maybe[rows[~blocked]] = True
        return maybe

    def kinds(self, n: int) -> np.ndarray:
        """The int8 kinds of vertices ``0 .. n-1``, a view of the one
        record (a padded copy while it is shorter).  A vertex nobody
        registered, or a dead one, reads as a circumcenter."""
        kinds = self._kind_arr
        if len(kinds) < n:
            kinds = _grown(kinds, n, VertexKind.CIRCUMCENTER)
        return kinds[:n]

    @property
    def vertex_kind(self) -> Dict[int, VertexKind]:
        """``{vertex: kind}`` over the live vertices, built from
        :meth:`kinds` on every read; writing to it changes nothing."""
        alive = self.tri.mesh.alive_vertex
        kinds = self.kinds(len(alive)).tolist()
        return {v: VertexKind(k) for v, k in enumerate(kinds) if alive[v]}

    def _restricted_facet_needing_refinement(
        self, t: int, touch: TouchFn = None
    ) -> Optional[Tuple[int, int]]:
        """First facet of ``t`` that rule R3 wants refined, as (t, face).

        A facet is *restricted* when its Voronoi edge endpoints (the two
        incident circumcenters) lie in regions of different label —
        exactly the restricted-Delaunay criterion.
        """
        mesh = self.tri.mesh
        pts = mesh.points
        c_t, _ = self.circumball(t)
        lab_t = self.image.label_at(c_t)
        adj = mesh.tet_adj[t]
        for i in range(4):
            nbr = adj[i]
            if nbr == HULL:
                continue
            if touch is not None:
                for w in mesh.tet_verts_arr[nbr].tolist():
                    touch(w)
            c_n, _ = self.circumball(nbr)
            if self.image.label_at(c_n) == lab_t:
                continue
            face = mesh.face_opposite(t, i)
            fa, fb, fc = (pts[w] for w in face)
            bad_angle = (triangle_min_angle(fa, fb, fc)
                         < PLANAR_ANGLE_BOUND_DEG)
            # A vertex a peer committed but has not registered yet may
            # lie past the array's end: it reads as a circumcenter.
            # ``item`` gives a Python int; a numpy scalar compares ~9x
            # slower, on the judge's path.
            kinds = self._kind_arr
            non_iso = any(
                w >= len(kinds) or kinds.item(w) != VertexKind.ISOSURFACE
                for w in face
            )
            if bad_angle or non_iso:
                return (t, i)
        return None

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def refine_tet(self, t: int, touch: TouchFn = None) -> OperationResult:
        """Judge live tet ``t``: apply the first applicable rule.

        The only code that inserts or removes for a rule.  The worker
        loops call it once per pop; the sequential refiner calls it for
        the tets :meth:`screen` could not rule out.  Returns an
        :class:`OperationResult`; ``skipped`` is set when no rule
        applies (``rule="none"``) or a degenerate insertion had to be
        abandoned.  Rollback signals from ``touch``
        propagate to the caller before any mutation.

        Without ``touch`` (the sequential path) the C judge decides when
        the accelerator is loaded, and :meth:`judge` only where it
        defers.
        """
        mesh = self.tri.mesh
        decision = None
        if touch is not None:
            # Lock the element's own vertices first.  Beyond protocol
            # correctness this pins the whole 1-ring: any neighbor shares
            # three of these vertices, so neither ``t`` nor its neighbors
            # can be invalidated while we classify and compute (real-thread
            # safety for the lock-free classification reads below).
            verts = mesh.tet_verts_arr[t].tolist()
            if verts[0] < 0:
                return OperationResult(rule="none", skipped=True,
                                       skip_reason="element died before lock")
            for w in verts:
                touch(w)
            if mesh.tet_verts_arr[t].tolist() != verts:
                raise RollbackSignal(owner=-1)
        elif self._judge_ctx is not None:
            decision = self._judge_c(t)
        if decision is None:
            decision = self.judge(t)
        rule, p, kind = decision
        if p is None:
            return OperationResult(rule="none", skipped=True,
                                   skip_reason="no rule applies")
        return self._insert_point(p, kind, rule, hint=t, touch=touch)

    def judge(self, t: int
              ) -> Tuple[str, Optional[tuple], Optional[VertexKind]]:
        """The first rule that applies to live tet ``t``: ``(rule, point,
        kind)``, the point to insert and its vertex kind, or ``("none",
        None, None)``.  Reads the mesh without locks and changes nothing
        but the circumball store (Section 4.3).

        The reference judge: the C judge (``_accel/judge.c``) answers as
        it does, or defers to it."""
        c, r = self.circumball(t)
        site = self.oracle.nearest_surface_voxel(c)

        # ---- R1 ----
        if self._ball_reaches_site(c, r, site):
            z = self.oracle.closest_surface_point(c)
            if z is not None and not self.iso_grid.any_within(z, self.delta):
                return ("R1", z, VertexKind.ISOSURFACE)
            # ---- R2 ----
            if r > 2.0 * self.delta:
                return self._circumcenter_rule(t, c, "R2")

        # ---- R3 ----
        facet = self._restricted_facet_needing_refinement(t)
        if facet is not None:
            ft, fi = facet
            nbr = self.tri.mesh.tet_adj[ft][fi]
            c_n, _ = self.circumball(nbr)
            c_surf = self.oracle.surface_crossing(c, c_n)
            if c_surf is not None:
                return ("R3", c_surf, VertexKind.ISOSURFACE)

        if self.point_inside_object(c):
            # ---- R4 ----
            se = shortest_edge(*self.tri.tet_points(t))
            if se == 0.0 or r / se > RADIUS_EDGE_BOUND:
                return self._circumcenter_rule(t, c, "R4")
            # ---- R5 ----
            if r > self.sf(c):
                return self._circumcenter_rule(t, c, "R5")
        return _NO_RULE

    # ------------------------------------------------------------------
    # the judge in C (``_accel/judge.c``)
    # ------------------------------------------------------------------
    def _init_c_judge(self) -> None:
        """Build the C judge's context: the image, R1's grid, the rules'
        numbers (read now) and an output buffer; the array pointers are
        taken at the first call."""
        tri = self.tri
        ctx = self._judge_ctx = _accel.JudgeContext()
        labels, feature, geometry = self.oracle._c_oracle
        ctx.labels = labels.value
        ctx.feature = feature.value
        ctx.geometry = geometry.value
        ctx.iso = self.iso_grid._h
        ctx.delta = self.delta
        ctx.slack = self._surface_slack
        ctx.re_bound = RADIUS_EDGE_BOUND
        ctx.cos_bound = math.cos(math.radians(PLANAR_ANGLE_BOUND_DEG))
        spec = self._size_spec
        # R5's bound as a number, or NaN: Python evaluates sf(c).
        ctx.size = (math.inf if spec.kind == "unconstrained"
                    else spec.args[0] if spec.kind == "constant"
                    else math.nan)
        ctx.hull[:] = [x for n, off in tri._hull_planes for x in (*n, off)]
        ctx.hull_margin = tri._hull_margin
        self._judge_address = ctypes.addressof(ctx)
        self._judge_out = (ctypes.c_double * 4)()
        self._judge_arrays = (None,) * 4
        self._judge_rows = 0

    def _bind_c_judge(self) -> None:
        """Point the context at the current arrays, the circumball store
        grown to the tet tail first so C can write every row it
        computes."""
        mesh = self.tri.mesh
        balls = self._balls
        if len(balls.rows) < mesh.tet_top:
            with balls._lock:
                balls.rows = _grown(balls.rows, mesh.tet_top, -1.0)
        self._judge_arrays = (mesh.tet_adj, mesh.coords, balls.rows,
                              self._kind_arr)
        self._judge_rows = len(balls.rows)
        ctx = self._judge_ctx
        ctx.coords = mesh.coords.ctypes.data
        ctx.tv = mesh.tet_verts_arr.ctypes.data
        ctx.adj = mesh.tet_adj.ctypes.data
        ctx.epoch = mesh.tet_epoch.ctypes.data
        ctx.rows = balls.rows.ctypes.data
        ctx.n_rows = self._judge_rows
        ctx.kinds = self._kind_arr.ctypes.data
        ctx.n_kinds = len(self._kind_arr)

    def _judge_c(self, t: int):
        """:meth:`judge` in C, or ``None`` where C defers to it.  R5
        under a size function that is not a constant is evaluated here,
        with the centre and radius C hands back."""
        mesh = self.tri.mesh
        arrays = self._judge_arrays
        # The tet arrays are replaced together, coords with v2t.
        if (mesh.tet_adj is not arrays[0] or mesh.coords is not arrays[1]
                or self._balls.rows is not arrays[2]
                or self._kind_arr is not arrays[3]
                or mesh.tet_top > self._judge_rows):
            self._bind_c_judge()
        out = self._judge_out
        code = _accel.judge(self._judge_address, t, out)
        counters = self.tri.counters
        counters.judge_calls += 1
        if code > 0:
            p = (out[0], out[1], out[2])
            if code == _accel.JUDGE_SIZE:
                if out[3] > self.sf(p):
                    return self._circumcenter_rule(t, p, "R5")
                return _NO_RULE
            rule, kind = _C_RULES[code & ~_accel.JUDGE_MIDPOINT]
            if code & _accel.JUDGE_MIDPOINT:
                rule += "-midpoint"
            return (rule, p, kind)
        if code == 0:
            return _NO_RULE
        counters.note_deferral(_accel.JUDGE_DEFER - code)
        return None

    # ------------------------------------------------------------------
    def _circumcenter_rule(self, t: int, c, rule: str):
        """``rule``'s decision to insert ``c(t)``, falling back to the
        longest-edge midpoint when the circumcenter escapes the virtual
        bounding volume (possible for elements hugging the hull;
        midpoints always stay inside)."""
        if not self.tri.inside_domain(c):
            return (rule + "-midpoint", self._longest_edge_midpoint(t),
                    VertexKind.CIRCUMCENTER)
        return (rule, c, VertexKind.CIRCUMCENTER)

    def _longest_edge_midpoint(self, t: int):
        pts = self.tri.tet_points(t)
        best = None
        best_len = -1.0
        for i in range(4):
            for j in range(i + 1, 4):
                d = math.dist(pts[i], pts[j])
                if d > best_len:
                    best_len = d
                    best = (
                        0.5 * (pts[i][0] + pts[j][0]),
                        0.5 * (pts[i][1] + pts[j][1]),
                        0.5 * (pts[i][2] + pts[j][2]),
                    )
        return best

    def _insert_point(self, p, kind: VertexKind, rule: str, hint: int,
                      touch: TouchFn) -> OperationResult:
        try:
            v, new_tets, killed = self.tri.insert_point(p, hint=hint,
                                                        touch=touch)
        except (InsertionError, PointLocationError) as exc:
            self.n_skipped += 1
            return OperationResult(rule=rule, skipped=True,
                                   skip_reason=str(exc))
        self.n_insertions += 1
        self.register_vertex(v, p, kind)
        result = OperationResult(rule=rule, inserted_vertex=v,
                                 new_tets=list(new_tets),
                                 killed_tets=list(killed))
        # ---- R6: purge circumcenters crowding a new isosurface vertex ----
        if kind == VertexKind.ISOSURFACE and self.enable_r6:
            self.apply_r6(p, v, result, touch)
        return result

    def apply_r6(self, z, z_vid: int, result: OperationResult,
                 touch: TouchFn = None) -> None:
        """Rule R6 for isosurface vertex ``z_vid`` at ``z``: remove the
        circumcenter vertices within ``2*delta`` and record it on
        ``result``.  Runs inside every isosurface insertion; the stitch
        calls it for the samples a bulk load brought in."""
        victims = [
            v for v in self.cc_grid.query_ball(z, 2.0 * self.delta)
            if v != z_vid
        ]
        for v in victims:
            if not self.tri.mesh.alive_vertex[v]:
                continue  # a peer removed it since the query
            try:
                # Forgotten at the commit, before the slot is freed: a
                # peer thread may be handed the slot, and register its
                # own vertex there, the moment the removal commits.
                new_tets, killed = self.tri.remove_vertex(
                    v, touch=touch,
                    on_commit=lambda v=v: self.forget_vertex(v))
            except RemovalError:
                self.n_skipped += 1
                continue
            except RollbackSignal:
                # A parallel peer owns part of this victim's ball: the
                # enclosing insertion has already committed, so the R6
                # purge of this victim is deferred instead of unwinding
                # the whole operation.  Counted as a rollback upstream.
                result.r6_conflicts += 1
                continue
            self.n_removals += 1
            result.removed_vertices.append(v)
            dead = set(killed)
            result.new_tets = [x for x in result.new_tets if x not in dead]
            result.new_tets.extend(new_tets)
            result.killed_tets.extend(killed)

    # ------------------------------------------------------------------
    def register_vertex(self, v: int, p, kind: VertexKind) -> None:
        """Record vertex ``v`` at ``p`` as ``kind``: isosurface samples
        join the R1 grid, circumcenters the R6 grid."""
        kind = VertexKind(kind)
        with self._array_lock:
            self._kind_arr = _grown(self._kind_arr, v + 1,
                                    VertexKind.CIRCUMCENTER)
            self._kind_arr[v] = kind
        if kind == VertexKind.ISOSURFACE:
            self.iso_grid.add(v, p)
        elif kind == VertexKind.CIRCUMCENTER:
            self.cc_grid.add(v, p)

    def forget_vertex(self, v: int) -> None:
        """Drop every record of registered vertex ``v`` (removed, or its
        slot about to be reused)."""
        with self._array_lock:
            self._kind_arr[v] = VertexKind.CIRCUMCENTER
        self.iso_grid.remove(v)
        self.cc_grid.remove(v)
