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

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pointgrid import PointGrid
from repro.core.sizing import SizeFunction, unconstrained
from repro.delaunay import (
    HULL,
    InsertionError,
    PointLocationError,
    RemovalError,
    RollbackSignal,
    Triangulation3D,
)
from repro.geometry.predicates import circumcenter_tet
from repro.geometry.quality import (
    shortest_edge,
    triangle_min_angle,
)
from repro.imaging.image import SegmentedImage
from repro.imaging.isosurface import SurfaceOracle

TouchFn = Optional[Callable[[int], None]]


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


class RefineDomain:
    """Shared refinement state + the rule engine."""

    def __init__(
        self,
        image: SegmentedImage,
        delta: Optional[float] = None,
        size_function: Optional[SizeFunction] = None,
        radius_edge_bound: float = 2.0,
        planar_angle_bound_deg: float = 30.0,
        oracle: Optional[SurfaceOracle] = None,
        edt_workers: int = 1,
        enable_r6: bool = True,
    ):
        self.enable_r6 = enable_r6
        self.image = image
        self.oracle = oracle if oracle is not None else SurfaceOracle(
            image, n_workers=edt_workers
        )
        # "delta values equal to multiples of the voxel size is sufficient"
        self.delta = float(delta) if delta is not None else 2.0 * image.min_spacing
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        self.sf = size_function if size_function is not None else unconstrained()
        self.radius_edge_bound = float(radius_edge_bound)
        self.planar_angle_bound = float(planar_angle_bound_deg)

        lo, hi = image.foreground_bounds()
        margin = max(6.0 * self.delta, 2.0 * max(image.spacing))
        self.tri = Triangulation3D(lo, hi, margin=margin)

        # Conservative slack for the circumball-vs-surface test: the EDT
        # measures voxel-center to surface-voxel-center distance.
        sp = image.spacing
        self._surface_slack = math.sqrt(
            sp[0] * sp[0] + sp[1] * sp[1] + sp[2] * sp[2]
        )

        self.vertex_kind: Dict[int, VertexKind] = {
            v: VertexKind.BOX for v in self.tri.box_vertices
        }
        self.iso_grid = PointGrid(cell=self.delta)
        self.cc_grid = PointGrid(cell=2.0 * self.delta)

        # circumball cache: tet id -> (epoch, center, radius)
        self._cc_cache: Dict[int, Tuple[int, Tuple[float, float, float], float]] = {}

        # counters consumed by benchmarks / EXPERIMENTS.md
        self.n_insertions = 0
        self.n_removals = 0
        self.n_skipped = 0

        # vertex id -> creating thread (cost-model locality; worker sets it)
        self.vertex_creator: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # geometric helpers
    # ------------------------------------------------------------------
    def circumball(self, t: int) -> Tuple[Tuple[float, float, float], float]:
        """Cached circumcenter + circumradius of live tet ``t``."""
        mesh = self.tri.mesh
        epoch = mesh.tet_epoch[t]
        hit = self._cc_cache.get(t)
        if hit is not None and hit[0] == epoch:
            return hit[1], hit[2]
        pts = mesh.points
        a, b, c, d = (pts[v] for v in mesh.tet_verts_arr[t].tolist())
        try:
            cc = circumcenter_tet(a, b, c, d)
            r = math.dist(cc, a)
        except ZeroDivisionError:
            cc = (
                (a[0] + b[0] + c[0] + d[0]) / 4.0,
                (a[1] + b[1] + c[1] + d[1]) / 4.0,
                (a[2] + b[2] + c[2] + d[2]) / 4.0,
            )
            r = math.inf
        self._cc_cache[t] = (epoch, cc, r)
        return cc, r

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

    def _r1_blocked_near(self, site) -> bool:
        """R1 is blocked without asking the oracle: the candidate ``z``
        lies within one voxel diagonal of ``site``, so an isosurface
        vertex within ``delta - slack`` of ``site`` is within ``delta``
        of ``z``.  Blocking is permanent — isosurface samples are never
        removed."""
        reach = self.delta - self._surface_slack
        return reach > 0.0 and self.iso_grid.any_within(site, reach)

    def point_inside_object(self, p) -> bool:
        return self.image.label_at(p) != 0

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def is_poor(self, t: int, se: Optional[float] = None) -> bool:
        """Seed screen: could any rule apply to live tet ``t``?

        Decides which tets of a mesh that exists *before* a refinement
        loop starts (bounding simplex, bulk-loaded stitch points) are
        pushed on a Poor Element List.  Tets born during refinement are
        not screened: they are all queued and :meth:`refine_tet` judges
        each one when it is popped.  Conservative — it may report True
        for an element whose R1 insertion is delta-blocked.

        ``se`` optionally supplies the tet's shortest edge length when
        the caller already computed it — the seeding pass screens all
        live tets through the vectorized batch kernel
        (:func:`repro.geometry.batch.quality_screen`) and hands the
        per-tet value down here instead of recomputing it scalar-wise.
        """
        c, r = self.circumball(t)
        site = self.oracle.nearest_surface_voxel(c)
        if self._ball_reaches_site(c, r, site):
            if r > 2.0 * self.delta:
                return True  # R2 will fire regardless of R1's sample check
            if not self._r1_blocked_near(site):
                return True
        if self.point_inside_object(c):
            if r > self.sf(c):
                return True
            if se is None:
                se = shortest_edge(*self.tri.tet_points(t))
            if se == 0.0 or r / se > self.radius_edge_bound:
                return True
        return self._restricted_facet_needing_refinement(t) is not None

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
            bad_angle = triangle_min_angle(fa, fb, fc) < self.planar_angle_bound
            non_iso = any(
                self.vertex_kind.get(w, VertexKind.CIRCUMCENTER)
                != VertexKind.ISOSURFACE
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

        The one verdict a tet born during refinement ever gets (the
        loops call this once per pop).  Returns an
        :class:`OperationResult`; ``skipped`` is set when no rule
        applies (``rule="none"``) or a degenerate insertion had to be
        abandoned.  Rollback signals from ``touch``
        propagate to the caller before any mutation.
        """
        mesh = self.tri.mesh
        # Lock the element's own vertices first.  Beyond protocol
        # correctness this pins the whole 1-ring: any neighbor shares
        # three of these vertices, so neither ``t`` nor its neighbors can
        # be invalidated while we classify and compute (real-thread
        # safety for the lock-free classification reads below).
        if touch is not None:
            verts = mesh.tet_verts_arr[t].tolist()
            if verts[0] < 0:
                return OperationResult(rule="none", skipped=True,
                                       skip_reason="element died before lock")
            for w in verts:
                touch(w)
            if mesh.tet_verts_arr[t].tolist() != verts:
                raise RollbackSignal(owner=-1)
        c, r = self.circumball(t)
        site = self.oracle.nearest_surface_voxel(c)

        # ---- R1 ----
        if self._ball_reaches_site(c, r, site):
            if not self._r1_blocked_near(site):
                z = self.oracle.closest_surface_point(c)
                if z is not None and not self.iso_grid.any_within(z, self.delta):
                    return self._insert_point(
                        z, VertexKind.ISOSURFACE, "R1", hint=t, touch=touch
                    )
            # ---- R2 ----
            if r > 2.0 * self.delta:
                return self._insert_circumcenter(t, c, "R2", touch=touch)

        # ---- R3 ---- (classification reads are lock-free, Section 4.3)
        facet = self._restricted_facet_needing_refinement(t)
        if facet is not None:
            ft, fi = facet
            nbr = mesh.tet_adj[ft][fi]
            c_n, _ = self.circumball(nbr)
            c_surf = self.oracle.surface_crossing(c, c_n)
            if c_surf is not None:
                return self._insert_point(
                    c_surf, VertexKind.ISOSURFACE, "R3", hint=t, touch=touch
                )

        if self.point_inside_object(c):
            # ---- R4 ----
            se = shortest_edge(*self.tri.tet_points(t))
            if se == 0.0 or r / se > self.radius_edge_bound:
                return self._insert_circumcenter(t, c, "R4", touch=touch)
            # ---- R5 ----
            if r > self.sf(c):
                return self._insert_circumcenter(t, c, "R5", touch=touch)

        return OperationResult(rule="none", skipped=True,
                               skip_reason="no rule applies")

    # ------------------------------------------------------------------
    def _insert_circumcenter(self, t: int, c, rule: str,
                             touch: TouchFn) -> OperationResult:
        """Insert ``c(t)``, falling back to the longest-edge midpoint when
        the circumcenter escapes the virtual bounding volume (possible for
        elements hugging the hull; midpoints always stay inside)."""
        if not self.tri.inside_domain(c):
            c = self._longest_edge_midpoint(t)
            rule = rule + "-midpoint"
        return self._insert_point(c, VertexKind.CIRCUMCENTER, rule,
                                  hint=t, touch=touch)

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
        self.vertex_kind[v] = kind
        if kind == VertexKind.ISOSURFACE:
            self.iso_grid.add(v, p)
        else:
            self.cc_grid.add(v, p)
        result = OperationResult(rule=rule, inserted_vertex=v,
                                 new_tets=list(new_tets),
                                 killed_tets=list(killed))
        # ---- R6: purge circumcenters crowding a new isosurface vertex ----
        if kind == VertexKind.ISOSURFACE and self.enable_r6:
            self._apply_r6(p, v, result, touch)
        return result

    def _apply_r6(self, z, z_vid: int, result: OperationResult,
                  touch: TouchFn) -> None:
        victims = [
            v for v in self.cc_grid.query_ball(z, 2.0 * self.delta)
            if v != z_vid
        ]
        for v in victims:
            if not self.tri.mesh.alive_vertex[v]:
                self.cc_grid.remove(v)
                continue
            try:
                new_tets, killed = self.tri.remove_vertex(v, touch=touch)
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
            self.cc_grid.remove(v)
            self.vertex_kind.pop(v, None)
            result.removed_vertices.append(v)
            dead = set(killed)
            result.new_tets = [x for x in result.new_tets if x not in dead]
            result.new_tets.extend(new_tets)
            result.killed_tets.extend(killed)

    # ------------------------------------------------------------------
    def forget_vertex(self, v: int) -> None:
        """Drop bookkeeping for a vertex (used by rollback paths)."""
        self.vertex_kind.pop(v, None)
        self.iso_grid.remove(v)
        self.cc_grid.remove(v)
