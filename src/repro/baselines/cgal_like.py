"""CGAL-Mesh_3-style isosurface-based baseline, as a rule set.

Restricted Delaunay refinement with CGAL's criteria:

* facet criteria — minimum facet angle (default 30 degrees), facet
  distance (the facet's surface center may not be farther than
  ``facet_distance`` from the facet circumcenter), facet size;
* cell criteria — radius-edge bound (default 2) and cell size.

What is shared with PI2M is listed in :mod:`repro.baselines`.  This
mesher's own: the rules — facets before cells, insertions only (no R6
removals, no vertex kinds) — and how it finds the surface: every
intersection is the dual segment of a restricted facet marched through
the voxel labels, and no distance transform is ever built.  Those are
the structural differences the paper's Table 6 speed comparison
reflects.

The walk judges a tet once, in the generation after its birth, so a
facet must get the same verdict from either side: its two tets carry
different labels, and the dual segment is marched from the circumcentre
with the *lower* one over face vertices in id order — the surface
center, and with it every facet criterion, is a function of the facet
alone.  A tet its own refinement point left standing is handed back to
the walk with the tets born.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.domain import _TIE, CircumballStore, OperationResult
from repro.core.extract import ExtractedMesh, extract_mesh
from repro.core.refiner import RefineStats, SequentialRefiner
from repro.delaunay import HULL, InsertionError, PointLocationError, Triangulation3D
from repro.geometry.batch import shortest_edges_many
from repro.geometry.predicates import circumcenter_tri
from repro.geometry.quality import shortest_edge, triangle_min_angle
from repro.imaging.image import SegmentedImage
from repro.imaging.isosurface import LabelRays

class InsertOnlyRules:
    """What a baseline puts under the generation walk besides its
    ``screen`` / ``refine_tet``: the triangulation, the circumball
    store, the three counters the walk reads, and the one operation
    either baseline performs."""

    def __init__(self, lo, hi, max_operations: int, **box):
        self.tri = Triangulation3D(lo, hi, **box)
        self.max_operations = max_operations
        self._balls = CircumballStore(self.tri.mesh)
        self.circumball = self._balls.ball
        self.circumballs = self._balls.balls
        self.n_insertions = self.n_removals = self.n_skipped = 0
        self.stats = RefineStats()

    def refine(self) -> ExtractedMesh:
        """Bulk-load the initial points, walk to the fixed point,
        extract the mesh; ``stats.wall_time`` covers load and walk."""
        t0 = time.perf_counter()
        inserted = self.tri.insert_many(self._initial_points())
        self.n_insertions += sum(v is not None for v in inserted)
        self.stats = SequentialRefiner(
            self, max_operations=self.max_operations).refine()
        self.stats.wall_time = time.perf_counter() - t0
        return self.extract()

    def _insert(self, p, t: int, rule: str) -> OperationResult:
        """Insert ``p`` for tet ``t`` under ``rule``.  An abandoned
        insertion is a skip; ``t`` rides along with the tets born (the
        walk drops it if the insertion killed it)."""
        try:
            _, new_tets, _ = self.tri.insert_point(p, hint=t)
        except (InsertionError, PointLocationError) as exc:
            self.n_skipped += 1
            return OperationResult(rule=rule, skipped=True, skip_reason=str(exc))
        self.n_insertions += 1
        return OperationResult(rule=rule, new_tets=[*new_tets, t])


class CGALLikeMesher(InsertOnlyRules):
    """Isosurface-based restricted-Delaunay mesher (Mesh_3 style)."""

    extract = extract_mesh  # PI2M's own: circumcenter inside the object

    def __init__(
        self,
        image: SegmentedImage,
        facet_angle_deg: float = 30.0,
        facet_distance: Optional[float] = None,
        facet_size: Optional[float] = None,
        cell_radius_edge: float = 2.0,
        cell_size: Optional[float] = None,
        n_initial_points: int = 24,
        max_operations: int = 2_000_000,
    ):
        super().__init__(*image.foreground_bounds(), max_operations,
                         margin=2.0 * max(image.spacing))
        self.image = image
        self.facet_angle = facet_angle_deg
        self.facet_distance = (1.5 * image.min_spacing if facet_distance is None
                               else facet_distance)
        self.facet_size = facet_size if facet_size is not None else math.inf
        self.cell_radius_edge = cell_radius_edge
        self.cell_size = cell_size if cell_size is not None else math.inf
        self.n_initial_points = n_initial_points
        self.surface_crossing = LabelRays(image).surface_crossing

    def _initial_points(self) -> List[Tuple[float, float, float]]:
        """Scan rays from the centre of the volume to seed the surface
        (Mesh_3's initial-point construction)."""
        lo, hi = map(np.array, self.image.foreground_bounds())
        center, reach = 0.5 * (lo + hi), float((hi - lo).max())
        rng = np.random.default_rng(1234)
        pts = []
        for _ in range(40 * self.n_initial_points):
            u = rng.normal(size=3)
            hit = self.surface_crossing(
                tuple(center), tuple(center + u * (reach / np.linalg.norm(u))))
            if hit is not None:
                pts.append(hit)
                if len(pts) == self.n_initial_points:
                    break
        return pts

    # ------------------------------------------------------------------
    # the rules
    # ------------------------------------------------------------------
    def _bad_facet(self, t: int, i: int, lab_t: int):
        """The surface center of face ``i`` of ``t`` when that facet is
        restricted and fails a facet criterion, else ``None``."""
        mesh = self.tri.mesh
        nbr = mesh.tet_adj[t][i]
        if nbr == HULL:
            return None
        c_t, _ = self.circumball(t)
        c_n, _ = self.circumball(nbr)
        lab_n = self.image.label_at(c_n)
        if lab_n == lab_t:
            return None
        c_surf = (self.surface_crossing(c_t, c_n) if lab_t < lab_n
                  else self.surface_crossing(c_n, c_t))
        if c_surf is None:
            return None
        fa, fb, fc = (mesh.points[w] for w in sorted(mesh.face_opposite(t, i)))
        if triangle_min_angle(fa, fb, fc) < self.facet_angle:
            return c_surf
        try:
            fcc = circumcenter_tri(fa, fb, fc)
        except ZeroDivisionError:  # flat facet an angle bound <= 0 let by
            return c_surf
        if (math.dist(fcc, c_surf) > self.facet_distance
                or math.dist(c_surf, fa) > self.facet_size):
            return c_surf
        return None

    def refine_tet(self, t: int) -> OperationResult:
        """Judge live tet ``t``: its first bad facet, else its cell."""
        c_t, r_t = self.circumball(t)
        lab_t = self.image.label_at(c_t)
        for i in range(4):
            c_surf = self._bad_facet(t, i, lab_t)
            if c_surf is not None:
                return self._insert(c_surf, t, "facet")
        if lab_t != 0:
            se = shortest_edge(*self.tri.tet_points(t))
            if (se == 0.0 or r_t / se > self.cell_radius_edge
                    or r_t > self.cell_size) and self.tri.inside_domain(c_t):
                return self._insert(c_t, t, "cell")
        return OperationResult(rule="none", skipped=True)

    def screen(self, tets) -> np.ndarray:
        """Could a criterion fail?  One bool per live tet id in ``tets``;
        ``False`` is exact (``refine_tet`` answers ``"none"``).  The
        cell criteria are one array mask, widened by a tie; every
        restricted facet of a tet they pass is put to the judge's own
        :meth:`_bad_facet` — the one ray per facet a mesher without a
        distance transform has to walk."""
        mesh = self.tri.mesh
        tets = np.asarray(tets, dtype=np.int64)
        adj = mesh.tet_adj[tets]
        store, slot_label = self._balls.centre_labels(self.image, tets, adj)
        r = store[tets, 3]
        label = slot_label[tets]
        se = shortest_edges_many(mesh.coords[mesh.tet_verts_arr[tets]])
        maybe = (label != 0) & (
            (se == 0.0) | (r > self.cell_size)
            | (r >= self.cell_radius_edge * se * (1.0 - _TIE)))

        ti, fi = np.nonzero((adj != HULL) & (slot_label[adj] != label[:, None])
                            & ~maybe[:, None])
        for row, i in zip(ti.tolist(), fi.tolist()):
            if not maybe[row] and self._bad_facet(
                    int(tets[row]), i, int(label[row])) is not None:
                maybe[row] = True
        return maybe
