"""TetGen-style PLC-based baseline, as a rule set.

TetGen meshes a piecewise-linear complex: in the paper's Table 6 setup
it receives *the triangulated isosurfaces recovered by PI2M* and fills
the volume, refining on the radius-edge ratio only (TetGen exposes no
boundary planar-angle control, which is why its dihedral quality trails
PI2M's in Table 6).

This implementation mirrors that structure on our kernel:

1. bulk-load every PLC (boundary) vertex through ``insert_many`` —
   since the PLC is a restricted Delaunay surface, its facets re-appear
   in the Delaunay triangulation of its vertices;
2. keep the tetrahedra whose circumcenter lies within the PLC's local
   facet scale of its vertex cloud, and assign each to a region through
   user seed points (nearest-seed label at the circumcenter), the seed
   mechanism the paper describes (and whose fragility it discusses for
   Figure 9);
3. refine: insert circumcenters of kept tetrahedra whose radius-edge
   ratio exceeds the bound.

What is shared with PI2M and the CGAL-like baseline is listed in
:mod:`repro.baselines`.  This mesher's own: the one rule, which reads
the tet alone — so a tet judged once stays judged and the walk ends at
a fixed point — and no oracle: it never sees the image.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.baselines.cgal_like import InsertOnlyRules
from repro.core.domain import _TIE, OperationResult
from repro.core.extract import ExtractedMesh, assemble_mesh
from repro.geometry.batch import shortest_edges_many
from repro.geometry.quality import shortest_edge


class TetGenLikeMesher(InsertOnlyRules):
    """PLC-based quality tetrahedralisation (TetGen style)."""

    def __init__(
        self,
        plc_vertices: np.ndarray,
        plc_faces: np.ndarray,
        region_seeds: Sequence[Tuple[Tuple[float, float, float], int]],
        radius_edge_bound: float = 2.0,
        max_operations: int = 2_000_000,
    ):
        """``region_seeds`` is a list of (point, label) pairs, one seed
        strictly inside each region (the paper's seed-point mechanism)."""
        self.plc_vertices = np.asarray(plc_vertices, dtype=np.float64)
        self.plc_faces = np.asarray(plc_faces, dtype=np.int64)
        self.region_seeds = list(region_seeds)
        if not self.region_seeds:
            raise ValueError("TetGen-like mesher needs at least one region seed")
        self.radius_edge_bound = radius_edge_bound
        super().__init__(tuple(self.plc_vertices.min(axis=0)),
                         tuple(self.plc_vertices.max(axis=0)), max_operations)

        # Interiority: TetGen decides it from the PLC's facets; here the
        # boundary vertices came from a closed restricted-Delaunay
        # surface, so a distance-to-vertex-cloud test against the local
        # facet scale (4 median PLC edges) is a faithful, cheap stand-in.
        self._plc_tree = cKDTree(self.plc_vertices)
        edges = (self.plc_vertices[self.plc_faces[:, 0]]
                 - self.plc_vertices[self.plc_faces[:, 1]])
        self._interior_probe = 4.0 * float(
            np.median(np.linalg.norm(edges, axis=1))
        ) if len(edges) else 1.0

    def _inside_plc(self, p):
        """Is ``p`` — one point or an ``(n, 3)`` array — inside the PLC
        vertex cloud's inflated hull?"""
        return self._plc_tree.query(p)[0] < self._interior_probe

    def _initial_points(self):
        """Step 1: the PLC vertex set."""
        return list(map(tuple, self.plc_vertices.tolist()))

    # ------------------------------------------------------------------
    # the rule
    # ------------------------------------------------------------------
    def refine_tet(self, t: int) -> OperationResult:
        """Judge live tet ``t``: a kept tet over the radius-edge bound
        gets its circumcenter."""
        c, r = self.circumball(t)
        se = shortest_edge(*self.tri.tet_points(t))
        if ((se > 0.0 and r / se <= self.radius_edge_bound)
                or not self._inside_plc(c) or not self.tri.inside_domain(c)):
            return OperationResult(rule="none", skipped=True)
        return self._insert(c, t, "radius-edge")

    def screen(self, tets) -> np.ndarray:
        """Could the rule fire?  One bool per live tet id in ``tets``,
        ``False`` exact: the radius-edge mask (widened by a tie), then
        one nearest-PLC-vertex query for the tets it leaves."""
        mesh = self.tri.mesh
        tets = np.asarray(tets, dtype=np.int64)
        store = self.circumballs(tets)
        se = shortest_edges_many(mesh.coords[mesh.tet_verts_arr[tets]])
        maybe = (se == 0.0) | (
            store[tets, 3] >= self.radius_edge_bound * se * (1.0 - _TIE))
        maybe[maybe] = self._inside_plc(store[tets[maybe], :3])
        return maybe

    # ------------------------------------------------------------------
    def extract(self) -> ExtractedMesh:
        """The kept tets clear of the bounding simplex, each labelled by
        the seed nearest its circumcenter.

        The full point-in-region test walks the PLC; the nearest-seed
        approximation matches how the paper describes computing seeds by
        scanning the image, and is exactly the mechanism whose
        inaccuracy the paper observed in TetGen's colorings (Figure 9).
        """
        mesh = self.tri.mesh
        live = mesh.live_tet_ids()
        live = live[~np.isin(mesh.tet_verts_arr[live],
                             self.tri.box_vertices).any(axis=1)]
        centers = self.circumballs(live)[live, :3]
        inside = self._inside_plc(centers)
        seeds = np.array([s for s, _ in self.region_seeds], dtype=np.float64)
        labels = np.array([lab for _, lab in self.region_seeds], dtype=np.int32)
        gap = centers[inside, None, :] - seeds[None, :, :]
        nearest = (gap * gap).sum(axis=2).argmin(axis=1)
        return assemble_mesh(mesh, live[inside], labels[nearest])
