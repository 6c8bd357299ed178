"""Edge-case and degeneracy torture tests for the Delaunay kernel."""

import math
import random

import pytest

from repro.delaunay import (
    InsertionError,
    PointLocationError,
    RemovalError,
    Triangulation3D,
)


class TestDegenerateInsertions:
    def test_collinear_points(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        for i in range(1, 8):
            tri.insert_point((i / 8.0, 0.5, 0.5))
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_coplanar_points(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        rng = random.Random(3)
        for _ in range(20):
            tri.insert_point((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                              0.5))
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_cospherical_cluster(self):
        # 12 points on a common sphere: maximal insphere degeneracy.
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        c, r = (0.5, 0.5, 0.5), 0.3
        golden = (1 + 5 ** 0.5) / 2
        k = r / math.sqrt(1 + golden * golden)
        for (a, b) in ((k, k * golden), (-k, k * golden), (k, -k * golden),
                       (-k, -k * golden)):
            tri.insert_point((c[0], c[1] + a, c[2] + b))
            tri.insert_point((c[0] + a, c[1] + b, c[2]))
            tri.insert_point((c[0] + b, c[1], c[2] + a))
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_near_duplicate_points(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        tri.insert_point((0.5, 0.5, 0.5))
        # Distinct but extremely close: must either insert or reject
        # cleanly, never corrupt.
        try:
            tri.insert_point((0.5 + 1e-13, 0.5, 0.5))
        except InsertionError:
            pass
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_tiny_coordinates(self):
        tri = Triangulation3D((0, 0, 0), (1e-6, 1e-6, 1e-6))
        rng = random.Random(5)
        for _ in range(15):
            tri.insert_point(tuple(rng.uniform(1e-7, 9e-7) for _ in range(3)))
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_huge_coordinates(self):
        tri = Triangulation3D((1e6, 1e6, 1e6), (1e6 + 50, 1e6 + 50, 1e6 + 50))
        rng = random.Random(6)
        for _ in range(15):
            tri.insert_point(tuple(1e6 + rng.uniform(5, 45) for _ in range(3)))
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_anisotropic_region(self):
        tri = Triangulation3D((0, 0, 0), (100, 1, 0.01))
        rng = random.Random(7)
        for _ in range(20):
            tri.insert_point((rng.uniform(1, 99), rng.uniform(0.1, 0.9),
                              rng.uniform(0.001, 0.009)))
        tri.validate_topology()
        assert tri.is_delaunay()


class TestDegenerateRemovals:
    def test_remove_from_grid_cluster(self):
        # Grid points are massively cospherical; removal must either
        # succeed or fail cleanly (RemovalError) without corruption.
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        verts = []
        n = 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    v, _, _ = tri.insert_point(
                        (i / (n + 1), j / (n + 1), k / (n + 1))
                    )
                    verts.append(v)
        removed = 0
        failed = 0
        rng = random.Random(8)
        rng.shuffle(verts)
        for v in verts[:14]:
            try:
                tri.remove_vertex(v)
                removed += 1
            except RemovalError:
                failed += 1
        tri.validate_topology()
        assert tri.is_delaunay()
        assert removed + failed == 14
        assert removed >= 7  # the gift-wrap fills most grid balls

    def test_remove_collinear_cluster_member(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        verts = []
        for i in range(1, 6):
            v, _, _ = tri.insert_point((i / 6.0, 0.5, 0.5))
            verts.append(v)
        try:
            tri.remove_vertex(verts[2])
        except RemovalError:
            pass
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_repeated_insert_remove_same_location(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        for _ in range(10):
            v, _, _ = tri.insert_point((0.4, 0.6, 0.5))
            tri.remove_vertex(v)
        assert tri.n_vertices == 4
        tri.validate_topology()
        assert tri.is_delaunay()


class TestLocateEdgeCases:
    def test_point_on_hull_face_of_simplex_rejected(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        # A point far outside the padded box but potentially inside the
        # simplex: insertion allowed; outside the simplex: rejected.
        with pytest.raises(PointLocationError):
            tri.insert_point((1e9, 1e9, 1e9))

    def test_inside_domain_wider_than_box(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        p = (3.0, 3.0, 3.0)  # outside the padded box, inside the simplex
        assert not tri.inside_box(p)
        assert tri.inside_domain(p)
        v, _, _ = tri.insert_point(p)
        assert v >= 4
        tri.validate_topology()

    def test_walk_from_stale_hint(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        _, new_tets, killed = tri.insert_point((0.5, 0.5, 0.5))
        dead_hint = killed[0]
        # A dead hint falls back to any live tet.
        t = tri.locate((0.4, 0.4, 0.4), hint=dead_hint)
        assert tri.mesh.is_live(t)
