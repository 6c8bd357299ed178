"""Cross-validation of the kernel against scipy.spatial.Delaunay.

For points in general position the Delaunay triangulation is unique, so
our incremental kernel must produce *exactly* the same tetrahedron set
as Qhull when run on the same points (the 4 bounding-simplex corners
plus the inserted points).  This also holds after removals: removing a
vertex must leave the Delaunay triangulation of the remaining set.

Points on axis-aligned voxel faces — what the isosurface oracle hands
the kernel — are not in general position: where they are cocircular or
cospherical the triangulation is not unique, so there the comparison is
what makes a triangulation Delaunay (no point strictly inside a
circumsphere, by the exact predicates) and the volume it covers.
"""

import random

import numpy as np
import pytest
from scipy.spatial import Delaunay as ScipyDelaunay

from repro.delaunay import Triangulation3D
from repro.delaunay.triangulation import InsertionError, RemovalError
from repro.geometry.predicates import insphere, orient3d
from tests.test_kernel_ties import HI, LO, live_vertices, voxel_face_points


def our_tet_set(tri):
    return {
        tuple(sorted(tri.mesh.tet_verts_arr[t].tolist()))
        for t in tri.mesh.live_tets()
    }


def scipy_tet_set(points, index_of):
    sd = ScipyDelaunay(np.asarray(points))
    out = set()
    for simplex in sd.simplices:
        out.add(tuple(sorted(index_of[tuple(points[i])] for i in simplex)))
    return out


def build(n_points, seed):
    tri = Triangulation3D((0, 0, 0), (1, 1, 1))
    rng = random.Random(seed)
    for _ in range(n_points):
        tri.insert_point(tuple(rng.uniform(0.02, 0.98) for _ in range(3)))
    points = []
    index_of = {}
    for v in range(len(tri.mesh.points)):
        if tri.mesh.alive_vertex[v]:
            p = tri.mesh.points[v]
            index_of[p] = v
            points.append(p)
    return tri, points, index_of


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("n_points", [10, 40])
def test_insertions_match_qhull(seed, n_points):
    tri, points, index_of = build(n_points, seed)
    assert our_tet_set(tri) == scipy_tet_set(points, index_of)


@pytest.mark.parametrize("seed", [3, 11])
def test_removals_match_qhull(seed):
    tri, points, index_of = build(30, seed)
    rng = random.Random(seed + 100)
    victims = rng.sample([v for v in index_of.values() if v >= 4], 10)
    for v in victims:
        tri.remove_vertex(v)
    points = [
        tri.mesh.points[v]
        for v in range(len(tri.mesh.points))
        if tri.mesh.alive_vertex[v]
    ]
    index_of = {p: i for p, i in
                ((tri.mesh.points[v], v)
                 for v in range(len(tri.mesh.points))
                 if tri.mesh.alive_vertex[v])}
    assert our_tet_set(tri) == scipy_tet_set(points, index_of)


def test_interleaved_ops_match_qhull():
    tri = Triangulation3D((0, 0, 0), (1, 1, 1))
    rng = random.Random(5)
    alive = []
    for step in range(60):
        if alive and rng.random() < 0.35:
            v = alive.pop(rng.randrange(len(alive)))
            tri.remove_vertex(v)
        else:
            v, _, _ = tri.insert_point(
                tuple(rng.uniform(0.02, 0.98) for _ in range(3))
            )
            alive.append(v)
    points = [tri.mesh.points[v] for v in range(len(tri.mesh.points))
              if tri.mesh.alive_vertex[v]]
    index_of = {tuple(p): v for v, p in
                ((v, tri.mesh.points[v])
                 for v in range(len(tri.mesh.points))
                 if tri.mesh.alive_vertex[v])}
    assert our_tet_set(tri) == scipy_tet_set(points, index_of)


def sphere_violations(points, simplices):
    """``(simplex, point)`` pairs with the point strictly inside the
    simplex's circumsphere (flat simplices have none), and the volume
    the simplices cover."""
    bad, vol6 = [], 0.0
    for simplex in simplices:
        a, b, c, d = (points[i] for i in simplex)
        side = orient3d(a, b, c, d)
        if side == 0:
            continue
        if side < 0:
            a, b = b, a
        vol6 += abs(np.linalg.det(np.subtract([a, b, c], d)))
        bad += [(tuple(simplex), i) for i, e in enumerate(points)
                if i not in simplex and insphere(a, b, c, d, e) > 0]
    return bad, vol6 / 6.0


@pytest.mark.parametrize("lattice", [False, True],
                         ids=["shared-coordinate", "lattice"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voxel_face_sets_are_as_delaunay_as_qhulls(seed, lattice):
    tri = Triangulation3D(LO, HI)
    for p in voxel_face_points(seed, lattice=lattice):
        try:
            tri.insert_point(p)
        except InsertionError:
            pass                    # a duplicate, or a tie refused
    for v in live_vertices(tri)[::5]:
        try:
            tri.remove_vertex(v)
        except RemovalError:
            pass                    # a tie neither strategy resolves
    tri.validate_topology()
    index_of = {tri.mesh.points[v]: v for v in [0, 1, 2, 3]
                + live_vertices(tri)}
    points = list(index_of)
    position = {v: i for i, v in enumerate(index_of.values())}
    ours = [[position[v] for v in tri.mesh.tet_verts_arr[t].tolist()]
            for t in tri.mesh.live_tets()]
    qhull = ScipyDelaunay(np.asarray(points)).simplices.tolist()
    bad_ours, vol_ours = sphere_violations(points, ours)
    bad_qhull, vol_qhull = sphere_violations(points, qhull)
    assert bad_ours == [] and bad_qhull == []
    assert vol_ours == pytest.approx(vol_qhull, rel=1e-9)
    if not lattice:     # coplanar groups alone leave it unique
        assert our_tet_set(tri) == scipy_tet_set(points, index_of)
