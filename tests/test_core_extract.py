"""Tests for final-mesh extraction (Figure 1c semantics)."""

import numpy as np
import pytest

from repro.core import extract_mesh
from repro.core.domain import RefineDomain
from repro.core.refiner import SequentialRefiner
from repro.delaunay.mesh import HULL
from repro.geometry.predicates import circumcenter_tet
from repro.imaging import (
    abdominal_phantom,
    ball_grid_phantom,
    shell_phantom,
)
from repro.imaging.image import SegmentedImage


@pytest.fixture(scope="module")
def refined_domain():
    domain = RefineDomain(shell_phantom(20), delta=2.5)
    SequentialRefiner(domain, max_operations=200_000).refine()
    return domain


class TestExtraction:
    def test_only_inside_tets_kept(self, refined_domain):
        mesh = extract_mesh(refined_domain)
        img = refined_domain.image
        for i in range(mesh.n_tets):
            cc = circumcenter_tet(*mesh.tet_points(i))
            assert img.label_at(cc) != 0

    def test_labels_match_circumcenter_label(self, refined_domain):
        mesh = extract_mesh(refined_domain)
        img = refined_domain.image
        for i in range(0, mesh.n_tets, 7):
            cc = circumcenter_tet(*mesh.tet_points(i))
            assert img.label_at(cc) == mesh.tet_labels[i]

    def test_vertex_indices_compact(self, refined_domain):
        mesh = extract_mesh(refined_domain)
        used = set(mesh.tets.flatten().tolist())
        assert used == set(range(mesh.n_vertices))

    def test_no_box_vertices_in_output(self, refined_domain):
        mesh = extract_mesh(refined_domain)
        box_pts = {
            tuple(refined_domain.tri.point(v))
            for v in refined_domain.tri.box_vertices
        }
        out_pts = {tuple(p) for p in mesh.vertices}
        assert not (box_pts & out_pts)

    def test_boundary_faces_between_differing_regions(self, refined_domain):
        mesh = extract_mesh(refined_domain)
        assert len(mesh.boundary_faces) > 0
        for (a, b) in mesh.boundary_labels:
            assert a != b

    def test_boundary_face_vertices_in_range(self, refined_domain):
        mesh = extract_mesh(refined_domain)
        assert mesh.boundary_faces.max() < mesh.n_vertices
        assert mesh.boundary_faces.min() >= 0

    def test_internal_interfaces_counted_once(self, refined_domain):
        mesh = extract_mesh(refined_domain)
        keys = [
            tuple(sorted(face.tolist())) for face in mesh.boundary_faces
        ]
        assert len(keys) == len(set(keys))

    def test_boundary_forms_closed_surfaces(self, refined_domain):
        # Each boundary edge is shared by an even number of boundary
        # faces (2 for a simple closed surface, more at junction curves
        # where three materials meet).
        mesh = extract_mesh(refined_domain)
        from collections import Counter

        edges = Counter()
        for face in mesh.boundary_faces:
            f = sorted(int(v) for v in face)
            edges[(f[0], f[1])] += 1
            edges[(f[0], f[2])] += 1
            edges[(f[1], f[2])] += 1
        assert all(c >= 2 for c in edges.values())


def _extract_loop(domain):
    """The per-tet loop ``extract_mesh`` was before it read the batch
    kernels: scalar circumball + ``label_at`` per live tet, vertices
    renumbered through a dict in first-use order.  Kept as the reference
    the array version must reproduce byte for byte."""
    mesh = domain.tri.mesh
    keep = {}
    for t in mesh.live_tets():
        lab = domain.image.label_at(domain.circumball(t)[0])
        if lab != 0:
            keep[t] = lab
    vmap = {}
    vertices = []

    def remap(v):
        if v not in vmap:
            vmap[v] = len(vertices)
            vertices.append(mesh.points[v])
        return vmap[v]

    tets, tet_labels, faces, face_labels = [], [], [], []
    for t, lab in keep.items():
        tets.append([remap(v) for v in mesh.tet_verts_arr[t].tolist()])
        tet_labels.append(lab)
        for i, nbr in enumerate(mesh.tet_adj[t].tolist()):
            nbr_lab = keep.get(nbr, 0) if nbr != HULL else 0
            if nbr_lab == lab or (nbr_lab != 0 and nbr < t):
                continue
            faces.append([remap(v) for v in mesh.face_opposite(t, i)])
            face_labels.append((lab, nbr_lab))
    return {
        "vertices": np.asarray(vertices, np.float64).reshape(-1, 3),
        "tets": np.asarray(tets, np.int64).reshape(-1, 4),
        "tet_labels": np.asarray(tet_labels, np.int32),
        "boundary_faces": np.asarray(faces, np.int64).reshape(-1, 3),
        "boundary_labels": np.asarray(face_labels, np.int32).reshape(-1, 2),
    }


class TestArraysMatchTheLoop:
    @pytest.mark.parametrize("image, delta", [
        (shell_phantom(20), 2.5),           # nested tissues
        (abdominal_phantom(24), None),      # anisotropic, many labels
        (ball_grid_phantom(24), 2.0),       # disjoint components
    ], ids=["shell", "abdominal", "ball_grid"])
    def test_byte_identical_on_a_refined_domain(self, image, delta):
        domain = RefineDomain(image, delta=delta)
        SequentialRefiner(domain, max_operations=200_000).refine()
        got = extract_mesh(domain)
        assert got.n_tets > 50 and len(got.boundary_faces) > 50
        for name, want in _extract_loop(domain).items():
            have = getattr(got, name)
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes(), name

    def test_nothing_inside_gives_empty_arrays(self):
        # Two blobs in opposite corners: the unrefined bounding simplex
        # has its circumcenter in the background between them.
        labels = np.zeros((16, 16, 16), dtype=np.int16)
        labels[2:5, 2:5, 2:5] = labels[11:14, 11:14, 11:14] = 1
        domain = RefineDomain(SegmentedImage(labels), delta=2.0)
        got = extract_mesh(domain)
        assert got.n_tets == 0 and got.vertices.shape == (0, 3)
        for name, want in _extract_loop(domain).items():
            have = getattr(got, name)
            assert have.dtype == want.dtype and have.shape == want.shape


class TestMeshArraysInternals:
    def test_incident_tets_after_ops(self):
        import random

        from repro.delaunay import Triangulation3D

        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        rng = random.Random(2)
        verts = []
        for _ in range(25):
            v, _, _ = tri.insert_point(
                tuple(rng.uniform(0.05, 0.95) for _ in range(3))
            )
            verts.append(v)
        mesh = tri.mesh
        for v in verts:
            ball = mesh.incident_tets(v)
            assert ball
            for t in ball:
                assert v in mesh.tet_verts_arr[t].tolist()
            # completeness: brute-force scan agrees
            brute = [t for t in mesh.live_tets()
                     if v in mesh.tet_verts_arr[t].tolist()]
            assert set(ball) == set(brute)

    def test_vertex_recycling(self):
        from repro.delaunay.mesh import MeshArrays

        mesh = MeshArrays()
        a = mesh.add_vertex((0, 0, 0))
        mesh.kill_vertex(a)
        b = mesh.add_vertex((1, 1, 1))
        assert b == a  # slot recycled
        assert mesh.points[b] == (1.0, 1.0, 1.0)
        assert mesh.alive_vertex[b]

    def test_timestamps_monotone(self):
        from repro.delaunay.mesh import MeshArrays

        mesh = MeshArrays()
        t1 = mesh.add_vertex((0, 0, 0))
        t2 = mesh.add_vertex((1, 0, 0))
        assert mesh.timestamps[t2] > mesh.timestamps[t1]

    def test_epoch_bumps_on_reuse(self):
        from repro.delaunay.mesh import MeshArrays

        mesh = MeshArrays()
        for i in range(4):
            mesh.add_vertex((float(i), 0, 0))
        t = mesh.add_tet((0, 1, 2, 3))
        e0 = mesh.tet_epoch[t]
        mesh.kill_tet(t)
        t2 = mesh.add_tet((0, 1, 2, 3))
        assert t2 == t
        assert mesh.tet_epoch[t2] == e0 + 1
