"""Tests for the CGAL-like and TetGen-like baseline meshers."""

import time

import numpy as np
import pytest

from repro.baselines import CGALLikeMesher, TetGenLikeMesher
from repro.core import _mesh_image as mesh_image
from repro.imaging import shell_phantom, sphere_phantom
from repro.metrics import quality_report
from repro.metrics.validate import validate_extracted_mesh


@pytest.fixture(scope="module")
def sphere():
    return sphere_phantom(20)


@pytest.fixture(scope="module")
def pi2m_surface(sphere):
    """PI2M-recovered boundary surface: the PLC handed to TetGen-like."""
    res = mesh_image(sphere, delta=3.0, max_operations=100_000)
    return res.mesh


class TestCGALLike:
    def test_produces_mesh(self, sphere):
        mesher = CGALLikeMesher(sphere, facet_distance=1.5, cell_size=6.0)
        mesh = mesher.refine()
        assert mesh.n_tets > 50
        assert mesher.stats.wall_time > 0
        assert mesher.stats.n_insertions > 0

    def test_quality_bound(self, sphere):
        mesher = CGALLikeMesher(sphere, cell_radius_edge=2.0, cell_size=6.0)
        mesh = mesher.refine()
        q = quality_report(mesh)
        assert q.max_radius_edge <= 2.0 + 1e-6

    def test_volume_close_to_object(self, sphere):
        mesher = CGALLikeMesher(sphere, cell_size=6.0)
        mesh = mesher.refine()
        q = quality_report(mesh)
        voxels = float((sphere.labels > 0).sum())
        assert abs(q.total_volume - voxels) / voxels < 0.3

    def test_multi_label(self):
        img = shell_phantom(20)
        mesher = CGALLikeMesher(img, cell_size=6.0)
        mesh = mesher.refine()
        assert set(mesh.tet_labels.tolist()) == {1, 2}

    def test_finer_distance_more_elements(self, sphere):
        coarse = CGALLikeMesher(sphere, facet_distance=2.5, cell_size=8.0).refine()
        fine = CGALLikeMesher(sphere, facet_distance=0.8, cell_size=8.0).refine()
        assert fine.n_tets > coarse.n_tets


class TestTetGenLike:
    def test_produces_mesh(self, pi2m_surface):
        seeds = [((10.0, 10.0, 10.0), 1)]
        mesher = TetGenLikeMesher(
            pi2m_surface.vertices,
            pi2m_surface.boundary_faces,
            region_seeds=seeds,
        )
        mesh = mesher.refine()
        assert mesh.n_tets > 50
        assert set(mesh.tet_labels.tolist()) == {1}

    def test_radius_edge_improves_with_refinement(self, pi2m_surface):
        seeds = [((10.0, 10.0, 10.0), 1)]
        unrefined = TetGenLikeMesher(
            pi2m_surface.vertices, pi2m_surface.boundary_faces, seeds,
            radius_edge_bound=1e9,  # effectively no refinement
        ).refine()
        refined = TetGenLikeMesher(
            pi2m_surface.vertices, pi2m_surface.boundary_faces, seeds,
            radius_edge_bound=2.0,
        ).refine()
        q_un = quality_report(unrefined)
        q_re = quality_report(refined)
        assert q_re.max_radius_edge <= q_un.max_radius_edge

    def test_requires_seeds(self, pi2m_surface):
        with pytest.raises(ValueError):
            TetGenLikeMesher(
                pi2m_surface.vertices, pi2m_surface.boundary_faces, []
            )

    def test_boundary_vertices_preserved(self, pi2m_surface):
        seeds = [((10.0, 10.0, 10.0), 1)]
        mesher = TetGenLikeMesher(
            pi2m_surface.vertices, pi2m_surface.boundary_faces, seeds,
            radius_edge_bound=1e9,
        )
        mesh = mesher.refine()
        # Every PLC vertex must appear in the output mesh.
        out = {tuple(np.round(v, 9)) for v in mesh.vertices}
        plc_in_out = sum(
            1 for v in pi2m_surface.vertices if tuple(np.round(v, 9)) in out
        )
        # Boundary vertices of kept tets; nearly all PLC vertices survive.
        assert plc_in_out >= 0.9 * len(pi2m_surface.vertices)


# ----------------------------------------------------------------------
# the baselines as rule sets under the one generation walk
# ----------------------------------------------------------------------
PHANTOMS = {"sphere": sphere_phantom, "shell": shell_phantom}


def _cgal_like(image):
    return CGALLikeMesher(image, facet_distance=1.0, cell_size=5.0)


def _label_seeds(image):
    """One interior seed per tissue label: the label's voxel nearest its
    centroid (the centroid of a non-convex tissue can fall outside)."""
    seeds = []
    for lab in np.unique(image.labels):
        if lab == 0:
            continue
        idx = np.argwhere(image.labels == lab)
        centroid = idx.mean(axis=0)
        nearest = idx[np.argmin(((idx - centroid) ** 2).sum(axis=1))]
        seeds.append((image.voxel_center(nearest), int(lab)))
    return seeds


def _tetgen_like(image):
    plc = mesh_image(image, delta=3.0, max_operations=100_000).mesh
    return TetGenLikeMesher(plc.vertices, plc.boundary_faces,
                            _label_seeds(image))


MESHERS = {"cgal_like": _cgal_like, "tetgen_like": _tetgen_like}


def _topology(mesher):
    mesh = mesher.tri.mesh
    return sorted(tuple(sorted(mesh.tet_verts_arr[t].tolist()))
                  for t in mesh.live_tets())


def _check_screen(mesher, log):
    """Hold ``mesher.screen`` to its contract on every call: each tet it
    rules out is shown to ``refine_tet``, which must answer ``none`` and
    leave the mesh alone.  ``log`` collects ``(n, n_maybe)`` per call."""
    screen = mesher.screen

    def checked(tets):
        tets = np.asarray(tets, dtype=np.int64)
        maybe = screen(tets)
        before = (mesher.n_insertions, mesher.n_skipped, mesher.tri.n_tets)
        for t in tets[~maybe].tolist():
            assert mesher.refine_tet(t).rule == "none", t
        assert before == (mesher.n_insertions, mesher.n_skipped,
                          mesher.tri.n_tets)
        log.append((len(tets), int(maybe.sum())))
        return maybe

    mesher.screen = checked


@pytest.mark.parametrize("phantom", PHANTOMS)
@pytest.mark.parametrize("kind", MESHERS)
class TestRuleSets:
    def test_screen_false_is_a_no_op_on_every_generation(self, kind, phantom):
        mesher = MESHERS[kind](PHANTOMS[phantom](20))
        log = []
        _check_screen(mesher, log)
        out = mesher.refine()
        assert len(log) > 3 and mesher.stats.n_insertions > 0
        assert sum(n for n, _ in log) > 3 * sum(m for _, m in log)
        assert log[-1][1] == 0 or mesher.n_skipped > 0
        assert validate_extracted_mesh(out) == []

    def test_run_ends_at_a_fixed_point(self, kind, phantom):
        mesher = MESHERS[kind](PHANTOMS[phantom](20))
        mesher.refine()
        before = _topology(mesher)
        for t in list(mesher.tri.mesh.live_tets()):
            assert mesher.refine_tet(t).rule == "none", t
        live = mesher.tri.mesh.live_tet_ids()
        assert not mesher.screen(live).any()
        assert _topology(mesher) == before


def test_cgal_like_builds_no_distance_transform(sphere, monkeypatch):
    def no_edt(*args, **kwargs):
        raise AssertionError("the CGAL-like baseline built a distance transform")

    monkeypatch.setattr(
        "repro.imaging.isosurface.euclidean_feature_transform", no_edt)
    assert CGALLikeMesher(sphere).refine().n_tets > 50


def test_cgal_like_flat_facet_under_a_zero_angle_bound(sphere, monkeypatch):
    # A collinear facet passes an angle bound <= 0 and has no
    # circumcenter: it is refined at its surface center, not raised.
    mesher = CGALLikeMesher(sphere, facet_angle_deg=0.0, cell_size=6.0)
    mesher.refine()

    def flat(*face):
        raise ZeroDivisionError

    monkeypatch.setattr("repro.baselines.cgal_like.circumcenter_tri", flat)
    hits = [mesher._bad_facet(t, i, sphere.label_at(mesher.circumball(t)[0]))
            for t in mesher.tri.mesh.live_tets() for i in range(4)]
    assert any(h is not None for h in hits)


def test_tetgen_like_interiority_is_the_brute_force_answer(pi2m_surface):
    mesher = TetGenLikeMesher(pi2m_surface.vertices,
                              pi2m_surface.boundary_faces,
                              [((10.0, 10.0, 10.0), 1)])
    pts = np.random.default_rng(3).uniform(-8.0, 28.0, (200, 3))
    brute = np.array([
        np.linalg.norm(mesher.plc_vertices - p, axis=1).min() for p in pts
    ]) < mesher._interior_probe
    assert brute.any() and not brute.all()
    assert mesher._inside_plc(pts).tolist() == brute.tolist()
    assert [bool(mesher._inside_plc(tuple(p))) for p in pts] == brute.tolist()


def test_tetgen_like_rate_is_the_fillers_own(sphere):
    """The filler's ``stats.wall_time`` is its own load and walk: the
    PLC run before it is not charged to it."""
    t0 = time.perf_counter()
    plc = mesh_image(sphere, delta=3.0).mesh
    plc_seconds = time.perf_counter() - t0
    mesher = TetGenLikeMesher(plc.vertices, plc.boundary_faces,
                              _label_seeds(sphere))
    out = mesher.refine()
    wall = time.perf_counter() - t0
    assert 0 < plc_seconds < wall
    assert 0 < mesher.stats.wall_time <= wall - plc_seconds
    assert out.n_tets > 0 and mesher.stats.n_insertions > 0
