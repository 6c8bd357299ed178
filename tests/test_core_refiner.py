"""Integration tests: sequential refinement on synthetic images.

These check the paper's advertised guarantees on the *extracted* mesh:
radius-edge ratio below the bound (R4), boundary planar angles above the
bound (R3), surface sampling density (R1/Theorem 1) and general sanity
of extraction.
"""

import math

import numpy as np
import pytest

from repro.core import extract_mesh
from repro.core import _mesh_image as mesh_image
from repro.core.domain import RefineDomain, VertexKind
from repro.core.refiner import SequentialRefiner
from repro.geometry.quality import radius_edge_ratio, tet_volume
from repro.imaging import (
    abdominal_phantom,
    near_duplicate_phantom,
    shell_phantom,
    sphere_phantom,
    two_spheres_phantom,
)
from repro.metrics import hausdorff_distance, quality_report
from repro.metrics.validate import validate_extracted_mesh
from repro.parallel import _parallel_mesh_image as parallel_mesh_image


@pytest.fixture(scope="module")
def sphere_result():
    return mesh_image(sphere_phantom(24), delta=2.5, max_operations=100_000)


class TestSphereMeshing:
    def test_produces_elements(self, sphere_result):
        assert sphere_result.mesh.n_tets > 50
        assert sphere_result.mesh.n_vertices > 20

    def test_radius_edge_bound(self, sphere_result):
        q = quality_report(sphere_result.mesh)
        # Paper: radius-edge ratio of all elements < 2 (tiny numerical slack).
        assert q.max_radius_edge <= 2.0 + 1e-6

    def test_boundary_planar_angles(self, sphere_result):
        q = quality_report(sphere_result.mesh)
        # Paper: boundary planar angles > 30 degrees (numerical slack:
        # the paper itself notes bounds "might be smaller in practice").
        assert q.min_boundary_planar_angle_deg > 30.0 - 2.0

    def test_mesh_volume_close_to_object(self, sphere_result):
        img = sphere_result.domain.image
        voxel_volume = float(np.prod(img.spacing))
        obj_volume = float((img.labels > 0).sum()) * voxel_volume
        q = quality_report(sphere_result.mesh)
        assert abs(q.total_volume - obj_volume) / obj_volume < 0.25

    def test_boundary_faces_near_surface(self, sphere_result):
        # Every boundary face vertex must lie within ~delta of the
        # isosurface (they are isosurface samples by construction).
        domain = sphere_result.domain
        mesh = sphere_result.mesh
        for face in mesh.boundary_faces[:200]:
            for v in face:
                p = tuple(mesh.vertices[v])
                assert domain.surface_distance(p) < 2.0 * domain.delta

    def test_triangulation_still_valid(self, sphere_result):
        sphere_result.domain.tri.validate_topology()

    def test_all_rules_accounted(self, sphere_result):
        rules = sphere_result.stats.rule_counts
        assert rules.get("R1", 0) > 0  # surface sampling happened
        assert sphere_result.stats.n_insertions > 0

    def test_hausdorff_within_voxel_scale(self, sphere_result):
        d = hausdorff_distance(
            sphere_result.mesh,
            sphere_result.domain.image,
            sphere_result.domain.oracle,
        )
        # Fidelity: Hausdorff distance should be on the order of delta.
        assert d < 3.0 * sphere_result.domain.delta


class TestMultiTissue:
    def test_shell_has_both_labels(self):
        res = mesh_image(shell_phantom(24), delta=2.5, max_operations=100_000)
        labels = set(res.mesh.tet_labels.tolist())
        assert labels == {1, 2}

    def test_internal_interface_faces_exist(self):
        res = mesh_image(shell_phantom(24), delta=2.5, max_operations=100_000)
        pairs = {tuple(sorted(p)) for p in res.mesh.boundary_labels.tolist()}
        assert (1, 2) in pairs  # the nested tissue interface was recovered
        assert (0, 1) in pairs  # and the exterior boundary

    def test_two_materials_junction(self):
        res = mesh_image(
            two_spheres_phantom(24), delta=2.5, max_operations=100_000
        )
        labels = set(res.mesh.tet_labels.tolist())
        assert labels == {1, 2}


class TestDeltaControl:
    def test_smaller_delta_more_elements(self):
        res_coarse = mesh_image(sphere_phantom(24), delta=4.0,
                                max_operations=100_000)
        res_fine = mesh_image(sphere_phantom(24), delta=2.0,
                              max_operations=100_000)
        assert res_fine.mesh.n_tets > res_coarse.mesh.n_tets

    def test_smaller_delta_better_fidelity(self):
        img = sphere_phantom(32)
        d_fine = None
        d_coarse = None
        res_c = mesh_image(img, delta=5.0, max_operations=100_000)
        d_coarse = hausdorff_distance(res_c.mesh, img, res_c.domain.oracle)
        res_f = mesh_image(img, delta=2.0, max_operations=100_000)
        d_fine = hausdorff_distance(res_f.mesh, img, res_f.domain.oracle)
        assert d_fine <= d_coarse + 0.5


class TestSizeFunction:
    def test_size_function_bounds_radii(self):
        from repro.core import constant

        res = mesh_image(sphere_phantom(24), delta=3.0,
                         size_function=constant(4.0),
                         max_operations=200_000)
        from repro.geometry.predicates import circumradius_tet

        verts = res.mesh.vertices
        for tet in res.mesh.tets:
            pts = [tuple(verts[v]) for v in tet]
            r = circumradius_tet(*pts)
            # sf bounds the circumradius of kept (interior) elements.
            assert r <= 4.0 + 1.0  # one-voxel slack for boundary effects

    def test_size_function_increases_count(self):
        from repro.core import constant

        base = mesh_image(sphere_phantom(24), delta=3.0,
                          max_operations=200_000)
        sized = mesh_image(sphere_phantom(24), delta=3.0,
                           size_function=constant(3.0),
                           max_operations=200_000)
        assert sized.mesh.n_tets > base.mesh.n_tets


class TestDomainInternals:
    def test_vertex_kinds_tracked(self):
        domain = RefineDomain(sphere_phantom(16), delta=2.5)
        refiner = SequentialRefiner(domain, max_operations=100_000)
        refiner.refine()
        n = len(domain.tri.mesh.points)
        kinds = domain.kinds(n)
        assert kinds.dtype == np.int8
        assert VertexKind.BOX in set(kinds.tolist())
        # Grids mirror the kinds bookkeeping.
        iso = np.flatnonzero(kinds == VertexKind.ISOSURFACE).tolist()
        assert iso
        assert all(v in domain.iso_grid for v in iso)
        assert [v for v in range(n) if v in domain.iso_grid] == iso

    def test_kinds_array_is_the_one_record(self):
        """No dict of kinds beside the array: ``vertex_kind`` is a view
        built from it, over the live vertices."""
        domain = RefineDomain(sphere_phantom(16), delta=2.0)
        SequentialRefiner(domain, max_operations=100_000).refine()
        assert "vertex_kind" not in vars(domain)
        assert domain.n_removals > 0
        mesh = domain.tri.mesh
        n = len(mesh.points)
        # A dead slot: it reads as a circumcenter and is not in the view.
        dead = max(domain.vertex_kind, key=lambda v: (
            domain.vertex_kind[v] == VertexKind.CIRCUMCENTER, v))
        domain.tri.remove_vertex(
            dead, on_commit=lambda: domain.forget_vertex(dead))
        assert not mesh.alive_vertex[dead]
        assert dead not in domain.vertex_kind
        kinds = domain.kinds(n).tolist()
        assert kinds[dead] == VertexKind.CIRCUMCENTER
        assert domain.vertex_kind == {
            v: VertexKind(kinds[v]) for v in range(n)
            if mesh.alive_vertex[v]}
        assert all(type(k) is VertexKind
                   for k in domain.vertex_kind.values())
        # A read past the record's end pads, and never grows the record.
        record = domain._kind_arr
        tail = domain.kinds(len(record) + 5)
        assert tail[len(record):].tolist() == [VertexKind.CIRCUMCENTER] * 5
        assert domain._kind_arr is record

    def test_iso_vertices_delta_separated(self):
        domain = RefineDomain(sphere_phantom(16), delta=3.0)
        SequentialRefiner(domain, max_operations=100_000).refine()
        kinds = domain.kinds(len(domain.tri.mesh.points))
        iso = [
            (v, domain.tri.point(v))
            for v in np.flatnonzero(kinds == VertexKind.ISOSURFACE).tolist()
        ]
        # R1 never inserts a sample within delta of an existing one; R3
        # surface-centers may land closer, so only check R1-style spacing
        # statistically: the large majority of pairs must be separated.
        n_close = 0
        for i in range(len(iso)):
            for j in range(i + 1, len(iso)):
                if math.dist(iso[i][1], iso[j][1]) < 0.5 * domain.delta:
                    n_close += 1
        assert n_close <= max(2, len(iso) // 10)

    def test_max_operations_guard(self):
        domain = RefineDomain(sphere_phantom(24), delta=1.0)
        refiner = SequentialRefiner(domain, max_operations=5)
        with pytest.raises(RuntimeError):
            refiner.refine()

    def test_extract_empty_before_refinement_ok(self):
        domain = RefineDomain(sphere_phantom(16), delta=2.5)
        m = extract_mesh(domain)
        # Before refinement the simplex's circumcenter may or may not be
        # inside; extraction must not crash either way.
        assert m.n_tets >= 0


def _topology(domain):
    mesh = domain.tri.mesh
    return sorted(tuple(sorted(mesh.tet_verts_arr[t].tolist()))
                  for t in mesh.live_tets())


PHANTOMS = {
    "sphere": lambda: (sphere_phantom(16), 2.5),
    "abdominal": lambda: (abdominal_phantom(24), None),
    "near_duplicate": lambda: (near_duplicate_phantom(24), 2.0),
}


class TestJudgedAtPop:
    """The PEL holds candidates and ``refine_tet`` is the only judge of
    tets born during refinement: nothing may be left for it to do when
    the loop ends, and the pops it waved through still count."""

    @staticmethod
    def _assert_fixed_point(domain):
        before = _topology(domain)
        for t in list(domain.tri.mesh.live_tets()):
            result = domain.refine_tet(t)
            assert result.skipped, (t, result.rule)
        assert _topology(domain) == before

    @pytest.mark.parametrize("phantom", PHANTOMS)
    def test_sequential_run_ends_at_a_fixed_point(self, phantom):
        image, delta = PHANTOMS[phantom]()
        domain = RefineDomain(image, delta=delta)
        SequentialRefiner(domain, max_operations=200_000).refine()
        self._assert_fixed_point(domain)

    @pytest.mark.parametrize("phantom", PHANTOMS)
    def test_two_thread_run_ends_at_a_fixed_point(self, phantom):
        image, delta = PHANTOMS[phantom]()
        res = parallel_mesh_image(image, n_threads=2, delta=delta,
                                  timeout=240.0)
        self._assert_fixed_point(res.domain)

    def test_r1_leaves_no_reachable_surface_point_unsampled(self):
        # delta above the voxel diagonal, anisotropic voxels: the oracle
        # returns points farther from the EDT site than one diagonal
        # here, so R1 may only ever be blocked by a sample within delta
        # of the candidate itself — never by one near the site.
        domain = RefineDomain(abdominal_phantom(40), delta=3.0)
        assert domain.delta > domain._surface_slack
        SequentialRefiner(domain, max_operations=200_000).refine()
        reaching = far = 0
        for t in domain.tri.mesh.live_tets():
            c, r = domain.circumball(t)
            site = domain.oracle.nearest_surface_voxel(c)
            if not domain._ball_reaches_site(c, r, site):
                continue
            reaching += 1
            z = domain.oracle.closest_surface_point(c)
            if z is None:
                continue
            far += math.dist(z, site) > domain._surface_slack
            assert domain.iso_grid.any_within(z, domain.delta), (t, z)
        assert reaching > 1000 and far > 0

    def test_no_op_pops_are_operations(self):
        image, delta = PHANTOMS["sphere"]()
        stats = SequentialRefiner(RefineDomain(image, delta=delta)).refine()
        assert stats.n_operations == sum(stats.rule_counts.values())
        assert stats.rule_counts["none"] > stats.n_insertions

        # max_operations bounds pops, not insertions: the run needs every
        # one of its pops, most of which change nothing.
        exact = SequentialRefiner(RefineDomain(image, delta=delta),
                                  max_operations=stats.n_operations)
        assert exact.refine().n_operations == stats.n_operations
        short = SequentialRefiner(RefineDomain(image, delta=delta),
                                  max_operations=stats.n_operations - 1)
        with pytest.raises(RuntimeError, match="exceeded"):
            short.refine()

    def test_one_thread_run_meets_the_sequential_contract(self):
        # The worker loop judges each tet when it is popped, the
        # sequential refiner a generation at a time behind the screen:
        # the same rules, but no longer the same schedule by
        # construction, so the two meshes are held to the same contract
        # instead of to each other.
        image, delta = PHANTOMS["abdominal"]()
        domain = RefineDomain(image, delta=delta)
        stats = SequentialRefiner(domain).refine()
        res = parallel_mesh_image(image, n_threads=1, delta=delta,
                                  timeout=240.0)
        for dom in (domain, res.domain):
            self._assert_fixed_point(dom)
            mesh = extract_mesh(dom)
            assert validate_extracted_mesh(mesh) == []
            assert quality_report(mesh).max_radius_edge <= 2.0 + 1e-9
        # Both count every tet they judged, and one thread never
        # conflicts with itself.
        assert stats.n_operations == sum(stats.rule_counts.values())
        assert res.totals["operations"] > res.totals["insertions"] > 0
        assert res.totals["rollbacks"] == 0
