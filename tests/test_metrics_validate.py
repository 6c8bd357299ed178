"""Tests for the FE pre-flight mesh validator."""

import numpy as np
import pytest

from repro.core import _mesh_image as mesh_image
from repro.core.extract import ExtractedMesh
from repro.imaging import shell_phantom, sphere_phantom
from repro.imaging.image import SegmentedImage
from repro.metrics.validate import validate_extracted_mesh


@pytest.fixture(scope="module")
def good_mesh():
    return mesh_image(sphere_phantom(20), delta=2.5,
                      max_operations=200_000).mesh


class TestValidator:
    def test_pi2m_output_is_valid(self, good_mesh):
        assert validate_extracted_mesh(good_mesh) == []

    def test_multi_tissue_output_is_valid(self):
        mesh = mesh_image(shell_phantom(20), delta=2.5,
                          max_operations=200_000).mesh
        assert validate_extracted_mesh(mesh) == []

    def test_three_material_junction_is_watertight(self):
        # Two tissues side by side in background: along the rim of
        # their interface three faces meet at an edge, one per pair of
        # materials.  Every material's own surface is closed.
        labels = np.zeros((20, 20, 20), dtype=np.int16)
        labels[4:10, 4:16, 4:16] = 1
        labels[10:16, 4:16, 4:16] = 2
        mesh = mesh_image(SegmentedImage(labels), delta=2.0,
                          max_operations=200_000).mesh
        assert set(map(tuple, mesh.boundary_labels.tolist())) >= {
            (1, 0), (2, 0), (1, 2)}
        assert validate_extracted_mesh(mesh) == []

        # ... and a face missing from one of them is still caught.
        interface = np.flatnonzero((mesh.boundary_labels != 0).all(axis=1))
        keep = np.ones(len(mesh.boundary_faces), dtype=bool)
        keep[interface[0]] = False
        holed = ExtractedMesh(
            vertices=mesh.vertices, tets=mesh.tets,
            tet_labels=mesh.tet_labels,
            boundary_faces=mesh.boundary_faces[keep],
            boundary_labels=mesh.boundary_labels[keep],
        )
        assert any("not watertight" in s
                   for s in validate_extracted_mesh(holed))

    def test_detects_out_of_range_index(self, good_mesh):
        broken = ExtractedMesh(
            vertices=good_mesh.vertices,
            tets=good_mesh.tets.copy(),
            tet_labels=good_mesh.tet_labels,
            boundary_faces=good_mesh.boundary_faces,
            boundary_labels=good_mesh.boundary_labels,
        )
        broken.tets[0, 0] = good_mesh.n_vertices + 10
        issues = validate_extracted_mesh(broken)
        assert any("out of range" in s for s in issues)

    def test_detects_degenerate_tet(self, good_mesh):
        broken = ExtractedMesh(
            vertices=good_mesh.vertices.copy(),
            tets=good_mesh.tets.copy(),
            tet_labels=good_mesh.tet_labels,
            boundary_faces=good_mesh.boundary_faces,
            boundary_labels=good_mesh.boundary_labels,
        )
        t = broken.tets[0]
        broken.vertices[t[3]] = broken.vertices[t[0]] * (2 / 3) \
            + broken.vertices[t[1]] / 3  # collinear-ish: volume ~0 unlikely
        # make it exactly coplanar: copy a vertex position
        broken.vertices[t[3]] = broken.vertices[t[0]]
        issues = validate_extracted_mesh(broken)
        assert any("degenerate" in s for s in issues)
        assert any("duplicate vertex" in s for s in issues)

    def test_detects_repeated_vertex_in_tet(self, good_mesh):
        broken = ExtractedMesh(
            vertices=good_mesh.vertices,
            tets=good_mesh.tets.copy(),
            tet_labels=good_mesh.tet_labels,
            boundary_faces=good_mesh.boundary_faces,
            boundary_labels=good_mesh.boundary_labels,
        )
        broken.tets[0, 1] = broken.tets[0, 0]
        issues = validate_extracted_mesh(broken)
        assert any("repeats a vertex" in s for s in issues)

    def test_detects_orphan_boundary_face(self, good_mesh):
        bf = good_mesh.boundary_faces.copy()
        # Invent a face unrelated to any tet.
        bf[0] = [0, 1, 2] if good_mesh.n_vertices > 3 else bf[0]
        candidate = ExtractedMesh(
            vertices=good_mesh.vertices,
            tets=good_mesh.tets,
            tet_labels=good_mesh.tet_labels,
            boundary_faces=bf,
            boundary_labels=good_mesh.boundary_labels,
        )
        issues = validate_extracted_mesh(candidate)
        # Either the fabricated face is coincidentally a tet face (rare)
        # or it is flagged; the watertightness check fires regardless.
        assert issues

    def test_detects_label_length_mismatch(self, good_mesh):
        broken = ExtractedMesh(
            vertices=good_mesh.vertices,
            tets=good_mesh.tets,
            tet_labels=good_mesh.tet_labels[:-1],
            boundary_faces=good_mesh.boundary_faces,
            boundary_labels=good_mesh.boundary_labels,
        )
        issues = validate_extracted_mesh(broken)
        assert any("tet_labels" in s for s in issues)

    def test_smoothed_mesh_stays_valid(self, good_mesh):
        from repro.imaging import SurfaceOracle, sphere_phantom
        from repro.postprocess import smooth_mesh

        oracle = SurfaceOracle(sphere_phantom(20))
        smoothed, _ = smooth_mesh(good_mesh, oracle, iterations=2)
        assert validate_extracted_mesh(smoothed) == []
