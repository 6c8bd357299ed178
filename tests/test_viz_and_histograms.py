"""Tests for terminal visualization, histograms, and the trace report."""

import pytest

from repro.core import _mesh_image as mesh_image
from repro.imaging import shell_phantom, sphere_phantom
from repro.metrics.histograms import (
    dihedral_histogram,
    radius_edge_histogram,
    text_histogram,
)
from repro.simnuma import _simulate_parallel_refinement as simulate_parallel_refinement
from repro.simnuma.trace import utilization_report
from repro.viz import render_image_slice


@pytest.fixture(scope="module")
def mesh():
    return mesh_image(sphere_phantom(18), delta=3.0,
                      max_operations=200_000).mesh


class TestImageSlice:
    def test_renders_labels(self):
        img = shell_phantom(24)
        out = render_image_slice(img)
        lines = out.splitlines()
        assert "slice axis=2" in lines[0]
        body = "\n".join(lines[1:])
        assert "#" in body  # label 1
        assert "o" in body  # label 2
        assert "." in body  # background

    def test_axis_and_slice_selection(self):
        img = shell_phantom(24)
        out0 = render_image_slice(img, k=12, axis=0)
        out2 = render_image_slice(img, k=12, axis=2)
        assert out0 != out2

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            render_image_slice(shell_phantom(12), axis=5)

    def test_bad_slice(self):
        with pytest.raises(ValueError):
            render_image_slice(shell_phantom(12), k=99)

    def test_downsampling_caps_width(self):
        img = sphere_phantom(64)
        out = render_image_slice(img, max_width=20)
        body_lines = out.splitlines()[1:]
        assert all(len(line) <= 32 for line in body_lines)


class TestHistograms:
    def test_text_histogram_counts(self):
        out = text_histogram([0.1, 0.2, 0.9, 1.5, 5.0], 0.0, 1.0,
                             n_bins=2, title="t")
        assert out.splitlines()[0] == "t"
        assert ">=" in out  # the 1.5 and 5.0 overflow rows

    def test_validation(self):
        with pytest.raises(ValueError):
            text_histogram([1.0], 1.0, 1.0)

    def test_dihedral_histogram(self, mesh):
        out = dihedral_histogram(mesh)
        assert "min dihedral" in out
        assert str(mesh.n_tets) in out

    def test_radius_edge_histogram(self, mesh):
        out = radius_edge_histogram(mesh)
        assert "radius-edge" in out
        # Nothing above the paper bound of 2 (plus the bin slack to 2.5).
        assert ">=" not in out or ">=     2.50 | 0" in out


class TestUtilizationReport:
    def test_report_structure(self):
        r = simulate_parallel_refinement(sphere_phantom(16), 8, delta=3.0)
        out = utilization_report(r, group_size=4)
        lines = out.splitlines()
        assert "utilization over" in lines[0]
        assert sum(1 for ln in lines if ln.startswith("t ")) or \
            sum(1 for ln in lines if ln.startswith("t")) >= 2
        assert "totals:" in lines[-1]

    def test_rejects_zero_time(self):
        from repro.simnuma.simrefiner import SimulationResult

        r = SimulationResult(
            n_threads=1, cm_name="local", lb_name="hws",
            hyperthreading=False, virtual_time=0.0, n_elements=0,
            n_vertices=0, thread_stats=[],
        )
        with pytest.raises(ValueError):
            utilization_report(r)
