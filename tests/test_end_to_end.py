"""Full-workflow integration test: the path a downstream user takes.

phantom -> simulated parallel meshing -> extraction -> validation ->
export -> reload -> re-validate.
"""

import numpy as np
import pytest

from repro.core.domain import RefineDomain
from repro.core.extract import extract_mesh
from repro.imaging import SurfaceOracle, shell_phantom
from repro.io import load_tetgen, save_tetgen, save_vtk
from repro.metrics import hausdorff_distance, quality_report
from repro.metrics.validate import validate_extracted_mesh
from repro.simnuma import _simulate_parallel_refinement as simulate_parallel_refinement


@pytest.mark.parametrize("n_threads", [4])
def test_full_workflow(tmp_path, n_threads):
    # 1. input image
    image = shell_phantom(20)
    oracle = SurfaceOracle(image)

    # 2. parallel meshing on the simulated machine
    domain = RefineDomain(image, delta=2.5, oracle=oracle)
    result = simulate_parallel_refinement(
        image, n_threads, delta=2.5, domain=domain
    )
    assert not result.livelock
    domain.tri.validate_topology()

    # 3. extraction
    mesh = extract_mesh(domain)
    assert mesh.n_tets > 100
    assert set(mesh.tet_labels.tolist()) == {1, 2}

    # 4. validation + quality + fidelity
    assert validate_extracted_mesh(mesh) == []
    q = quality_report(mesh)
    assert q.max_radius_edge <= 2.0 + 1e-6
    d = hausdorff_distance(mesh, image, oracle)
    assert d < 3 * 2.5

    # 5. export + reload round trip
    base = str(tmp_path / "final")
    save_tetgen(mesh, base)
    save_vtk(mesh, base + ".vtk")
    verts, tets, labels = load_tetgen(base)
    np.testing.assert_allclose(verts, mesh.vertices)
    np.testing.assert_array_equal(tets, mesh.tets)
    np.testing.assert_array_equal(labels, mesh.tet_labels)
