"""Failure-injection and awkward-input robustness tests."""

import numpy as np
import pytest

from repro.core import _mesh_image as mesh_image
from repro.core.domain import RefineDomain
from repro.imaging import SegmentedImage, SurfaceOracle


def image_from(labels, spacing=(1, 1, 1)):
    return SegmentedImage(np.asarray(labels, dtype=np.int16), spacing)


class TestAwkwardImages:
    def test_single_voxel_tissue(self):
        lab = np.zeros((12, 12, 12), dtype=np.int16)
        lab[6, 6, 6] = 1
        img = SegmentedImage(lab)
        res = mesh_image(img, delta=1.0, max_operations=200_000)
        # A single voxel is at the resolution floor; the mesher must
        # terminate cleanly with a tiny (possibly empty) mesh.
        assert res.mesh.n_tets >= 0
        res.domain.tri.validate_topology()

    def test_foreground_touching_border(self):
        lab = np.ones((10, 10, 10), dtype=np.int16)
        img = SegmentedImage(lab)
        res = mesh_image(img, delta=2.0, max_operations=300_000)
        assert res.mesh.n_tets > 0
        res.domain.tri.validate_topology()

    def test_two_disconnected_components(self):
        lab = np.zeros((24, 12, 12), dtype=np.int16)
        lab[2:8, 3:9, 3:9] = 1
        lab[16:22, 3:9, 3:9] = 1
        img = SegmentedImage(lab)
        res = mesh_image(img, delta=2.0, max_operations=300_000)
        assert res.mesh.n_tets > 0
        # Both components produce elements: tets near both x-extremes.
        xs = res.mesh.vertices[:, 0]
        assert xs.min() < 10 and xs.max() > 14

    def test_thin_slab_tissue(self):
        lab = np.zeros((16, 16, 8), dtype=np.int16)
        lab[2:14, 2:14, 3:5] = 1  # two-voxel-thick slab
        img = SegmentedImage(lab)
        res = mesh_image(img, delta=1.5, max_operations=400_000)
        assert res.mesh.n_tets > 0
        res.domain.tri.validate_topology()

    def test_anisotropic_spacing_meshes(self):
        lab = np.zeros((16, 16, 6), dtype=np.int16)
        lab[4:12, 4:12, 1:5] = 1
        img = SegmentedImage(lab, spacing=(1.0, 1.0, 3.0))
        res = mesh_image(img, delta=3.0, max_operations=300_000)
        assert res.mesh.n_tets > 0

    def test_empty_image_raises_cleanly(self):
        img = SegmentedImage(np.zeros((8, 8, 8), dtype=np.int16))
        with pytest.raises(ValueError):
            RefineDomain(img, delta=2.0)

    def test_many_labels(self):
        lab = np.zeros((18, 18, 18), dtype=np.int16)
        # 8 small blocks with distinct labels
        k = 1
        for i in (2, 10):
            for j in (2, 10):
                for m in (2, 10):
                    lab[i:i + 6, j:j + 6, m:m + 6] = k
                    k += 1
        img = SegmentedImage(lab)
        assert img.n_labels == 8
        res = mesh_image(img, delta=2.5, max_operations=500_000)
        assert len(set(res.mesh.tet_labels.tolist())) >= 6


class TestDomainParameterValidation:
    def make_img(self):
        lab = np.zeros((10, 10, 10), dtype=np.int16)
        lab[3:7, 3:7, 3:7] = 1
        return SegmentedImage(lab)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            RefineDomain(self.make_img(), delta=-1.0)

    def test_default_delta_two_voxels(self):
        d = RefineDomain(self.make_img(), delta=None)
        assert d.delta == pytest.approx(2.0)


class TestOracleRobustness:
    def test_query_far_outside_image(self):
        lab = np.zeros((10, 10, 10), dtype=np.int16)
        lab[3:7, 3:7, 3:7] = 1
        oracle = SurfaceOracle(SegmentedImage(lab))
        z = oracle.closest_surface_point((-50.0, -50.0, -50.0))
        assert z is not None
        # The crossing is on the block's surface (within a voxel).
        assert all(2.0 <= z[i] <= 8.0 for i in range(3))

    def test_query_at_exact_surface_voxel_center(self):
        lab = np.zeros((10, 10, 10), dtype=np.int16)
        lab[3:7, 3:7, 3:7] = 1
        img = SegmentedImage(lab)
        oracle = SurfaceOracle(img)
        # voxel (3,3,3) is a surface voxel; query its center exactly.
        center = img.voxel_center((3, 3, 3))
        z = oracle.closest_surface_point(center)
        assert z is not None
