"""Tests for SegmentedImage and the synthetic phantoms."""

import math

import numpy as np
import pytest

from repro.imaging import (
    SegmentedImage,
    abdominal_phantom,
    head_neck_phantom,
    knee_phantom,
    shell_phantom,
    sphere_phantom,
    two_spheres_phantom,
)


class TestSegmentedImage:
    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            SegmentedImage(np.zeros((4, 4), dtype=np.int16))

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError):
            SegmentedImage(np.zeros((4, 4, 4), dtype=float))

    @pytest.mark.parametrize("dtype,value", [
        (np.int32, 70000),    # would wrap to tissue 4464
        (np.uint16, 40000),   # would wrap to -25536
        (np.int16, -5),       # neither background nor tissue
        (np.int64, 2 ** 40),
    ])
    def test_rejects_labels_outside_int16_tissue_range(self, dtype, value):
        lab = np.zeros((4, 4, 4), dtype=dtype)
        lab[1, 2, 3] = value
        with pytest.raises(ValueError, match=rf"\[0, 32767\].*{value}"):
            SegmentedImage(lab)

    def test_accepts_the_whole_label_range_from_any_int_dtype(self):
        lab = np.zeros((4, 4, 4), dtype=np.uint64)
        lab[1, 2, 3] = 32767
        img = SegmentedImage(lab)
        assert img.labels.dtype == np.int16
        assert img.labels[1, 2, 3] == 32767
        assert SegmentedImage(np.zeros((0, 4, 4), dtype=np.int32)).shape \
            == (0, 4, 4)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            SegmentedImage(np.zeros((4, 4, 4), dtype=np.int16), spacing=(0, 1, 1))

    @pytest.mark.parametrize("field", ["spacing", "origin"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_geometry(self, field, value):
        # ``nan <= 0`` is false, so the positivity check lets it by.
        lab = np.zeros((4, 4, 4), dtype=np.int16)
        with pytest.raises(ValueError, match=rf"{field} must be finite.*"
                                             rf"{value}"):
            SegmentedImage(lab, **{field: (1.0, value, 1.0)})

    def test_bounds(self):
        img = SegmentedImage(
            np.zeros((4, 6, 8), dtype=np.int16), spacing=(1, 2, 0.5),
            origin=(10, 0, -1),
        )
        lo, hi = img.bounds()
        assert lo == (10, 0, -1)
        assert hi == (14, 12, 3)

    def test_voxel_round_trip(self):
        img = SegmentedImage(
            np.zeros((8, 8, 8), dtype=np.int16), spacing=(1, 2, 3),
            origin=(-4, 0, 5),
        )
        for idx in [(0, 0, 0), (3, 5, 7), (7, 0, 2)]:
            c = img.voxel_center(idx)
            assert img.voxel_of(c) == idx

    def test_label_at_world(self):
        lab = np.zeros((4, 4, 4), dtype=np.int16)
        lab[1, 2, 3] = 7
        img = SegmentedImage(lab, spacing=(2, 2, 2))
        assert img.label_at((3.0, 5.0, 7.0)) == 7
        assert img.label_at((0.5, 0.5, 0.5)) == 0

    def test_label_outside_is_background(self):
        lab = np.ones((4, 4, 4), dtype=np.int16)
        img = SegmentedImage(lab)
        assert img.label_at((-1.0, 2.0, 2.0)) == 0
        assert img.label_at((2.0, 2.0, 99.0)) == 0
        assert img.label_at((2.0, 2.0, 2.0)) == 1

    def test_labels_at_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        lab = rng.integers(0, 4, size=(6, 6, 6)).astype(np.int16)
        img = SegmentedImage(lab, spacing=(1.5, 1.0, 0.5), origin=(1, 2, 3))
        pts = rng.uniform(-1, 9, size=(200, 3))
        vec = img.labels_at_many(pts)
        for p, l in zip(pts, vec):
            assert img.label_at(tuple(p)) == l

    def test_foreground_bounds(self):
        lab = np.zeros((10, 10, 10), dtype=np.int16)
        lab[2:5, 3:7, 4:9] = 1
        img = SegmentedImage(lab)
        lo, hi = img.foreground_bounds()
        assert lo == (2, 3, 4)
        assert hi == (5, 7, 9)

    def test_foreground_bounds_empty_raises(self):
        img = SegmentedImage(np.zeros((4, 4, 4), dtype=np.int16))
        with pytest.raises(ValueError):
            img.foreground_bounds()


class TestPhantoms:
    @pytest.mark.parametrize(
        "factory,expected_labels",
        [
            (sphere_phantom, 1),
            (shell_phantom, 2),
            (two_spheres_phantom, 2),
            (abdominal_phantom, 5),
            (knee_phantom, 5),
            (head_neck_phantom, 5),
        ],
    )
    def test_phantoms_have_expected_labels(self, factory, expected_labels):
        img = factory(32)
        assert img.n_labels == expected_labels

    def test_sphere_volume_close_to_analytic(self):
        n = 64
        img = sphere_phantom(n, radius_frac=0.3)
        voxels = int((img.labels == 1).sum())
        r = 0.3 * n
        expected = 4.0 / 3.0 * np.pi * r ** 3
        assert abs(voxels - expected) / expected < 0.05

    def test_phantoms_deterministic(self):
        a = abdominal_phantom(24)
        b = abdominal_phantom(24)
        assert np.array_equal(a.labels, b.labels)

    def test_phantom_foreground_not_touching_border(self):
        # The meshing pipeline expects tissue strictly inside the volume.
        for factory in (sphere_phantom, shell_phantom):
            img = factory(32)
            assert img.labels[0, :, :].max() == 0
            assert img.labels[-1, :, :].max() == 0
            assert img.labels[:, 0, :].max() == 0
            assert img.labels[:, -1, :].max() == 0

    def test_head_neck_has_airway_hole(self):
        img = head_neck_phantom(40)
        # The airway capsule must carve background through the neck: find
        # a z-slice in the neck with background voxels strictly inside the
        # soft-tissue cross-section.
        from scipy import ndimage

        lab = img.labels
        k = lab.shape[2] // 4
        sl = lab[:, :, k]
        assert (sl > 0).any()
        # A background component fully enclosed by tissue is the airway.
        comp, n_comp = ndimage.label(sl == 0)
        border_labels = set(np.unique(comp[0, :])) | set(np.unique(comp[-1, :]))
        border_labels |= set(np.unique(comp[:, 0])) | set(np.unique(comp[:, -1]))
        enclosed = [
            c for c in range(1, n_comp + 1) if c not in border_labels
        ]
        assert enclosed, "expected an enclosed airway hole in the neck slice"

    def test_knee_phantom_anisotropic(self):
        img = knee_phantom(24)
        assert img.spacing[2] != img.spacing[0]
