"""Tests for the exact Euclidean feature transform (Maurer-filter role).

Cross-validated against brute force and scipy.ndimage's exact EDT.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.imaging.edt import euclidean_feature_transform


def brute_force(sites, spacing):
    """O(n^2) reference squared distances."""
    pts = np.argwhere(sites).astype(float)
    w = np.asarray(spacing, dtype=float)
    shape = sites.shape
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        d = (pts - np.array(idx)) * w
        out[idx] = (d * d).sum(axis=1).min()
    return out


def dist2_from(res):
    """Squared distance of every voxel to the site ``res.feature`` names."""
    site = np.stack(np.unravel_index(res.feature, res.shape), axis=-1)
    voxel = np.stack(np.indices(res.shape), axis=-1)
    d = (site - voxel) * np.asarray(res.spacing)
    return (d * d).sum(axis=-1)


class TestEDTSmall:
    def test_single_site(self):
        sites = np.zeros((5, 5, 5), dtype=bool)
        sites[2, 2, 2] = True
        res = euclidean_feature_transform(sites)
        dist2 = dist2_from(res)
        assert dist2[2, 2, 2] == 0
        assert dist2[0, 0, 0] == pytest.approx(12.0)
        assert res.nearest_site_index((0, 0, 0)) == (2, 2, 2)
        assert res.nearest_site_index((4, 4, 4)) == (2, 2, 2)

    def test_two_sites_partition(self):
        sites = np.zeros((7, 3, 3), dtype=bool)
        sites[0, 1, 1] = True
        sites[6, 1, 1] = True
        res = euclidean_feature_transform(sites)
        assert res.nearest_site_index((1, 1, 1)) == (0, 1, 1)
        assert res.nearest_site_index((5, 1, 1)) == (6, 1, 1)

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            euclidean_feature_transform(np.zeros((4, 4, 4), dtype=bool))

    def test_2d_mask_raises(self):
        with pytest.raises(ValueError):
            euclidean_feature_transform(np.ones((4, 4), dtype=bool))

    def test_all_sites_zero_distance(self):
        sites = np.ones((4, 4, 4), dtype=bool)
        res = euclidean_feature_transform(sites)
        assert (dist2_from(res) == 0).all()

    def test_anisotropic_spacing(self):
        sites = np.zeros((5, 5, 5), dtype=bool)
        sites[2, 2, 2] = True
        res = euclidean_feature_transform(sites, spacing=(1.0, 2.0, 3.0))
        dist2 = dist2_from(res)
        assert dist2[1, 2, 2] == pytest.approx(1.0)
        assert dist2[2, 1, 2] == pytest.approx(4.0)
        assert dist2[2, 2, 1] == pytest.approx(9.0)

    def test_feature_is_the_only_volume(self):
        sites = np.zeros((6, 5, 4), dtype=bool)
        sites[1, 2, 3] = True
        res = euclidean_feature_transform(sites, spacing=(1.0, 2.0, 3.0))
        assert res.feature.dtype == np.int32
        assert res.feature.shape == res.shape == (6, 5, 4)
        assert res.feature.flags.c_contiguous
        volumes = [name for name, value in vars(res).items()
                   if np.size(value) >= sites.size]
        assert volumes == ["feature"]

    def test_mask_beyond_int32_raises_before_any_scan(self):
        # A broadcast view: 2**31 voxels backed by one byte, so the
        # check has to come before anything reads or copies the mask.
        sites = np.broadcast_to(np.zeros(1, dtype=bool), (2048, 2048, 512))
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            euclidean_feature_transform(sites)


class TestEDTAgainstReferences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spacing", [(1, 1, 1), (1.0, 0.5, 2.4)])
    def test_matches_brute_force(self, seed, spacing):
        rng = np.random.default_rng(seed)
        sites = rng.random((7, 6, 5)) < 0.12
        if not sites.any():
            sites[0, 0, 0] = True
        res = euclidean_feature_transform(sites, spacing)
        ref = brute_force(sites, spacing)
        np.testing.assert_allclose(
            dist2_from(res), ref, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        sites = rng.random((16, 14, 12)) < 0.05
        if not sites.any():
            sites[3, 3, 3] = True
        spacing = (1.0, 1.3, 0.7)
        res = euclidean_feature_transform(sites, spacing)
        # scipy computes distance from non-sites to sites via EDT of ~sites
        ref = ndimage.distance_transform_edt(~sites, sampling=spacing)
        np.testing.assert_allclose(
            np.sqrt(dist2_from(res)), ref, rtol=1e-9, atol=1e-9
        )

    def test_feature_is_argmin(self):
        rng = np.random.default_rng(7)
        sites = rng.random((8, 8, 8)) < 0.1
        if not sites.any():
            sites[1, 1, 1] = True
        spacing = (1.0, 2.0, 0.5)
        res = euclidean_feature_transform(sites, spacing)
        dist2 = dist2_from(res)
        w = np.array(spacing)
        site_idx = np.argwhere(sites)
        for idx in [(0, 0, 0), (7, 7, 7), (3, 4, 5), (6, 1, 2)]:
            nearest = np.array(res.nearest_site_index(idx))
            d_claimed = (((nearest - np.array(idx)) * w) ** 2).sum()
            d_all = (((site_idx - np.array(idx)) * w) ** 2).sum(axis=1)
            assert d_claimed == pytest.approx(d_all.min())
            assert d_claimed == pytest.approx(dist2[idx])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_edt_matches_scipy_property(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(x) for x in rng.integers(3, 9, size=3))
    sites = rng.random(shape) < 0.15
    if not sites.any():
        sites[tuple(rng.integers(0, s) for s in shape)] = True
    spacing = tuple(float(x) for x in rng.uniform(0.3, 2.5, size=3))
    res = euclidean_feature_transform(sites, spacing)
    ref = ndimage.distance_transform_edt(~sites, sampling=spacing)
    np.testing.assert_allclose(
        np.sqrt(dist2_from(res)), ref, rtol=1e-9, atol=1e-9
    )
