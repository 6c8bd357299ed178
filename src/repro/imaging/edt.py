"""Exact Euclidean feature transform of a site mask.

The refinement needs, for any point, the *surface voxel closest to it*
(Section 3: "the EDT returns the surface voxel q which is closest to
p").  The paper uses the parallel Maurer filter of Staubs et al. [56];
here the exact, anisotropic transform is ``scipy.ndimage``'s, and the
result keeps the one thing the refiner reads: the nearest site of every
voxel, as a flat index.  Distances are not stored; a caller that wants
one computes it from the site and the spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import ndimage

#: ``feature`` is int32: the largest mask whose flat indices fit.
_MAX_VOXELS = 2**31 - 1


@dataclass
class EDTResult:
    """Nearest-site index for every voxel.

    ``feature[i, j, k]`` is the flat index (C order, int32) of the site
    voxel nearest to voxel ``(i, j, k)`` in the anisotropic Euclidean
    metric between voxel centers; equidistant sites resolve to one of
    them.  ``shape`` and ``spacing`` echo the input.
    """

    feature: np.ndarray
    shape: Tuple[int, int, int]
    spacing: Tuple[float, float, float]

    def nearest_site_index(self, idx: Sequence[int]) -> Tuple[int, int, int]:
        """Nearest site voxel (3-index) for voxel ``idx``."""
        _, ny, nz = self.shape
        i, rem = divmod(int(self.feature[idx[0], idx[1], idx[2]]), ny * nz)
        j, k = divmod(rem, nz)
        return (i, j, k)


def euclidean_feature_transform(
    sites: np.ndarray, spacing: Sequence[float] = (1.0, 1.0, 1.0)
) -> EDTResult:
    """Exact anisotropic feature transform of a boolean 3D site mask.

    Raises ``ValueError`` when the mask is not 3D, has more than
    2**31 - 1 voxels or contains no sites.
    """
    sites = np.asarray(sites, dtype=bool)
    if sites.ndim != 3:
        raise ValueError("sites mask must be 3D")
    if sites.size > _MAX_VOXELS:
        raise ValueError(
            f"sites mask has {sites.size} voxels; the feature transform "
            f"indexes at most {_MAX_VOXELS} (2**31 - 1)"
        )
    if not sites.any():
        raise ValueError("feature transform of an empty site mask")
    spacing = tuple(float(s) for s in spacing)
    idx = ndimage.distance_transform_edt(
        ~sites, sampling=spacing, return_distances=False, return_indices=True
    )
    feature = np.ravel_multi_index(tuple(idx), sites.shape).astype(np.int32)
    return EDTResult(feature=feature, shape=sites.shape, spacing=spacing)
