"""Image substrate: segmented images, synthetic atlases, EDT, isosurfaces.

The paper meshes *multi-label segmented images* directly.  This package
provides everything the refinement needs from the imaging side:

* :class:`~repro.imaging.image.SegmentedImage` — a voxel grid of tissue
  labels with anisotropic spacing and world-coordinate transforms;
* synthetic multi-label phantoms standing in for the IRCAD / SPL atlases
  the paper uses (which cannot be redistributed);
* the exact Euclidean feature transform: the nearest surface voxel of
  every voxel (the paper's Maurer filter [56]);
* isosurface geometry: surface-voxel detection, closest-isosurface-point
  queries and Voronoi-edge surface-center computation (Section 3).
"""

from repro.imaging.edt import EDTResult, euclidean_feature_transform
from repro.imaging.image import SegmentedImage
from repro.imaging.isosurface import LabelRays, SurfaceOracle, surface_voxel_mask
from repro.imaging.labelmaps import (
    compactify_labels,
    crop_to_foreground,
    fill_label_holes,
    relabel,
    remove_small_components,
    resample_isotropic,
)
from repro.imaging.synthetic import (
    abdominal_phantom,
    ball_grid_phantom,
    head_neck_phantom,
    knee_phantom,
    near_duplicate_phantom,
    shell_phantom,
    sphere_phantom,
    two_spheres_phantom,
    vascular_phantom,
)

__all__ = [
    "SegmentedImage",
    "EDTResult",
    "euclidean_feature_transform",
    "LabelRays",
    "SurfaceOracle",
    "surface_voxel_mask",
    "sphere_phantom",
    "ball_grid_phantom",
    "near_duplicate_phantom",
    "shell_phantom",
    "two_spheres_phantom",
    "abdominal_phantom",
    "knee_phantom",
    "head_neck_phantom",
    "vascular_phantom",
    "relabel",
    "compactify_labels",
    "crop_to_foreground",
    "remove_small_components",
    "fill_label_holes",
    "resample_isotropic",
]
