"""Multi-label segmented 3D images with world-coordinate transforms.

A :class:`SegmentedImage` wraps an integer label volume together with the
voxel spacing and origin, mirroring the medical images the paper meshes
(Table 3 lists sizes like 512x512x219 at 0.96x0.96x2.4 mm).  Label 0 is
background; any positive label is a tissue.  Voxel centers sit at
``origin + (i + 0.5) * spacing`` so the image occupies the world box
``[origin, origin + shape * spacing]``.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

Point = Tuple[float, float, float]

_MAX_LABEL = int(np.iinfo(np.int16).max)


def require_finite(p: Sequence[float]) -> None:
    """Raise ``ValueError`` unless every coordinate of point ``p`` is
    finite."""
    if not (math.isfinite(p[0]) and math.isfinite(p[1])
            and math.isfinite(p[2])):
        raise ValueError(
            f"query point is not finite: {tuple(map(float, p))}")


class SegmentedImage:
    """A 3D multi-label segmented image.

    Parameters
    ----------
    labels:
        Integer array of shape ``(nx, ny, nz)``; 0 is background, tissue
        labels are 1..32767 (stored as ``int16``); anything outside
        raises ``ValueError``.
    spacing:
        Physical voxel size per axis (supports anisotropy, e.g. CT slices).
    origin:
        World coordinate of the image box corner (not the first voxel
        center).
    """

    def __init__(self, labels: np.ndarray,
                 spacing: Sequence[float] = (1.0, 1.0, 1.0),
                 origin: Sequence[float] = (0.0, 0.0, 0.0)):
        labels = np.asarray(labels)
        if labels.ndim != 3:
            raise ValueError(f"labels must be 3D, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be an integer array")
        if labels.size:
            # The int16 cast below wraps silently: 70000 would become
            # tissue 4464, and a negative label is neither background
            # nor tissue.
            lo, hi = int(labels.min()), int(labels.max())
            if lo < 0 or hi > _MAX_LABEL:
                raise ValueError(
                    f"labels must lie in [0, {_MAX_LABEL}] (0 is "
                    f"background), got min {lo}, max {hi}")
        self.labels = np.ascontiguousarray(labels, dtype=np.int16)
        self.spacing = tuple(float(s) for s in spacing)
        self.origin = tuple(float(o) for o in origin)
        # ``nan <= 0`` is false, and JSON input can carry NaN/Infinity.
        for name, value in (("spacing", self.spacing),
                            ("origin", self.origin)):
            if not all(math.isfinite(x) for x in value):
                raise ValueError(f"{name} must be finite, got {value}")
        if any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        self.shape = self.labels.shape

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n_labels(self) -> int:
        """Number of distinct non-background labels present."""
        vals = np.unique(self.labels)
        return int((vals > 0).sum())

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    def bounds(self) -> Tuple[Point, Point]:
        """World-space box ``(lo, hi)`` occupied by the image."""
        lo = self.origin
        hi = tuple(
            self.origin[i] + self.shape[i] * self.spacing[i] for i in range(3)
        )
        return lo, hi

    def foreground_bounds(self) -> Tuple[Point, Point]:
        """Tight world-space box around the non-background voxels."""
        fg = np.argwhere(self.labels > 0)
        if fg.size == 0:
            raise ValueError("image has no foreground voxels")
        lo_idx = fg.min(axis=0)
        hi_idx = fg.max(axis=0) + 1
        lo = tuple(
            self.origin[i] + lo_idx[i] * self.spacing[i] for i in range(3)
        )
        hi = tuple(
            self.origin[i] + hi_idx[i] * self.spacing[i] for i in range(3)
        )
        return lo, hi

    # ------------------------------------------------------------------
    # coordinate transforms
    # ------------------------------------------------------------------
    def voxel_of(self, p: Sequence[float]) -> Tuple[int, int, int]:
        """Index of the voxel containing world point ``p`` (clamped).

        Raises ``ValueError`` when a coordinate of ``p`` is not finite.
        """
        require_finite(p)
        ox, oy, oz = self.origin
        sx, sy, sz = self.spacing
        nx, ny, nz = self.shape
        # Relative coordinates are clamped to [0, n) first, so plain
        # int() truncation equals floor on the surviving range.
        rx = (p[0] - ox) / sx
        ry = (p[1] - oy) / sy
        rz = (p[2] - oz) / sz
        i = 0 if rx <= 0.0 else nx - 1 if rx >= nx else int(rx)
        j = 0 if ry <= 0.0 else ny - 1 if ry >= ny else int(ry)
        k = 0 if rz <= 0.0 else nz - 1 if rz >= nz else int(rz)
        return (i, j, k)

    def voxel_center(self, idx: Sequence[int]) -> Point:
        """World coordinate of the center of voxel ``idx``."""
        ox, oy, oz = self.origin
        sx, sy, sz = self.spacing
        return (ox + (idx[0] + 0.5) * sx,
                oy + (idx[1] + 0.5) * sy,
                oz + (idx[2] + 0.5) * sz)

    def label_at(self, p: Sequence[float]) -> int:
        """Label of the voxel containing world point ``p``.

        Points outside the image volume are background (0).  This sits
        on the refinement's hottest path (isosurface marching), hence
        the inlined arithmetic.
        """
        ox, oy, oz = self.origin
        sx, sy, sz = self.spacing
        nx, ny, nz = self.shape
        rx = (p[0] - ox) / sx
        if rx < 0.0 or rx >= nx:
            return 0
        ry = (p[1] - oy) / sy
        if ry < 0.0 or ry >= ny:
            return 0
        rz = (p[2] - oz) / sz
        if rz < 0.0 or rz >= nz:
            return 0
        return self.labels[int(rx), int(ry), int(rz)]

    def labels_at_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`label_at` for an ``(n, 3)`` array of points."""
        pts = np.asarray(pts, dtype=float)
        shape = np.array(self.shape)
        rel = (pts - np.array(self.origin)) / np.array(self.spacing)
        in_bounds = np.all((rel >= 0) & (rel < shape), axis=1)
        # Only in-bounds rows are cast: a far-away point must not wrap
        # around into the volume.
        idx = np.where(in_bounds[:, None], rel, 0.0).astype(np.int64)
        out = self.labels[idx[:, 0], idx[:, 1], idx[:, 2]].astype(np.int32)
        out[~in_bounds] = 0
        return out

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentedImage(shape={self.shape}, spacing={self.spacing}, "
            f"labels={self.n_labels})"
        )
