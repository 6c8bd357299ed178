"""Isosurface geometry queries against a segmented image.

Implements the Section 3 machinery:

* *surface voxels* — foreground voxels with at least one 6-neighbor of a
  different label (image-boundary foreground voxels count: the outside
  is background);
* *closest isosurface point* — given a point ``p``, the EDT feature
  transform yields the nearest surface voxel ``q``; the ray from ``p``
  through ``q`` is walked voxel by voxel (Amanatides-Woo) and the first
  voxel face across which the label changes is the isosurface — the
  crossing is the exact point where the ray pierces that face;
* *surface centers* — the intersection of a Voronoi edge ``V(f)`` with
  the isosurface, computed by the same traversal along the edge.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.imaging.edt import EDTResult, euclidean_feature_transform
from repro.imaging.image import SegmentedImage

Point = Tuple[float, float, float]


def surface_voxel_mask(image: SegmentedImage) -> np.ndarray:
    """Boolean mask of surface voxels.

    A voxel is a surface voxel when it is foreground and at least one of
    its six face neighbors carries a different label; voxels on the image
    border compare against implicit background outside.
    """
    lab = image.labels
    fg = lab > 0
    differs = np.zeros(lab.shape, dtype=bool)
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        neq = lab[tuple(lo)] != lab[tuple(hi)]
        differs[tuple(lo)] |= neq
        differs[tuple(hi)] |= neq
        # Image border: outside is background.
        edge_lo = [slice(None)] * 3
        edge_lo[axis] = 0
        differs[tuple(edge_lo)] |= lab[tuple(edge_lo)] != 0
        edge_hi = [slice(None)] * 3
        edge_hi[axis] = lab.shape[axis] - 1
        differs[tuple(edge_hi)] |= lab[tuple(edge_hi)] != 0
    return fg & differs


class LabelRays:
    """Label-only ray traversal of a segmented image: where a segment
    first crosses an isosurface, read off the voxel labels alone (no
    surface mask, no distance transform)."""

    def __init__(self, image: SegmentedImage):
        self.image = image

    def surface_crossing(self, a: Sequence[float], b: Sequence[float]
                         ) -> Optional[Point]:
        """First isosurface crossing on segment ``a``-``b`` (or ``None``).

        This is the primitive behind surface centers: the Voronoi edge of
        a facet is the segment between the circumcenters of its two
        tetrahedra, and its intersection with the isosurface is the
        surface center ``c_surf(f)`` (rule R3).
        """
        d = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        if d == (0.0, 0.0, 0.0):
            return None
        return self._first_crossing(a, d, 1.0)

    # ------------------------------------------------------------------
    def _first_crossing(self, a, d, t_max: float) -> Optional[Point]:
        """First point of ``a + t*d``, ``0 <= t <= t_max``, where the
        label changes (``d`` non-zero, any length).

        Amanatides-Woo traversal in voxel coordinates: every voxel the
        ray crosses is visited once, and the crossing is the exact point
        on the face between the two differing voxels.  Outside the image
        is background, so the ray is clipped to the image box before the
        walk, and a box face is a crossing where foreground touches the
        border.  Faces reached at the same ``t`` (a ray through a voxel
        edge or corner) are stepped together: voxels the ray only
        touches are not visited.
        """
        image = self.image
        ox, oy, oz = image.origin
        sx, sy, sz = image.spacing
        nx, ny, nz = image.shape
        rx, ry, rz = (a[0] - ox) / sx, (a[1] - oy) / sy, (a[2] - oz) / sz
        vx, vy, vz = d[0] / sx, d[1] / sy, d[2] / sz

        # Clip to the box: the ray is in background until it enters at t.
        t = 0.0
        outside = not (0.0 <= rx < nx and 0.0 <= ry < ny and 0.0 <= rz < nz)
        if outside:
            t_exit = math.inf
            for r, v, n in ((rx, vx, nx), (ry, vy, ny), (rz, vz, nz)):
                if v > 0.0:
                    t_in, t_out = -r / v, (n - r) / v
                elif v < 0.0:
                    t_in, t_out = (n - r) / v, -r / v
                elif 0.0 <= r < n:
                    continue
                else:
                    return None
                if t_in > t:
                    t = t_in
                if t_out < t_exit:
                    t_exit = t_out
            if t >= t_exit or t > t_max:
                return None
            # The voxel entered: an entry point on a voxel face belongs
            # to the voxel the ray is heading into, so a descending axis
            # takes the voxel below an integer coordinate.  Rounding can
            # put the entry point a hair beyond a box face the ray has
            # already passed, hence the clamp.
            x, y, z = rx + t * vx, ry + t * vy, rz + t * vz
            i = math.ceil(x) - 1 if vx < 0.0 else math.floor(x)
            j = math.ceil(y) - 1 if vy < 0.0 else math.floor(y)
            k = math.ceil(z) - 1 if vz < 0.0 else math.floor(z)
            i = min(max(i, 0), nx - 1)
            j = min(max(j, 0), ny - 1)
            k = min(max(k, 0), nz - 1)
        else:
            i, j, k = int(rx), int(ry), int(rz)

        # Per axis: st is the index step, f the next face (voxel units),
        # e the face past the box, t? where the ray reaches face f.
        if vx > 0.0:
            stx, fx, ex = 1, i + 1, nx + 1
        else:
            stx, fx, ex = (-1 if vx < 0.0 else 0), i, -1
        if vy > 0.0:
            sty, fy, ey = 1, j + 1, ny + 1
        else:
            sty, fy, ey = (-1 if vy < 0.0 else 0), j, -1
        if vz > 0.0:
            stz, fz, ez = 1, k + 1, nz + 1
        else:
            stz, fz, ez = (-1 if vz < 0.0 else 0), k, -1
        tx = (fx - rx) / vx if stx else math.inf
        ty = (fy - ry) / vy if sty else math.inf
        tz = (fz - rz) / vz if stz else math.inf
        ax, ay = stx * ny * nz, sty * nz
        labels = memoryview(image.labels.reshape(-1))
        at = (i * ny + j) * nz + k
        label = labels[at]

        if not outside or label == 0:
            left_box = False
            while True:
                if tx <= ty and tx <= tz:
                    t = tx
                    if t > t_max:
                        return None
                    fx += stx
                    at += ax
                    tx = (fx - rx) / vx
                    left_box = left_box or fx == ex
                    if ty == t or tz == t:
                        continue
                elif ty <= tz:
                    t = ty
                    if t > t_max:
                        return None
                    fy += sty
                    at += ay
                    ty = (fy - ry) / vy
                    left_box = left_box or fy == ey
                    if tz == t:
                        continue
                else:
                    t = tz
                    if t > t_max:
                        return None
                    fz += stz
                    at += stz
                    tz = (fz - rz) / vz
                    left_box = left_box or fz == ez
                if left_box:
                    if label == 0:
                        return None
                    break
                if labels[at] != label:
                    break

        # The crossing: a + t*d, exactly on every face reached at t.
        px, py, pz = a[0] + t * d[0], a[1] + t * d[1], a[2] + t * d[2]
        if stx and (fx - stx - rx) / vx == t:
            px = ox + (fx - stx) * sx
        if sty and (fy - sty - ry) / vy == t:
            py = oy + (fy - sty) * sy
        if stz and (fz - stz - rz) / vz == t:
            pz = oz + (fz - stz) * sz
        return (px, py, pz)


class SurfaceOracle(LabelRays):
    """Answers closest-isosurface-point and surface-crossing queries.

    Builds the surface-voxel feature transform once (the paper's EDT
    pre-processing step) and then answers queries in roughly constant
    time per query.
    """

    def __init__(self, image: SegmentedImage):
        super().__init__(image)
        self.surface_mask = surface_voxel_mask(image)
        if not self.surface_mask.any():
            raise ValueError("image has no surface voxels (empty foreground?)")
        self.edt: EDTResult = euclidean_feature_transform(
            self.surface_mask, image.spacing
        )

    # ------------------------------------------------------------------
    def nearest_surface_voxel(self, p: Sequence[float]) -> Point:
        """World center of the surface voxel nearest to ``p``: the site
        the EDT maps ``p``'s (clamped) voxel to."""
        image = self.image
        return image.voxel_center(
            self.edt.nearest_site_index(image.voxel_of(p))
        )

    def nearest_surface_voxels(self, pts: np.ndarray) -> np.ndarray:
        """:meth:`nearest_surface_voxel` for an ``(n, 3)`` array of
        points, row for row the same floats: one gather on the feature
        transform."""
        image = self.image
        origin = np.array(image.origin)
        spacing = np.array(image.spacing)
        rel = (np.asarray(pts, dtype=np.float64) - origin) / spacing
        idx = np.clip(rel, 0.0, np.array(image.shape) - 1.0).astype(np.int64)
        flat = self.edt.feature[idx[:, 0], idx[:, 1], idx[:, 2]]
        site = np.stack(np.unravel_index(flat, image.shape), axis=1)
        return origin + (site + 0.5) * spacing

    def closest_surface_point(self, p: Sequence[float]) -> Optional[Point]:
        """A point on the isosurface close to ``p`` (Section 3's p-hat).

        Walks the ray from ``p`` through the nearest surface voxel and
        returns its first label crossing.  Returns ``None`` when no
        crossing is found (degenerate query far outside the image).
        """
        q = self.nearest_surface_voxel(p)
        d = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
        length = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        sp = self.image.spacing
        overshoot = 2.0 * max(sp)
        if length == 0.0:
            # p sits exactly on a surface voxel center: a label change
            # lies within one voxel in at least one axis direction (that
            # is what makes the voxel a surface voxel).
            for axis in range(3):
                for sign in (1.0, -1.0):
                    d = [0.0, 0.0, 0.0]
                    d[axis] = sign * sp[axis]
                    hit = self._first_crossing(
                        p, d, 1.0 + overshoot / sp[axis]
                    )
                    if hit is not None:
                        return hit
            return None
        # Extend past q: the actual label interface lies within one voxel
        # of the surface voxel center.
        return self._first_crossing(p, d, 1.0 + overshoot / length)
