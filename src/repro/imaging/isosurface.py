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

    def _first_crossings(self, a, d, t_max
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_first_crossing` for ``n`` rays at once: ``(hit, z)``,
        a bool per ray and an ``(n, 3)`` array whose ``hit`` rows are the
        scalar's point, float for float (``None`` is ``hit False``, its
        row NaN).

        The scalar's state is one column per ray — the next-face times
        ``T``, the next faces ``F``, the flat voxel index, the
        left-the-box flag — held axis by axis (``(3, n)`` arrays, so
        every operation runs along a ray-long row), and each iteration
        steps every live ray across its own earliest face, ties broken
        x, y, z as the scalar's branches do.  A ray with a second face
        at that same ``t`` is *pending*: it skips the label test, as the
        scalar's ``continue`` does, and steps again.  Rays that finish
        are compacted out, so an iteration costs what the live rays
        cost.  Only ``+ - * /``, ``floor`` / ``ceil`` and comparisons,
        each in the scalar's operand order, so the floats are the
        scalar's.
        """
        image = self.image
        origin = np.array(image.origin)[:, None]
        spacing = np.array(image.spacing)[:, None]
        shape = np.array(image.shape, dtype=np.float64)[:, None]
        strides = np.array([image.shape[1] * image.shape[2],
                            image.shape[2], 1.0])
        a = np.asarray(a, dtype=np.float64).reshape(-1, 3).T
        d = np.asarray(d, dtype=np.float64).reshape(-1, 3).T
        end = np.array(t_max, dtype=np.float64)
        n = end.size
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (a - origin) / spacing
            v = d / spacing

            # Clip to the box: an outside ray enters at t, or never
            # does (and then ends at its first step, from where it is).
            t = np.zeros(n)
            entered = np.zeros(n, dtype=bool)
            in_box = (r >= 0.0) & (r < shape)
            out = np.flatnonzero(~(in_box[0] & in_box[1] & in_box[2]))
            if out.size:
                ro, vo = r[:, out], v[:, out]
                lo, hi = -ro / vo, (shape - ro) / vo
                t_in = np.where(vo > 0.0, lo, np.where(vo < 0.0, hi, -np.inf))
                t_out = np.where(vo > 0.0, hi, np.where(vo < 0.0, lo, np.inf))
                t_enter = np.zeros(out.size)
                t_exit = np.full(out.size, np.inf)
                for c in range(3):
                    t_enter = np.where(t_in[c] > t_enter, t_in[c], t_enter)
                    t_exit = np.where(t_out[c] < t_exit, t_out[c], t_exit)
                beside = ((vo == 0.0) & ~in_box[:, out]).any(axis=0)
                reaches = ~(beside | (t_enter >= t_exit)
                            | (t_enter > end[out]))
                entered[out] = reaches
                t[out] = np.where(reaches, t_enter, 0.0)
                end[out[~reaches]] = -np.inf

            # The voxel each ray starts in; an entry point on a voxel
            # face belongs to the voxel the ray is heading into.
            up, down = v > 0.0, v < 0.0
            x = r + t * v
            voxel = np.where(down & entered, np.ceil(x) - 1.0, np.floor(x))
            voxel = np.minimum(np.maximum(voxel, 0.0), shape - 1.0)
            step = np.sign(v)
            face = voxel + up
            past = np.where(up, shape + 1.0, -1.0)
            times = np.where(up | down, (face - r) / v, np.inf)
            jump = (step * strides[:, None]).astype(np.int64)
            at = (strides @ voxel).astype(np.int64)
            labels = image.labels.reshape(-1)
            label = labels[at]

            # A ray that enters the box straight into foreground has its
            # crossing at t; every other ray walks.  The per-ray
            # constants stay whole and are read through ``live``.
            crossed = entered & (label != 0)
            live = np.flatnonzero(~crossed)
            T, F = times[:, live].reshape(-1), face[:, live].reshape(-1)
            at, end, start = at[live], end[live], label[live]
            left_box = np.zeros(live.size, dtype=bool)
            r_, v_, step_, jump_, past_ = (
                rows.reshape(-1) for rows in (r, v, step, jump, past))
            row = np.arange(live.size)
            while live.size:
                m = live.size
                tx, ty, tz = by_axis = T.reshape(3, m)
                axis = np.where((tx <= ty) & (tx <= tz), 0,
                                np.where(ty <= tz, 1, 2))
                mine = axis * m + row[:m]           # into T, F
                theirs = axis * n + live            # into r, v, ...
                t_now = T[mine]
                x_now, y_now, z_now = by_axis == t_now
                pending = (x_now & y_now) | (x_now & z_now) | (y_now & z_now)
                ended = t_now > end
                f = F[mine] + step_[theirs]
                F[mine] = f
                T[mine] = (f - r_[theirs]) / v_[theirs]
                at += jump_[theirs]
                left_box |= f == past_[theirs]
                # (a ray outside the box reads some voxel: masked below)
                stop = left_box | (labels.take(at, mode="clip") != start)
                done = ended | (stop & ~pending)
                if not done.any():
                    continue
                found = np.flatnonzero(
                    done & ~ended & ~(left_box & (start == 0)))
                into = live[found]
                crossed[into] = True
                t[into] = t_now[found]
                faces = F.reshape(3, m)
                face[:, into] = faces[:, found]
                keep = np.flatnonzero(~done)
                T = by_axis.take(keep, axis=1).reshape(-1)
                F = faces.take(keep, axis=1).reshape(-1)
                live, at, end, start, left_box = (
                    col[keep] for col in (live, at, end, start, left_box))

            # The crossing: a + t*d, exactly on every face reached at t.
            on = face - step
            snap = (step != 0.0) & ((on - r) / v == t)
            p = np.where(snap, origin + on * spacing, a + t * d)
        z = np.full((n, 3), np.nan)
        z[crossed] = p.T[crossed]
        return crossed, z


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

    def closest_surface_points(self, points
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`closest_surface_point` for an ``(n, 3)`` array of
        points: ``(hit, z)``, a bool per point and an ``(n, 3)`` array
        whose ``hit`` rows are the scalar's answer, float for float.

        One feature-transform gather and one batched traversal; a point
        exactly on a surface voxel center (no direction to walk in) is
        asked of the scalar.
        """
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        d = self.nearest_surface_voxels(p) - p
        length = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
                         + d[:, 2] * d[:, 2])
        overshoot = 2.0 * max(self.image.spacing)
        centered = np.flatnonzero(length == 0.0)
        if not centered.size:
            return self._first_crossings(p, d, 1.0 + overshoot / length)
        rays = np.flatnonzero(length)
        hit = np.zeros(len(p), dtype=bool)
        z = np.full(p.shape, np.nan)
        hit[rays], z[rays] = self._first_crossings(
            p[rays], d[rays], 1.0 + overshoot / length[rays])
        for i in centered.tolist():
            at = self.closest_surface_point(p[i].tolist())
            if at is not None:
                hit[i], z[i] = True, at
        return hit, z
