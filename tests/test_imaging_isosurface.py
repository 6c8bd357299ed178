"""Tests for surface-voxel detection and the SurfaceOracle queries.

Every query runs the C traversal when the accelerator is loaded; the
Python traversal is the reference (``_accel.rays`` set to ``None``), and
the parity cases hold the two equal float for float.
"""

import contextlib
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import _accel
from repro.api import MeshRequest, mesh
from repro.core.domain import VertexKind
from repro.imaging import (
    LabelRays,
    SegmentedImage,
    SurfaceOracle,
    near_duplicate_phantom,
    shell_phantom,
    sphere_phantom,
    surface_voxel_mask,
    two_spheres_phantom,
)
from repro.metrics import hausdorff_distance
from repro.metrics.validate import validate_extracted_mesh

needs_accel = pytest.mark.skipif(_accel.rays is None,
                                 reason="C accelerator unavailable")


@contextlib.contextmanager
def _reference():
    """The Python traversal and site lookup answer while the block runs
    (a context manager, not ``monkeypatch``: Hypothesis tests call it
    once an example)."""
    rays, _accel.rays = _accel.rays, None
    try:
        yield
    finally:
        _accel.rays = rays


def _anisotropic():
    """Two tissues, three spacings, an origin off zero."""
    return SegmentedImage(near_duplicate_phantom(12).labels,
                          spacing=(0.7, 1.25, 2.4),
                          origin=(-3.5, 10.25, 0.125))


class TestSurfaceVoxels:
    def test_single_voxel_is_surface(self):
        lab = np.zeros((5, 5, 5), dtype=np.int16)
        lab[2, 2, 2] = 1
        img = SegmentedImage(lab)
        m = surface_voxel_mask(img)
        assert m[2, 2, 2]
        assert m.sum() == 1

    def test_solid_block_surface_only(self):
        lab = np.zeros((8, 8, 8), dtype=np.int16)
        lab[2:6, 2:6, 2:6] = 1
        img = SegmentedImage(lab)
        m = surface_voxel_mask(img)
        # Interior 2x2x2 voxels are not surface.
        assert not m[3:5, 3:5, 3:5].any()
        # The block's shell is exactly the surface: 4^3 - 2^3 voxels.
        assert m.sum() == 64 - 8

    def test_border_foreground_is_surface(self):
        lab = np.ones((4, 4, 4), dtype=np.int16)
        img = SegmentedImage(lab)
        m = surface_voxel_mask(img)
        # All-foreground image: surface voxels are those on the image border.
        assert m.sum() == 64 - 8
        assert not m[1:3, 1:3, 1:3].any()

    def test_multi_label_interface_is_surface(self):
        lab = np.ones((6, 6, 6), dtype=np.int16)
        lab[3:, :, :] = 2
        img = SegmentedImage(lab)
        m = surface_voxel_mask(img)
        # Voxels on both sides of the internal 1|2 interface are surface.
        assert m[2, 3, 3] and m[3, 3, 3]

    def test_background_never_surface(self):
        img = sphere_phantom(16)
        m = surface_voxel_mask(img)
        assert not (m & (img.labels == 0)).any()

    def test_sphere_surface_shell_width(self):
        img = sphere_phantom(32, radius_frac=0.3)
        m = surface_voxel_mask(img)
        # Every surface voxel is within ~1 voxel of the analytic sphere.
        c = np.array([16.0, 16.0, 16.0])
        r = 0.3 * 32
        centers = np.argwhere(m) + 0.5
        d = np.linalg.norm(centers - c, axis=1)
        assert (np.abs(d - r) < 1.8).all()


class TestSurfaceOracle:
    def test_closest_point_on_sphere(self):
        img = sphere_phantom(32, radius_frac=0.3)
        oracle = SurfaceOracle(img)
        c = (16.0, 16.0, 16.0)
        r = 0.3 * 32
        for p in [(16.0, 16.0, 16.0), (16.0, 16.0, 9.0), (4.0, 16.0, 16.0),
                  (20.0, 20.0, 20.0)]:
            s = oracle.closest_surface_point(p)
            assert s is not None
            d = math.dist(s, c)
            # Voxelized sphere: surface within a voxel of the analytic one.
            assert abs(d - r) < 1.2

    def test_closest_point_label_crossing(self):
        # The returned point must sit on a label discontinuity: stepping a
        # hair along the query direction changes the label.
        img = sphere_phantom(32, radius_frac=0.3)
        oracle = SurfaceOracle(img)
        p = (16.0, 16.0, 12.0)
        s = oracle.closest_surface_point(p)
        lab_in = img.label_at(s)
        # Points just either side along the p->s direction differ in label.
        u = np.array(s) - np.array(p)
        u = u / np.linalg.norm(u)
        before = img.label_at(tuple(np.array(s) - 0.05 * u))
        after = img.label_at(tuple(np.array(s) + 0.05 * u))
        assert before != after

    def test_internal_interface_crossing(self):
        img = shell_phantom(32)
        oracle = SurfaceOracle(img)
        c = (16.0, 16.0, 16.0)
        # Segment from the center (label 2) outward crosses the 2|1
        # interface first.
        out = (16.0, 16.0, 27.0)
        s = oracle.surface_crossing(c, out)
        assert s is not None
        d = math.dist(s, c)
        assert abs(d - 0.22 * 32) < 1.2

    def test_surface_crossing_none_inside_uniform(self):
        img = sphere_phantom(32, radius_frac=0.4)
        oracle = SurfaceOracle(img)
        a = (15.0, 16.0, 16.0)
        b = (17.0, 16.0, 16.0)
        assert oracle.surface_crossing(a, b) is None

    def test_surface_crossing_degenerate_segment(self):
        img = sphere_phantom(16)
        oracle = SurfaceOracle(img)
        assert oracle.surface_crossing((8, 8, 8), (8, 8, 8)) is None

    def test_two_materials_junction(self):
        img = two_spheres_phantom(32)
        oracle = SurfaceOracle(img)
        # Crossing from sphere 1 into sphere 2 hits the 1|2 interface.
        a = (16.0 - 4.0, 16.0, 16.0)
        b = (16.0 + 4.0, 16.0, 16.0)
        s = oracle.surface_crossing(a, b)
        assert s is not None
        assert abs(s[0] - 16.0) < 1.2

    def test_empty_image_raises(self):
        img = SegmentedImage(np.zeros((6, 6, 6), dtype=np.int16))
        with pytest.raises(ValueError):
            SurfaceOracle(img)

    def test_nearest_surface_voxels_is_the_scalar_row_for_row(self):
        # The screen gathers sites for a whole generation; the judge asks
        # one at a time.  Same floats, inside, outside and on the border
        # of an anisotropic image that does not start at the origin.
        lab = np.zeros((9, 8, 7), dtype=np.int16)
        lab[2:7, 1:6, 2:6] = 1
        lab[4:6, 3:5, 3:5] = 2
        img = SegmentedImage(lab, spacing=(0.7, 1.3, 2.4),
                             origin=(-3.5, 10.25, 0.125))
        oracle = SurfaceOracle(img)
        lo, hi = (np.array(b) for b in img.bounds())
        rng = np.random.default_rng(5)
        inside = rng.uniform(lo, hi, size=(200, 3))
        outside = rng.uniform(lo - 5.0, hi + 5.0, size=(200, 3))
        corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                            for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
        faces = inside[:60].copy()  # one coordinate exactly on a box face
        for n, p in enumerate(faces):
            p[n % 3] = (lo, hi)[n % 2][n % 3]
        centers = np.array([img.voxel_center(i)
                            for i in np.ndindex(*img.shape)])
        pts = np.concatenate([inside, outside, corners, faces, centers])
        batch = oracle.nearest_surface_voxels(pts)
        assert batch.dtype == np.float64 and batch.shape == pts.shape
        for p, row in zip(pts, batch):
            assert tuple(row.tolist()) == oracle.nearest_surface_voxel(p)

    def test_oracle_holds_one_int32_volume(self):
        edt = SurfaceOracle(shell_phantom(24)).edt
        volumes = {name: value for name, value in vars(edt).items()
                   if isinstance(value, np.ndarray)}
        assert list(volumes) == ["feature"]
        assert edt.feature.dtype == np.int32
        assert edt.feature.shape == (24, 24, 24)

    def test_nearest_surface_voxel_is_surface(self):
        img = sphere_phantom(24)
        oracle = SurfaceOracle(img)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = tuple(rng.uniform(2, 22, size=3))
            q = oracle.nearest_surface_voxel(p)
            assert oracle.surface_mask[img.voxel_of(q)]

    def test_query_at_surface_voxel_center(self):
        # Zero-length ray to the nearest site: the crossing is a face of
        # that voxel, half a voxel away along some axis.
        lab = np.zeros((5, 5, 5), dtype=np.int16)
        lab[1:4, 1:4, 1:4] = 1
        img = SegmentedImage(lab, spacing=(1.0, 1.0, 2.5))
        oracle = SurfaceOracle(img)
        p = img.voxel_center((3, 2, 2))
        assert oracle.nearest_surface_voxel(p) == p
        assert oracle.closest_surface_point(p) == (4.0, p[1], p[2])

    def test_oracle_copies_and_pickles(self):
        # The C entry points' pointers are not pickled; a copy binds its
        # own arrays and answers every query as the original does.
        oracle = SurfaceOracle(_anisotropic())
        lo, hi = (np.array(b) for b in oracle.image.bounds())
        pts = np.random.default_rng(3).uniform(lo - 4.0, hi + 4.0,
                                               size=(300, 3))
        expected = [oracle.closest_surface_point(p) for p in pts.tolist()]
        hit, z = oracle.closest_surface_points(pts)
        sites = oracle.nearest_surface_voxels(pts)
        crossings = [oracle.surface_crossing(a, b)
                     for a, b in zip(pts.tolist(), pts[::-1].tolist())]
        assert sum(e is not None for e in expected) > 100
        state = oracle.__getstate__()
        assert not any(name.startswith("_c_") for name in state)
        for clone in (copy.deepcopy(oracle),
                      pickle.loads(pickle.dumps(oracle))):
            assert clone._c_oracle[0].value == clone.image.labels.ctypes.data
            assert clone._c_oracle[1].value == clone.edt.feature.ctypes.data
            assert [clone.closest_surface_point(p)
                    for p in pts.tolist()] == expected
            clone_hit, clone_z = clone.closest_surface_points(pts)
            assert (clone_hit == hit).all()
            assert np.array_equal(clone_z, z, equal_nan=True)
            assert np.array_equal(clone.nearest_surface_voxels(pts), sites)
            assert [clone.surface_crossing(a, b) for a, b in zip(
                pts.tolist(), pts[::-1].tolist())] == crossings
        rays = pickle.loads(pickle.dumps(LabelRays(oracle.image)))
        assert [rays.surface_crossing(a, b) for a, b in zip(
            pts.tolist(), pts[::-1].tolist())] == crossings

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_raises(self, bad):
        # One ValueError on every path, C and reference, scalar and
        # batch, for NaN, +inf and -inf alike (a C cast of any of them
        # to an index is undefined).
        oracle = SurfaceOracle(sphere_phantom(12))
        p = (6.0, bad, 6.0)
        for context in (contextlib.nullcontext, _reference):
            with context():
                with pytest.raises(ValueError, match="not finite"):
                    oracle.image.voxel_of(p)
                with pytest.raises(ValueError, match="not finite"):
                    oracle.nearest_surface_voxel(p)
                with pytest.raises(ValueError, match="not finite"):
                    oracle.closest_surface_point(p)
                with pytest.raises(ValueError, match="not finite"):
                    oracle.surface_crossing(p, (6.0, 6.0, 6.0))
                with pytest.raises(ValueError, match="not finite"):
                    oracle.surface_crossing((6.0, 6.0, 6.0), p)
                rows = np.array([(6.0, 6.0, 6.0), p])
                with pytest.raises(ValueError, match="not finite"):
                    oracle.nearest_surface_voxels(rows)
                with pytest.raises(ValueError, match="not finite"):
                    oracle.closest_surface_points(rows)


# ----------------------------------------------------------------------
# the C traversal against the Python reference
# ----------------------------------------------------------------------
def _assert_c_is_the_reference(oracle, segments=(), points=()):
    """Every query answered by the C traversal — ``surface_crossing`` on
    ``segments``, ``nearest_surface_voxel`` / ``closest_surface_point``
    and their batches on ``points`` — is the Python reference's answer,
    float for float (``None`` is ``hit False`` in a batch)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rows = points.tolist()

    def answers():
        return ([oracle.surface_crossing(a, b) for a, b in segments],
                [oracle.nearest_surface_voxel(p) for p in rows],
                [oracle.closest_surface_point(p) for p in rows],
                oracle.nearest_surface_voxels(points),
                oracle.closest_surface_points(points))

    c = answers()
    with _reference():
        ref = answers()
    assert c[:3] == ref[:3]
    assert np.array_equal(c[3], ref[3])
    hit, z = c[4]
    assert hit.shape == (len(rows),) and z.shape == (len(rows), 3)
    assert (hit == ref[4][0]).all()
    assert np.array_equal(z, ref[4][1], equal_nan=True)
    for found, row, expected in zip(hit.tolist(), z.tolist(), ref[2]):
        assert (tuple(row) == expected if found else expected is None)
    assert np.isnan(z[~hit]).all()


@needs_accel
class TestCTraversal:
    """The C traversal against the Python reference, off the Hypothesis
    lattice: random rays, every voxel centre, points far away."""

    @pytest.mark.parametrize("image", [
        sphere_phantom(12), shell_phantom(16), _anisotropic()],
        ids=["sphere", "shell", "anisotropic"])
    def test_random_queries(self, image):
        oracle = SurfaceOracle(image)
        lo, hi = (np.array(b) for b in image.bounds())
        rng = np.random.default_rng(17)
        points = np.concatenate([rng.uniform(lo, hi, size=(400, 3)),
                                 rng.uniform(lo - 6.0, hi + 6.0,
                                             size=(400, 3))])
        ends = rng.uniform(lo - 3.0, hi + 3.0, size=(400, 3))
        segments = list(zip(points[:400].tolist(), ends.tolist()))
        segments += list(zip(ends.tolist(), points[400:].tolist()))
        _assert_c_is_the_reference(oracle, segments, points)

    def test_voxel_centres(self):
        # A surface voxel's centre is its own site: the zero-length ray,
        # answered by walking the six axis directions in turn.
        image = _anisotropic()
        oracle = SurfaceOracle(image)
        centres = np.array([image.voxel_center(i)
                            for i in np.ndindex(*image.shape)])
        on_surface = oracle.surface_mask.reshape(-1)
        assert on_surface.sum() > 50
        _assert_c_is_the_reference(
            oracle, list(zip(centres[:-1].tolist(), centres[1:].tolist())),
            centres)
        hit, _ = oracle.closest_surface_points(centres[on_surface])
        assert hit.all()

    def test_far_outside(self):
        # 1e6 times the image's extent, and 1e300: the site is the
        # clamped voxel's, the ray mostly clips to nothing — and every
        # conversion to an index stays defined.
        image = _anisotropic()
        oracle = SurfaceOracle(image)
        lo, hi = (np.array(b) for b in image.bounds())
        centre, extent = 0.5 * (lo + hi), float((hi - lo).max())
        rng = np.random.default_rng(23)
        u = rng.normal(size=(200, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        far = np.concatenate([centre + 1e6 * extent * u, 1e300 * u,
                              -1e300 * np.sign(u), [[1e300, -1e300, 1e300],
                                                    [-1e300, 0.0, 0.0]]])
        segments = [(a, tuple(centre)) for a in far.tolist()]
        segments += [(tuple(centre), a) for a in far.tolist()]
        segments += list(zip(far[:-1].tolist(), far[1:].tolist()))
        _assert_c_is_the_reference(oracle, segments, far)
        hit, _ = oracle.closest_surface_points(far[:200])
        assert hit.any()


# ----------------------------------------------------------------------
# voxel traversal against dense sampling
# ----------------------------------------------------------------------
# Every case lives on a lattice where float arithmetic is exact: spacing
# and origin are dyadic, the start is on the quarter-voxel lattice and the
# direction is a small integer vector (voxel units), scaled by a number of
# quarters.  Two faces are then reached either at exactly the same t or
# at least 1/36 of the direction vector apart, so the reference — label_at
# at N midpoints, at least 64 per voxel along the dominant axis, none of
# which can fall on a voxel face — sees every voxel the ray crosses and
# none it only touches.

_SPACINGS = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.5), (0.5, 0.75, 2.0)]
_ORIGINS = [(0.0, 0.0, 0.0), (-3.5, 10.0, 0.25)]


@st.composite
def _ray_cases(draw):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    size = shape[0] * shape[1] * shape[2]
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=size,
                               max_size=size).filter(any))
    else:
        # one tissue with a few odd voxels: long uniform runs, so rays
        # also end, leave the box and re-enter before any label changes
        labels = [draw(st.integers(0, 2))] * size
        for at in draw(st.lists(st.integers(0, size - 1), min_size=1,
                                max_size=3)):
            labels[at] = (labels[at] + draw(st.integers(1, 2))) % 3
        assume(any(labels))
    start = tuple(draw(st.integers(-8, 4 * shape[c] + 8)) for c in range(3))
    direction = tuple(draw(st.integers(-3, 3)) for _ in range(3))
    return (shape, labels, draw(st.sampled_from(_SPACINGS)),
            draw(st.sampled_from(_ORIGINS)), start, direction,
            draw(st.integers(0, 24)))


_BLOCK = ((2, 2, 2), [1] * 8)          # foreground on every border
_CORE = ((3, 3, 3), [0] * 13 + [2] + [0] * 13)


_EXAMPLES = [
    # starts outside the box and ends inside the foreground
    _BLOCK + (_SPACINGS[1], _ORIGINS[1], (-6, 3, 5), (1, 0, 0), 10),
    # starts inside, leaves through a border the foreground touches
    _BLOCK + (_SPACINGS[2], _ORIGINS[0], (2, 2, 2), (3, 1, -2), 8),
    # starts on a voxel face / on the upper box face, going back in
    _CORE + (_SPACINGS[0], _ORIGINS[1], (4, 6, 6), (1, 0, 0), 4),
    _BLOCK + (_SPACINGS[0], _ORIGINS[0], (8, 2, 2), (-1, 0, 0), 4),
    # starts at a voxel centre, along the exact diagonal (three-way ties)
    _CORE + (_SPACINGS[0], _ORIGINS[0], (2, 2, 2), (1, 1, 1), 4),
    _CORE + (_SPACINGS[1], _ORIGINS[1], (10, 10, 2), (-1, -1, 1), 6),
    # axis-parallel rays, outside the box all the way
    _BLOCK + (_SPACINGS[0], _ORIGINS[0], (-4, 2, 2), (0, 0, 1), 24),
    # grazes a box edge from outside
    _BLOCK + (_SPACINGS[0], _ORIGINS[0], (-4, 4, 2), (1, -1, 0), 8),
    # enters the box on a voxel corner, descending in x: the voxel
    # entered is the background one below the corner, not the
    # foreground one above
    ((4, 1, 3), [0] * 5 + [1] + [0] * 6, _SPACINGS[0], _ORIGINS[0],
     (5, -1, 5), (-1, 1, 3), 2),
    # zero-length segments
    _BLOCK + (_SPACINGS[1], _ORIGINS[1], (2, 2, 2), (0, 0, 0), 4),
    _BLOCK + (_SPACINGS[1], _ORIGINS[1], (2, 2, 2), (1, 2, 3), 0),
]


def _with_examples(test):
    for case in _EXAMPLES:
        test = example(case)(test)
    return test


def _segment(spacing, origin, start, direction, quarters):
    """The segment of a case as ``(a, d)``, on any image's lattice."""
    a = tuple(origin[c] + 0.25 * start[c] * spacing[c] for c in range(3))
    d = tuple(0.25 * quarters * direction[c] * spacing[c] for c in range(3))
    return a, d


@settings(max_examples=300, deadline=None)
@given(_ray_cases())
@_with_examples
def test_traversal_matches_dense_sampling(case):
    shape, labels, spacing, origin, start, direction, quarters = case
    img = SegmentedImage(np.array(labels, dtype=np.int16).reshape(shape),
                         spacing=spacing, origin=origin)
    oracle = SurfaceOracle(img)
    a, d = _segment(spacing, origin, start, direction, quarters)
    b = tuple(a[c] + d[c] for c in range(3))
    with _reference():
        hit = oracle.surface_crossing(a, b)
        # The reference's crossing is its traversal's, on any t_max.
        assert hit == (None if a == b else oracle._first_crossing(a, d, 1.0))
    # The C traversal is the reference, float for float: on this segment
    # and every example's laid over this image, and for the site and
    # closest-point queries (scalar and batch) from every end and voxel
    # centre.
    others = [_segment(spacing, origin, *other[4:]) for other in _EXAMPLES]
    segments = [(a, b)] + [
        (p, tuple(p[c] + e[c] for c in range(3))) for p, e in others]
    centres = [img.voxel_center(i) for i in np.ndindex(*shape)]
    if _accel.rays is not None:
        _assert_c_is_the_reference(
            oracle, segments, [p for s in segments for p in s] + centres)
    # The traversal reads labels only: the oracle inherits it from the
    # image-only base, which builds no surface mask and no transform.
    assert (SurfaceOracle.surface_crossing is LabelRays.surface_crossing
            and SurfaceOracle._first_crossing is LabelRays._first_crossing)
    if a == b:
        assert hit is None
        return

    n = 16 * quarters * max(abs(x) for x in direction)
    ts = (np.arange(n) + 0.5) / n
    sampled = img.labels_at_many(np.array(a) + ts[:, None] * np.array(d))
    changed = np.flatnonzero(sampled != img.label_at(a))
    if hit is not None:
        t_hit = np.dot(np.subtract(hit, a), d) / np.dot(d, d)
        assert -1e-9 <= t_hit <= 1.0 + 1e-9
        on_ray = np.array(a) + t_hit * np.array(d)
        assert np.allclose(hit, on_ray, rtol=0.0, atol=1e-9)
        # exactly on a voxel face
        assert any(((hit[c] - origin[c]) / spacing[c]).is_integer()
                   for c in range(3))
    if changed.size == 0:
        # Nothing up to the last midpoint; the end of the segment itself
        # may still sit on a face.
        assert hit is None or t_hit > ts[-1] - 1e-9
        return
    first = changed[0]
    assert hit is not None
    lo = ts[first - 1] if first else 0.0
    assert lo - 1e-9 <= t_hit <= ts[first] + 1e-9


def test_clipped_corner_is_the_first_crossing():
    # The segment cuts 0.07 voxel off the corner of the one label-2
    # voxel, between two of the old march's 0.25-voxel samples (which
    # then reported no crossing at all).
    lab = np.ones((6, 6, 3), dtype=np.int16)
    lab[3, 3, 1] = 2
    img = SegmentedImage(lab)
    a, b = (2.45, 3.40, 1.5), (3.45, 4.40, 1.5)
    for k in range(1, 6):       # what the march sampled
        t = 0.25 * k / math.dist(a, b)
        assert img.label_at([a[c] + t * (b[c] - a[c]) for c in range(3)]) == 1
    hit = SurfaceOracle(img).surface_crossing(a, b)
    assert hit is not None
    assert hit[0] == 3.0
    assert hit[1:] == pytest.approx((3.95, 1.5))


def test_thin_diagonal_plate_meshes():
    # One voxel thin, and neighbouring voxels share only an edge: every
    # ray towards it clips corners.
    n, delta = 16, 1.0
    lab = np.zeros((n, n, n), dtype=np.int16)
    for i in range(3, n - 3):
        lab[i, i, 3:n - 3] = 1
    img = SegmentedImage(lab)
    res = mesh(MeshRequest(image=img, delta=delta, mesher="sequential",
                           max_operations=100_000))
    assert res.ok and res.n_tets > 100
    assert validate_extracted_mesh(res.mesh) == []
    # Theorem 1: voxel-order Hausdorff distance, delta-dense sample.
    oracle = SurfaceOracle(img)
    assert hausdorff_distance(res.mesh, img, oracle) < 3.0
    domain = res.extras["domain"]
    kinds = domain.kinds(len(domain.tri.mesh.points))
    samples = domain.tri.mesh.coords[: len(kinds)][
        kinds == VertexKind.ISOSURFACE]
    assert len(samples)
    for idx in np.argwhere(oracle.surface_mask)[::7]:
        z = oracle.closest_surface_point(img.voxel_center(idx))
        assert z is not None
        gap = np.linalg.norm(samples - np.array(z), axis=1).min()
        assert gap <= 2.0 * delta + 2.0 * img.min_spacing
