"""Property tests: filtered predicates agree with the exact path.

The static/semi-static filters in :mod:`repro.geometry.predicates` and
the vectorized kernels in :mod:`repro.geometry.batch` are only sound if
a *conclusive* float answer always equals the exact-rational sign.
These tests attack that claim where it is most likely to break: inputs
deep inside the inconclusive band — near-coplanar quadruples,
near-cospherical quintuples, and exactly-degenerate dyadic
configurations — generated both by hypothesis and by a seeded
adversarial sweep across perturbation scales from well-conditioned down
to below one ulp.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _accel

from repro.geometry.batch import new_tet_records
from repro.geometry.predicates import (
    STATS,
    _insphere_exact,
    _orient3d_exact,
    circumsphere_entry,
    insphere,
    insphere_via_entry,
    orient3d,
)

coord = st.floats(min_value=-4.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord, coord)

# Perturbations spanning the inconclusive band: 0 (exactly degenerate),
# sub-ulp, around the filter bound (~1e-15 relative), and clearly
# conclusive.
tiny = st.sampled_from(
    [0.0] + [s * 2.0 ** -k for k in (20, 30, 40, 48, 52, 60, 70)
             for s in (1.0, -1.0)]
)


def oriented(a, b, c, d):
    """Return the quadruple positively oriented (swap a, b if needed)."""
    s = _orient3d_exact(a, b, c, d)
    if s < 0:
        return b, a, c, d
    return a, b, c, d


class TestOrient3dAgreesWithExact:
    @given(point, point, point, point)
    @settings(max_examples=150, deadline=None)
    def test_random(self, a, b, c, d):
        assert orient3d(a, b, c, d) == _orient3d_exact(a, b, c, d)

    @given(point, point, point, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           tiny)
    @settings(max_examples=150, deadline=None)
    def test_near_coplanar(self, a, b, c, u, v, eps):
        # d is (almost) an affine combination of a, b, c: the determinant
        # is dominated by rounding, squarely inside the filter band.
        d = tuple(a[i] + u * (b[i] - a[i]) + v * (c[i] - a[i])
                  + (eps if i == 2 else 0.0) for i in range(3))
        assert orient3d(a, b, c, d) == _orient3d_exact(a, b, c, d)

    def test_seeded_adversarial_sweep(self):
        rng = random.Random(1234)
        before = STATS.snapshot()
        for _ in range(400):
            a, b, c = (tuple(rng.uniform(-2, 2) for _ in range(3))
                       for _ in range(3))
            u, v = rng.uniform(-1, 2), rng.uniform(-1, 2)
            eps = rng.choice([0.0, 1.0, -1.0]) * 2.0 ** -rng.randint(10, 70)
            d = tuple(a[i] + u * (b[i] - a[i]) + v * (c[i] - a[i])
                      + (eps if i == rng.randrange(3) else 0.0)
                      for i in range(3))
            assert orient3d(a, b, c, d) == _orient3d_exact(a, b, c, d)
        # The sweep must actually exercise the exact fallback, otherwise
        # it is not testing the band it claims to.
        assert STATS.delta_since(before)["orient3d_exact"] > 50

    def test_exactly_coplanar_dyadic(self):
        # All-dyadic coordinates: the determinant is exactly zero and
        # only the exact stage may answer.
        a, b, c = (0.0, 0.0, 0.5), (1.0, 0.0, 0.5), (0.0, 1.0, 0.5)
        d = (0.25, 0.25, 0.5)
        assert orient3d(a, b, c, d) == 0


class TestInsphereAgreesWithExact:
    @given(point, point, point, point, point)
    @settings(max_examples=150, deadline=None)
    def test_random(self, a, b, c, d, e):
        a, b, c, d = oriented(a, b, c, d)
        if _orient3d_exact(a, b, c, d) <= 0:
            return  # degenerate tet: precondition unmet
        assert insphere(a, b, c, d, e) == _insphere_exact(a, b, c, d, e)

    def test_octahedron_exactly_cospherical(self):
        # Octahedron vertices are dyadic and exactly unit distance from
        # the origin: the insphere determinant is exactly zero.
        a, b, c, d = oriented((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                              (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0))
        for e in ((0.0, -1.0, 0.0), (0.0, 0.0, -1.0)):
            assert insphere(a, b, c, d, e) == 0

    def test_seeded_near_cospherical_sweep(self):
        # Query points a hair inside/outside/on the circumsphere of a
        # random tet: |det| sits right at the error bound.
        rng = random.Random(987)
        before = STATS.snapshot()
        checked = 0
        for _ in range(300):
            pts = [tuple(rng.uniform(-1, 1) for _ in range(3))
                   for _ in range(4)]
            a, b, c, d = oriented(*pts)
            if _orient3d_exact(a, b, c, d) <= 0:
                continue
            entry = circumsphere_entry(a, b, c, d)
            if entry is None:
                continue
            cx, cy, cz, r2 = entry[:4]
            r = r2 ** 0.5
            th, ph = rng.uniform(0, 6.283), rng.uniform(-1, 1)
            s = (1 - ph * ph) ** 0.5
            nx, ny, nz = s * np.cos(th), s * np.sin(th), ph
            rr = r * (1.0 + rng.choice([0.0, 1.0, -1.0])
                      * 2.0 ** -rng.randint(20, 60))
            e = (cx + rr * nx, cy + rr * ny, cz + rr * nz)
            assert insphere(a, b, c, d, e) == _insphere_exact(a, b, c, d, e)
            checked += 1
        assert checked > 200
        assert STATS.delta_since(before)["insphere_exact"] > 50


class TestCircumsphereEntryParity:
    """The cached-entry fast path must equal the robust predicate."""

    @given(point, point, point, point, point)
    @settings(max_examples=150, deadline=None)
    def test_entry_matches_insphere(self, a, b, c, d, e):
        a, b, c, d = oriented(a, b, c, d)
        if _orient3d_exact(a, b, c, d) <= 0:
            return
        entry = circumsphere_entry(a, b, c, d)
        assert insphere_via_entry(entry, a, b, c, d, e) == \
            insphere(a, b, c, d, e)

    def test_near_sphere_queries_fall_back_not_lie(self):
        rng = random.Random(55)
        for _ in range(200):
            pts = [tuple(rng.uniform(-1, 1) for _ in range(3))
                   for _ in range(4)]
            a, b, c, d = oriented(*pts)
            if _orient3d_exact(a, b, c, d) <= 0:
                continue
            entry = circumsphere_entry(a, b, c, d)
            # Query each tet vertex: exactly on the sphere, so the band
            # must route to the robust path, which answers 0.
            for q in (a, b, c, d):
                assert insphere_via_entry(entry, a, b, c, d, q) == 0


class TestBatchKernelsMatchScalar:
    def _random_quads(self, rng, k, degenerate_every=4):
        quads = np.empty((k, 4, 3))
        for j in range(k):
            pts = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(4)]
            if j % degenerate_every == 0:
                # Flatten into the abc plane plus a band-scale wobble.
                u, v = rng.uniform(0, 1), rng.uniform(0, 1)
                eps = rng.choice([0.0, 2.0 ** -50, -(2.0 ** -50)])
                pts[3] = [pts[0][i] + u * (pts[1][i] - pts[0][i])
                          + v * (pts[2][i] - pts[0][i])
                          + (eps if i == 1 else 0.0) for i in range(3)]
            quads[j] = pts
        return quads

    def test_new_tet_records_orientation_and_entries(self):
        rng = random.Random(13)
        quads = self._random_quads(rng, 48)
        all_positive, entries = new_tet_records(quads)
        scalar_all = all(
            orient3d(*(tuple(quads[j, i]) for i in range(4))) > 0
            for j in range(quads.shape[0])
        )
        assert all_positive == scalar_all
        # Every batch entry must be interchangeable with the scalar one:
        # identical conclusive answers, robust fallback otherwise.
        for j in range(quads.shape[0]):
            quad = tuple(tuple(quads[j, i]) for i in range(4))
            if _orient3d_exact(*quad) <= 0:
                continue
            e_batch = entries[j]
            for _ in range(4):
                q = tuple(rng.uniform(-2, 2) for _ in range(3))
                assert insphere_via_entry(e_batch, *quad, q) == \
                    insphere(*quad, q)

    def test_empty_batches(self):
        ok, entries = new_tet_records(np.empty((0, 4, 3)))
        assert ok is True and entries == []


@pytest.mark.skipif(not _accel.AVAILABLE,
                    reason="C accelerator unavailable")
class TestCKernelFilterSoundness:
    """The C tri-state filters may only answer when Python's exact sign
    agrees — checked end-to-end: a mesh built through the C fast path on
    adversarial near-cospherical input must still be exactly Delaunay.
    """

    def test_clustered_insertions_stay_delaunay(self):
        from repro.delaunay import Triangulation3D

        rng = random.Random(77)
        tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        hint = None
        base = [0.3, 0.5, 0.7]
        for i in range(150):
            if i % 3 == 0:
                # Grid-aligned cluster: many cospherical/degenerate
                # configurations, exercising the RETRY path.
                p = tuple(rng.choice(base) + rng.randint(-4, 4) * 2.0 ** -44
                          for _ in range(3))
            else:
                p = tuple(rng.uniform(0.05, 0.95) for _ in range(3))
            try:
                _, ntets, _ = tri.insert_point(p, hint)
                hint = ntets[0]
            except Exception:
                hint = None  # duplicate/degenerate rejection is fine
        tri.validate_topology()
        assert tri.is_delaunay()
