"""Robust geometric predicates for the 3D Delaunay kernel.

The predicates follow the classic *adaptive filtered-exact* design, in
three stages of increasing cost (and decreasing frequency):

1. **semi-static filter** — the determinant is evaluated in floating
   point and compared against a cheap error bound built from the maximum
   coordinate magnitudes (a handful of ``abs``/``max`` operations, no
   extra products).  This decides the overwhelming majority of calls.
2. **full permanent filter** — the classic Shewchuk-style forward error
   bound computed from the permanent of the determinant (every product
   re-accumulated with absolute values).  Tighter than stage 1, still
   pure floating point.
3. **exact arithmetic** — rational evaluation with
   ``fractions.Fraction``; always conclusive.

This mirrors the paper's use of CGAL's exact predicates ("PI2M adopts
the exact predicates as implemented in CGAL", Section 7) while staying
pure Python.  Every stage transition is counted in :data:`STATS` so the
observability layer can report the filter hit rate and the
exact-fallback fraction per run.

In addition to the classic point-wise predicates this module provides
*cached circumsphere entries* (:func:`circumsphere_entry`): a
precomputed ``(center, r^2, error-band)`` record that turns each
subsequent in-sphere test against the same tetrahedron into roughly ten
floating point operations plus a conservative band check, falling back
to the robust :func:`insphere` only inside the band.  The Bowyer-Watson
cavity search performs one to three in-sphere tests per tetrahedron it
examines, so the amortised saving is large.

Sign conventions
----------------
``orient3d(a, b, c, d) > 0``
    point ``d`` lies *below* the plane through ``a, b, c`` — i.e. the
    tetrahedron ``(a, b, c, d)`` is positively oriented (left-handed set
    matching Shewchuk's convention).
``insphere(a, b, c, d, e) > 0``
    point ``e`` lies strictly inside the circumsphere of the positively
    oriented tetrahedron ``(a, b, c, d)``.

Degeneracies (exact zeros) are returned as ``0`` and resolved by the
caller; the Delaunay kernel treats cospherical points as "inside" which
keeps Bowyer-Watson cavities consistent for any cospherical tie.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

Point = Sequence[float]

# Forward error-bound coefficients.  These are deliberately conservative
# (larger than Shewchuk's tight constants) so that any float evaluation
# whose magnitude falls under the bound is re-done exactly.
_EPS = 2.0 ** -53
_ORIENT3D_BOUND = (16.0 + 128.0 * _EPS) * _EPS
_INSPHERE_BOUND = (64.0 + 512.0 * _EPS) * _EPS

# Semi-static stage-1 coefficients.  The orient3d permanent is a sum of
# 6 triple products, each bounded by the product of the per-axis maxima;
# insphere's is a sum of 24 quadruple products bounded by the per-axis
# maxima times the largest lift.  The constants carry an extra 2x pad
# for the rounding of the bound computation itself.
_ORIENT3D_STATIC = _ORIENT3D_BOUND * 12.0
_INSPHERE_STATIC = _INSPHERE_BOUND * 48.0

# Circumsphere-entry error model constants (see circumsphere_entry).
_CC_NUM_ERR = 32.0 * _EPS     # relative error pad on Cramer numerators
_CC_TEST_ERR = 16.0 * _EPS    # error pad on the d^2 - r^2 test itself


class PredicateStats:
    """Counters for the three filter stages, shared process-wide.

    Increments are plain int adds; under free-threaded racing they may
    lose the odd count, which is acceptable for advisory metrics.
    """

    __slots__ = (
        "orient3d_calls", "orient3d_static", "orient3d_filtered",
        "orient3d_exact",
        "insphere_calls", "insphere_static", "insphere_filtered",
        "insphere_exact",
        "cc_tests", "cc_fast", "cc_fallback",
        "batch_calls", "batch_items", "batch_exact",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def delta_since(self, before: dict) -> dict:
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in self.__slots__
        }


#: Process-wide predicate statistics (reset per run by the drivers).
STATS = PredicateStats()


def _orient3d_exact(a: Point, b: Point, c: Point, d: Point) -> int:
    adx = Fraction(a[0]) - Fraction(d[0])
    ady = Fraction(a[1]) - Fraction(d[1])
    adz = Fraction(a[2]) - Fraction(d[2])
    bdx = Fraction(b[0]) - Fraction(d[0])
    bdy = Fraction(b[1]) - Fraction(d[1])
    bdz = Fraction(b[2]) - Fraction(d[2])
    cdx = Fraction(c[0]) - Fraction(d[0])
    cdy = Fraction(c[1]) - Fraction(d[1])
    cdz = Fraction(c[2]) - Fraction(d[2])
    det = (
        adz * (bdx * cdy - cdx * bdy)
        + bdz * (cdx * ady - adx * cdy)
        + cdz * (adx * bdy - bdx * ady)
    )
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def orient3d(a: Point, b: Point, c: Point, d: Point) -> int:
    """Sign of the orientation of tetrahedron ``(a, b, c, d)``.

    Returns ``+1`` if positively oriented, ``-1`` if negatively oriented
    and ``0`` if the four points are exactly coplanar.
    """
    stats = STATS
    stats.orient3d_calls += 1
    dx = d[0]
    dy = d[1]
    dz = d[2]
    adx = a[0] - dx
    ady = a[1] - dy
    adz = a[2] - dz
    bdx = b[0] - dx
    bdy = b[1] - dy
    bdz = b[2] - dz
    cdx = c[0] - dx
    cdy = c[1] - dy
    cdz = c[2] - dz

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    cdxady = cdx * ady
    adxcdy = adx * cdy
    adxbdy = adx * bdy
    bdxady = bdx * ady

    det = (
        adz * (bdxcdy - cdxbdy)
        + bdz * (cdxady - adxcdy)
        + cdz * (adxbdy - bdxady)
    )
    # Stage 1: semi-static bound from per-axis maxima.
    mx = abs(adx)
    t = abs(bdx)
    if t > mx:
        mx = t
    t = abs(cdx)
    if t > mx:
        mx = t
    my = abs(ady)
    t = abs(bdy)
    if t > my:
        my = t
    t = abs(cdy)
    if t > my:
        my = t
    mz = abs(adz)
    t = abs(bdz)
    if t > mz:
        mz = t
    t = abs(cdz)
    if t > mz:
        mz = t
    bound = _ORIENT3D_STATIC * mx * my * mz
    if det > bound:
        stats.orient3d_static += 1
        return 1
    if det < -bound:
        stats.orient3d_static += 1
        return -1
    # Stage 2: full permanent bound.
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * abs(adz)
        + (abs(cdxady) + abs(adxcdy)) * abs(bdz)
        + (abs(adxbdy) + abs(bdxady)) * abs(cdz)
    )
    bound = _ORIENT3D_BOUND * permanent
    if det > bound:
        stats.orient3d_filtered += 1
        return 1
    if det < -bound:
        stats.orient3d_filtered += 1
        return -1
    # Stage 3: exact.
    stats.orient3d_exact += 1
    return _orient3d_exact(a, b, c, d)


def _insphere_float(a, b, c, d, e):
    aex = a[0] - e[0]
    aey = a[1] - e[1]
    aez = a[2] - e[2]
    bex = b[0] - e[0]
    bey = b[1] - e[1]
    bez = b[2] - e[2]
    cex = c[0] - e[0]
    cey = c[1] - e[1]
    cez = c[2] - e[2]
    dex = d[0] - e[0]
    dey = d[1] - e[1]
    dez = d[2] - e[2]

    aexbey = aex * bey
    bexaey = bex * aey
    ab = aexbey - bexaey
    bexcey = bex * cey
    cexbey = cex * bey
    bc = bexcey - cexbey
    cexdey = cex * dey
    dexcey = dex * cey
    cd = cexdey - dexcey
    dexaey = dex * aey
    aexdey = aex * dey
    da = dexaey - aexdey
    aexcey = aex * cey
    cexaey = cex * aey
    ac = aexcey - cexaey
    bexdey = bex * dey
    dexbey = dex * bey
    bd = bexdey - dexbey

    abc = aez * bc - bez * ac + cez * ab
    bcd = bez * cd - cez * bd + dez * bc
    cda = cez * da + dez * ac + aez * cd
    dab = dez * ab + aez * bd + bez * da

    alift = aex * aex + aey * aey + aez * aez
    blift = bex * bex + bey * bey + bez * bez
    clift = cex * cex + cey * cey + cez * cez
    dlift = dex * dex + dey * dey + dez * dez

    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)

    aezplus = abs(aez)
    bezplus = abs(bez)
    cezplus = abs(cez)
    dezplus = abs(dez)
    aexbeyplus = abs(aexbey)
    bexaeyplus = abs(bexaey)
    bexceyplus = abs(bexcey)
    cexbeyplus = abs(cexbey)
    cexdeyplus = abs(cexdey)
    dexceyplus = abs(dexcey)
    dexaeyplus = abs(dexaey)
    aexdeyplus = abs(aexdey)
    aexceyplus = abs(aexcey)
    cexaeyplus = abs(cexaey)
    bexdeyplus = abs(bexdey)
    dexbeyplus = abs(dexbey)
    permanent = (
        ((cexdeyplus + dexceyplus) * bezplus
         + (dexbeyplus + bexdeyplus) * cezplus
         + (bexceyplus + cexbeyplus) * dezplus) * alift
        + ((dexaeyplus + aexdeyplus) * cezplus
           + (aexceyplus + cexaeyplus) * dezplus
           + (cexdeyplus + dexceyplus) * aezplus) * blift
        + ((aexbeyplus + bexaeyplus) * dezplus
           + (bexdeyplus + dexbeyplus) * aezplus
           + (dexaeyplus + aexdeyplus) * bezplus) * clift
        + ((bexceyplus + cexbeyplus) * aezplus
           + (cexaeyplus + aexceyplus) * bezplus
           + (aexbeyplus + bexaeyplus) * cezplus) * dlift
    )
    return det, permanent


def _insphere_exact(a: Point, b: Point, c: Point, d: Point, e: Point) -> int:
    # Mirrors the float evaluation term-for-term with exact rationals so the
    # sign convention is identical by construction.
    ex, ey, ez = Fraction(e[0]), Fraction(e[1]), Fraction(e[2])
    aex = Fraction(a[0]) - ex
    aey = Fraction(a[1]) - ey
    aez = Fraction(a[2]) - ez
    bex = Fraction(b[0]) - ex
    bey = Fraction(b[1]) - ey
    bez = Fraction(b[2]) - ez
    cex = Fraction(c[0]) - ex
    cey = Fraction(c[1]) - ey
    cez = Fraction(c[2]) - ez
    dex = Fraction(d[0]) - ex
    dey = Fraction(d[1]) - ey
    dez = Fraction(d[2]) - ez

    ab = aex * bey - bex * aey
    bc = bex * cey - cex * bey
    cd = cex * dey - dex * cey
    da = dex * aey - aex * dey
    ac = aex * cey - cex * aey
    bd = bex * dey - dex * bey

    abc = aez * bc - bez * ac + cez * ab
    bcd = bez * cd - cez * bd + dez * bc
    cda = cez * da + dez * ac + aez * cd
    dab = dez * ab + aez * bd + bez * da

    alift = aex * aex + aey * aey + aez * aez
    blift = bex * bex + bey * bey + bez * bez
    clift = cex * cex + cey * cey + cez * cez
    dlift = dex * dex + dey * dey + dez * dez

    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def insphere(a: Point, b: Point, c: Point, d: Point, e: Point) -> int:
    """Sign of the in-sphere test of ``e`` against tet ``(a, b, c, d)``.

    Requires ``(a, b, c, d)`` positively oriented (``orient3d > 0``).
    Returns ``+1`` when ``e`` is strictly inside the circumsphere, ``-1``
    when strictly outside and ``0`` when exactly cospherical.
    """
    stats = STATS
    stats.insphere_calls += 1
    det, permanent = _insphere_float(a, b, c, d, e)
    bound = _INSPHERE_BOUND * permanent
    if det > bound:
        stats.insphere_filtered += 1
        return 1
    if det < -bound:
        stats.insphere_filtered += 1
        return -1
    stats.insphere_exact += 1
    return _insphere_exact(a, b, c, d, e)


# ---------------------------------------------------------------------------
# cached circumsphere entries
# ---------------------------------------------------------------------------
#
# A circumsphere entry for a live tetrahedron is the 6-tuple
#
#     (cx, cy, cz, r2, band_a, band_b)
#
# where (cx, cy, cz) is the floating point circumcenter, r2 the squared
# circumradius measured from vertex a, and the *band* is a conservative
# bound on the total rounding error of the test
#
#     s = |p - c|^2 - r2        (sign of s == -sign of insphere)
#
# as an affine function of the squared query distance:
#
#     |s_float - s_exact| <= band_a + band_b * d2
#
# The two coefficients fold together (i) the Cramer-rule error of the
# circumcenter itself, amplified by the inverse determinant (i.e. the
# tetrahedron's condition), (ii) the rounding of r2, and (iii) the
# rounding of the d2 accumulation.  The cross term 2*|p-c|*|dc| is
# linearised with 2*sqrt(d2) <= d2/r + r so no square root is paid per
# test.  Whenever |s| falls inside the band the caller must fall back to
# the robust :func:`insphere`; outside the band the cheap sign is
# guaranteed to agree with the exact predicate.

CircumsphereEntry = Tuple[float, float, float, float, float, float]


def circumsphere_entry(a: Point, b: Point, c: Point, d: Point
                       ) -> Optional[CircumsphereEntry]:
    """Precompute a filtered in-sphere record for tet ``(a, b, c, d)``.

    Returns ``None`` for (near-)degenerate tetrahedra, meaning "no fast
    path: always use the robust predicate".
    """
    ax, ay, az = a[0], a[1], a[2]
    bax = b[0] - ax
    bay = b[1] - ay
    baz = b[2] - az
    cax = c[0] - ax
    cay = c[1] - ay
    caz = c[2] - az
    dax = d[0] - ax
    day = d[1] - ay
    daz = d[2] - az

    b2 = bax * bax + bay * bay + baz * baz
    c2 = cax * cax + cay * cay + caz * caz
    d2 = dax * dax + day * day + daz * daz

    cxdx = cay * daz - caz * day
    cxdy = caz * dax - cax * daz
    cxdz = cax * day - cay * dax

    dxbx = day * baz - daz * bay
    dxby = daz * bax - dax * baz
    dxbz = dax * bay - day * bax

    bxcx = bay * caz - baz * cay
    bxcy = baz * cax - bax * caz
    bxcz = bax * cay - bay * cax

    # Permanents of the cross products (abs of the products *before* the
    # subtraction): cancellation inside a cross component can make
    # |cxdx| etc. arbitrarily smaller than the rounding error it carries,
    # so the error model must use these, not abs(cxdx).
    cxd_px = abs(cay * daz) + abs(caz * day)
    cxd_py = abs(caz * dax) + abs(cax * daz)
    cxd_pz = abs(cax * day) + abs(cay * dax)
    dxb_px = abs(day * baz) + abs(daz * bay)
    dxb_py = abs(daz * bax) + abs(dax * baz)
    dxb_pz = abs(dax * bay) + abs(day * bax)
    bxc_px = abs(bay * caz) + abs(baz * cay)
    bxc_py = abs(baz * cax) + abs(bax * caz)
    bxc_pz = abs(bax * cay) + abs(bay * cax)

    det = 2.0 * (bax * cxdx + bay * cxdy + baz * cxdz)
    det_abs = 2.0 * (abs(bax) * cxd_px + abs(bay) * cxd_py
                     + abs(baz) * cxd_pz)
    if det == 0.0 or abs(det) <= 64.0 * _EPS * det_abs:
        return None

    nx = b2 * cxdx + c2 * dxbx + d2 * bxcx
    ny = b2 * cxdy + c2 * dxby + d2 * bxcy
    nz = b2 * cxdz + c2 * dxbz + d2 * bxcz
    nx_abs = b2 * cxd_px + c2 * dxb_px + d2 * bxc_px
    ny_abs = b2 * cxd_py + c2 * dxb_py + d2 * bxc_py
    nz_abs = b2 * cxd_pz + c2 * dxb_pz + d2 * bxc_pz

    inv = 1.0 / det
    ox = nx * inv
    oy = ny * inv
    oz = nz * inv
    cx = ax + ox
    cy = ay + oy
    cz = az + oz
    r2 = ox * ox + oy * oy + oz * oz

    # Per-coordinate circumcenter error: numerator permanent plus the
    # |o| * det permanent term, both divided by |det|, with a generous
    # constant absorbing the division/additions themselves.
    err_scale = _CC_NUM_ERR * abs(inv)
    ec = (
        err_scale * (nx_abs + ny_abs + nz_abs)
        + _CC_NUM_ERR * det_abs * abs(inv) * (abs(ox) + abs(oy) + abs(oz))
        + _CC_TEST_ERR * (abs(cx) + abs(cy) + abs(cz))
    )
    r = math.sqrt(r2)
    # |s_f - s_e| <= band_a + band_b * d2 with the sqrt linearised at r.
    if r > 0.0:
        band_a = _CC_TEST_ERR * r2 + ec * r + ec * ec + 2.0 * ec * r
        band_b = _CC_TEST_ERR + ec / r
    else:
        band_a = ec * ec
        band_b = _CC_TEST_ERR + ec
    return (cx, cy, cz, r2, band_a, band_b)


def insphere_via_entry(entry: Optional[CircumsphereEntry],
                       a: Point, b: Point, c: Point, d: Point,
                       e: Point) -> int:
    """In-sphere sign using a cached circumsphere entry when conclusive.

    Exactly equivalent to ``insphere(a, b, c, d, e)``: the band check
    guarantees the fast path only answers when rounding cannot have
    flipped the sign.
    """
    stats = STATS
    if entry is not None:
        stats.cc_tests += 1
        dx = e[0] - entry[0]
        dy = e[1] - entry[1]
        dz = e[2] - entry[2]
        d2 = dx * dx + dy * dy + dz * dz
        s = d2 - entry[3]
        band = entry[4] + entry[5] * d2
        if s > band:
            stats.cc_fast += 1
            return -1
        if s < -band:
            stats.cc_fast += 1
            return 1
        stats.cc_fallback += 1
    return insphere(a, b, c, d, e)


def circumcenter_tet(a: Point, b: Point, c: Point, d: Point):
    """Circumcenter of a tetrahedron.

    Solves the 3x3 linear system expressing equidistance from the four
    vertices.  Returns a tuple ``(x, y, z)``.  Raises ``ZeroDivisionError``
    for degenerate (coplanar) tetrahedra.
    """
    bax = b[0] - a[0]
    bay = b[1] - a[1]
    baz = b[2] - a[2]
    cax = c[0] - a[0]
    cay = c[1] - a[1]
    caz = c[2] - a[2]
    dax = d[0] - a[0]
    day = d[1] - a[1]
    daz = d[2] - a[2]

    b2 = bax * bax + bay * bay + baz * baz
    c2 = cax * cax + cay * cay + caz * caz
    d2 = dax * dax + day * day + daz * daz

    # Cross products for Cramer's rule.
    cxdx = cay * daz - caz * day
    cxdy = caz * dax - cax * daz
    cxdz = cax * day - cay * dax

    dxbx = day * baz - daz * bay
    dxby = daz * bax - dax * baz
    dxbz = dax * bay - day * bax

    bxcx = bay * caz - baz * cay
    bxcy = baz * cax - bax * caz
    bxcz = bax * cay - bay * cax

    det = 2.0 * (bax * cxdx + bay * cxdy + baz * cxdz)
    if det == 0.0:
        raise ZeroDivisionError("degenerate tetrahedron in circumcenter_tet")

    ox = (b2 * cxdx + c2 * dxbx + d2 * bxcx) / det
    oy = (b2 * cxdy + c2 * dxby + d2 * bxcy) / det
    oz = (b2 * cxdz + c2 * dxbz + d2 * bxcz) / det
    return (a[0] + ox, a[1] + oy, a[2] + oz)


def circumradius_tet(a: Point, b: Point, c: Point, d: Point) -> float:
    """Circumradius of a tetrahedron."""
    cc = circumcenter_tet(a, b, c, d)
    return math.dist(cc, a)


def circumcenter_tri(a: Point, b: Point, c: Point):
    """Circumcenter of a triangle embedded in 3D space."""
    bax = b[0] - a[0]
    bay = b[1] - a[1]
    baz = b[2] - a[2]
    cax = c[0] - a[0]
    cay = c[1] - a[1]
    caz = c[2] - a[2]

    b2 = bax * bax + bay * bay + baz * baz
    c2 = cax * cax + cay * cay + caz * caz

    nx = bay * caz - baz * cay
    ny = baz * cax - bax * caz
    nz = bax * cay - bay * cax
    n2 = nx * nx + ny * ny + nz * nz
    if n2 == 0.0:
        raise ZeroDivisionError("degenerate triangle in circumcenter_tri")

    # (b2 * ca - c2 * ba) x n / (2 n.n) offset from a
    tx = b2 * cax - c2 * bax
    ty = b2 * cay - c2 * bay
    tz = b2 * caz - c2 * baz
    ox = (ty * nz - tz * ny) / (2.0 * n2)
    oy = (tz * nx - tx * nz) / (2.0 * n2)
    oz = (tx * ny - ty * nx) / (2.0 * n2)
    return (a[0] + ox, a[1] + oy, a[2] + oz)
