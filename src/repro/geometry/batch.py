"""Vectorized batch kernels over ``(k, 4, 3)`` tet coordinates.

The commit's fused orientation check, :func:`new_tet_records`, mirrors
its scalar counterparts in :mod:`repro.geometry.predicates` *term for
term*, so the same forward error bound applies to every lane and
inconclusive lanes can be resolved by the scalar exact path with
identical semantics.  (This is also why
``np.linalg.det`` is not used: an LU factorisation has a different — and
much harder to bound — error structure than the explicit cofactor
expansion the filter constants were derived for.)

Overhead is ~20 numpy calls per batch, so it pays off from roughly ten
lanes upward; its consumer is the Bowyer-Watson commit phase (one
orientation test per boundary face, typically 20-50 faces).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.predicates import (
    STATS,
    _EPS,
    orient3d,
)

_CC_NUM_ERR = 32.0 * _EPS
_CC_TEST_ERR = 16.0 * _EPS

# Error coefficient for the orientation sign extracted from the Cramer
# denominator 2 * (ba . (ca x da)): term depth ~4 roundings, padded 2x.
_ORIENT_REC_BOUND = 32.0 * _EPS


def new_tet_records(quads: np.ndarray,
                    ) -> Tuple[bool, List[Optional[tuple]]]:
    """Fused validation + circumsphere records for prospective new tets.

    ``quads`` is ``(k, 4, 3)`` float64 (one tet per lane).  Returns
    ``(all_positive, entries)`` where ``all_positive`` is True iff every
    tet is strictly positively oriented (``orient3d(a,b,c,d) > 0``,
    filtered float with exact fallback in the inconclusive band) and
    ``entries`` are the cached circumsphere records (``None`` for
    near-degenerate lanes).

    The fusion works because the Cramer denominator of the circumcenter
    solve, ``det(b-a, c-a, d-a)``, equals ``-orient3d(a, b, c, d)``'s
    determinant — so the insertion commit gets its boundary-face
    orientation validation for free from the record computation it needs
    anyway.
    """
    k = quads.shape[0]
    if k == 0:
        return True, []
    STATS.batch_calls += 1
    STATS.batch_items += k
    a = quads[:, 0]
    E = quads[:, 1:] - quads[:, :1]                 # (k,3,3): ba, ca, da
    L2 = (E * E).sum(axis=2)                        # (k,3): b2, c2, d2
    # Cross products cxd, dxb, bxc assembled from permuted views
    # (np.cross's moveaxis plumbing costs ~100us per call at this size).
    X = E[:, (1, 2, 0)]                             # rows: ca, da, ba
    Y = E[:, (2, 0, 1)]                             # rows: da, ba, ca
    t1 = X[:, :, (1, 2, 0)] * Y[:, :, (2, 0, 1)]
    t2 = X[:, :, (2, 0, 1)] * Y[:, :, (1, 2, 0)]
    C = t1 - t2                                     # (k,3,3): cxd, dxb, bxc
    T = E[:, 0] * C[:, 0]
    det = 2.0 * T.sum(axis=1)
    # Permanents of the cross products (abs of the products *before* the
    # subtraction — cancellation inside a cross component can make |C|
    # arbitrarily smaller than the rounding error it carries).
    Cp = np.abs(t1) + np.abs(t2)
    det_perm = 2.0 * (np.abs(E[:, 0]) * Cp[:, 0]).sum(axis=1)

    # Orientation: det(ba, ca, da) = -orient3d_det(a, b, c, d).
    neg = det < -_ORIENT_REC_BOUND * det_perm       # certainly positive orient
    all_positive = True
    if not neg.all():
        unsure = np.flatnonzero(~neg)
        STATS.batch_exact += int(unsure.size)
        rows = quads[unsure].tolist()
        for row in rows:
            if orient3d(tuple(row[0]), tuple(row[1]),
                        tuple(row[2]), tuple(row[3])) <= 0:
                all_positive = False
                break

    ok = np.abs(det) > 64.0 * _EPS * det_perm
    inv = 1.0 / np.where(ok, det, 1.0)
    N = np.einsum("ki,kix->kx", L2, C)              # Cramer numerators
    n_perm = (L2[:, :, None] * Cp).sum(axis=(1, 2))
    O = N * inv[:, None]
    cc = a + O
    r2 = (O * O).sum(axis=1)
    ainv = np.abs(inv)
    ec = (_CC_NUM_ERR * ainv * n_perm
          + _CC_NUM_ERR * det_perm * ainv * np.abs(O).sum(axis=1)
          + _CC_TEST_ERR * np.abs(cc).sum(axis=1))
    r = np.sqrt(r2)
    pos = r > 0.0
    band_a = np.where(pos,
                      _CC_TEST_ERR * r2 + ec * r + ec * ec + 2.0 * ec * r,
                      ec * ec)
    band_b = _CC_TEST_ERR + ec / np.where(pos, r, 1.0)
    out = np.empty((k, 6), dtype=np.float64)
    out[:, :3] = cc
    out[:, 3] = r2
    out[:, 4] = band_a
    out[:, 5] = band_b
    rows = out.tolist()
    ok_list = ok.tolist()
    entries = [tuple(rows[i]) if ok_list[i] else None for i in range(k)]
    return all_positive, entries


# ---------------------------------------------------------------------------
# vectorized quality measures (rule screen, Table-6 statistics)
# ---------------------------------------------------------------------------

# The six tet edges (i, j) with their opposite vertex pair (k, l), in
# the exact order of the scalar loops in repro.geometry.quality.
_EDGE_I = (0, 0, 0, 1, 1, 2)
_EDGE_J = (1, 2, 3, 2, 3, 3)
_EDGE_K = (2, 1, 1, 0, 0, 0)
_EDGE_L = (3, 3, 2, 3, 2, 1)


def shortest_edges_many(quads: np.ndarray) -> np.ndarray:
    """Shortest edge length per tet for a ``(k, 4, 3)`` batch.

    Lane-for-lane equal to
    :func:`repro.geometry.quality.shortest_edge`.
    """
    k = quads.shape[0]
    if k == 0:
        return np.empty(0, dtype=np.float64)
    d = quads[:, _EDGE_I] - quads[:, _EDGE_J]          # (k, 6, 3)
    return np.sqrt((d * d).sum(axis=2)).min(axis=1)


def circumradii_many(quads: np.ndarray) -> np.ndarray:
    """Circumradius per tet; ``inf`` for degenerate (flat) lanes.

    Matches :func:`repro.geometry.predicates.circumradius_tet` with the
    scalar path's ``ZeroDivisionError`` mapped to ``inf``.
    """
    k = quads.shape[0]
    if k == 0:
        return np.empty(0, dtype=np.float64)
    E = quads[:, 1:] - quads[:, :1]                    # ba, ca, da
    L2 = (E * E).sum(axis=2)
    X = E[:, (1, 2, 0)]
    Y = E[:, (2, 0, 1)]
    C = (X[:, :, (1, 2, 0)] * Y[:, :, (2, 0, 1)]
         - X[:, :, (2, 0, 1)] * Y[:, :, (1, 2, 0)])   # cxd, dxb, bxc
    det = 2.0 * (E[:, 0] * C[:, 0]).sum(axis=1)
    ok = det != 0.0
    inv = 1.0 / np.where(ok, det, 1.0)
    O = np.einsum("ki,kix->kx", L2, C) * inv[:, None]
    r = np.sqrt((O * O).sum(axis=1))
    r[~ok] = np.inf
    return r


def circumballs_many(quads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Circumcentre ``(k, 3)`` and circumradius ``(k,)`` per tet.

    The batch form of :meth:`repro.core.domain.CircumballStore.ball`
    and bit-identical to it lane for lane:
    :func:`repro.geometry.predicates.circumcenter_tet` term for term,
    the radius as the distance from the centre to the first vertex, and
    a flat lane (``det == 0``, the scalar's ``ZeroDivisionError``)
    mapped to its centroid with radius ``inf``.
    """
    k = quads.shape[0]
    if k == 0:
        return np.empty((0, 3), dtype=np.float64), np.empty(0, np.float64)
    ax, ay, az = quads[:, 0, 0], quads[:, 0, 1], quads[:, 0, 2]
    bax, cax, dax = (quads[:, i, 0] - ax for i in (1, 2, 3))
    bay, cay, day = (quads[:, i, 1] - ay for i in (1, 2, 3))
    baz, caz, daz = (quads[:, i, 2] - az for i in (1, 2, 3))

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

    det = 2.0 * (bax * cxdx + bay * cxdy + baz * cxdz)
    flat = det == 0.0
    safe = np.where(flat, 1.0, det)
    cc = np.empty((k, 3), dtype=np.float64)
    cc[:, 0] = ax + (b2 * cxdx + c2 * dxbx + d2 * bxcx) / safe
    cc[:, 1] = ay + (b2 * cxdy + c2 * dxby + d2 * bxcy) / safe
    cc[:, 2] = az + (b2 * cxdz + c2 * dxbz + d2 * bxcz) / safe
    dx, dy, dz = cc[:, 0] - ax, cc[:, 1] - ay, cc[:, 2] - az
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    if flat.any():
        q = quads[flat]
        cc[flat] = (q[:, 0] + q[:, 1] + q[:, 2] + q[:, 3]) / 4.0
        r[flat] = np.inf
    return cc, r


def triangle_min_angles_many(tris: np.ndarray) -> np.ndarray:
    """Smallest planar angle (degrees) per triangle of a ``(k, 3, 3)``
    batch: :func:`repro.geometry.quality.triangle_min_angle` with the
    same arithmetic up to the arc cosine, whose last bit numpy's SIMD
    kernels and ``math.acos`` do not share — callers comparing against a
    bound must leave that much room.  A zero-length edge gives 0.
    """
    k = tris.shape[0]
    if k == 0:
        return np.empty(0, dtype=np.float64)
    best = np.full(k, np.inf)
    for i in range(3):
        u = tris[:, (i + 1) % 3] - tris[:, i]
        v = tris[:, (i + 2) % 3] - tris[:, i]
        lu = np.sqrt(u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1] + u[:, 2] * u[:, 2])
        lv = np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])
        dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]
        denom = lu * lv
        ok = (lu != 0.0) & (lv != 0.0)
        cosang = np.clip(dot / np.where(ok, denom, 1.0), -1.0, 1.0)
        best = np.minimum(best, np.where(ok, np.degrees(np.arccos(cosang)),
                                         0.0))
    return best


def radius_edge_many(quads: np.ndarray) -> np.ndarray:
    """Radius-edge ratio per tet (``inf`` for degenerate lanes);
    the vectorized :func:`repro.geometry.quality.radius_edge_ratio`."""
    k = quads.shape[0]
    if k == 0:
        return np.empty(0, dtype=np.float64)
    se = shortest_edges_many(quads)
    r = circumradii_many(quads)
    out = np.full(k, np.inf)
    good = se > 0.0
    np.divide(r, se, out=out, where=good)
    return out


def min_max_dihedral_many(quads: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest and largest dihedral angle (degrees) per tet.

    The vectorized :func:`repro.geometry.quality.min_max_dihedral`,
    including its convention that a zero-area face contributes a 0°
    angle for that edge.
    """
    k = quads.shape[0]
    if k == 0:
        e = np.empty(0, dtype=np.float64)
        return e, e.copy()
    p = quads[:, _EDGE_I]                              # (k, 6, 3)
    u = quads[:, _EDGE_J] - p
    vk = quads[:, _EDGE_K] - p
    vl = quads[:, _EDGE_L] - p
    nk = np.cross(u, vk)
    nl = np.cross(u, vl)
    nk_len = np.sqrt((nk * nk).sum(axis=2))
    nl_len = np.sqrt((nl * nl).sum(axis=2))
    denom = nk_len * nl_len
    ok = denom > 0.0
    cosang = np.clip(
        np.divide((nk * nl).sum(axis=2), np.where(ok, denom, 1.0)),
        -1.0, 1.0,
    )
    angles = np.degrees(np.arccos(cosang))
    angles[~ok] = 0.0
    return angles.min(axis=1), angles.max(axis=1)


def quality_screen(
    coords: np.ndarray,
    tet_verts_arr: np.ndarray,
    tet_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Radius-edge ratios and shortest edges for tets of the SoA store.

    One gather plus two vectorized kernels in place of the per-tet
    scalar ``shortest_edge`` / ``circumradius_tet`` pair: the stitch's
    radius-edge acceptance screen.  (The refinement rules have their
    own batch form, :meth:`repro.core.domain.RefineDomain.screen`.)
    """
    tet_ids = np.asarray(tet_ids)
    if tet_ids.size == 0:
        e = np.empty(0, dtype=np.float64)
        return e, e.copy()
    quads = coords[tet_verts_arr[tet_ids].ravel()].reshape(-1, 4, 3)
    return radius_edge_many(quads), shortest_edges_many(quads)

