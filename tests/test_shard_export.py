"""What the shard layer exports and how it matches points across runs.

A block exports its owned, alive, non-box vertices in insertion order,
read with array masks off the domain's kinds array; the stitch matches
exported points by coordinate bytes.  Both kernels feed this code, so
it runs under either ``REPRO_ACCEL`` setting.
"""

import numpy as np
import pytest

import repro.core.domain as domain_mod
from repro.api import MeshRequest
from repro.core.domain import VertexKind
from repro.delaunay.shard import (
    _rows_in,
    block_request,
    decompose,
    refine_block,
)
from repro.imaging import ball_grid_phantom


@pytest.fixture(scope="module")
def refined_blocks():
    """Each block of a 4-shard ``ball_grid_phantom(32)``: its export and
    the domain ``refine_block`` refined to make it."""
    request = MeshRequest(image=ball_grid_phantom(32), shards=4)
    plan = decompose(request.image, 4, delta=request.delta)
    request = MeshRequest(image=request.image, shards=4, delta=plan.delta)
    domains = []

    class Recorded(domain_mod.RefineDomain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            domains.append(self)

    mp = pytest.MonkeyPatch()
    mp.setattr(domain_mod, "RefineDomain", Recorded)
    try:
        out = []
        for block in plan.blocks:
            arrays, stats = refine_block(
                block_request(request, plan, block), block.own_lo,
                block.own_hi)
            out.append((block, arrays, stats, domains[-1]))
    finally:
        mp.undo()
    return out


def _reference_walk(domain, own_lo, own_hi):
    """The export as a walk over the mesh's Python lists: alive
    vertices that are not bounding-box corners, inside the half-open
    ownership box, by timestamp; the kind from the grid the vertex is
    registered in."""
    mesh = domain.tri.mesh
    box = set(domain.tri.box_vertices)
    rows = []
    for v, p in enumerate(mesh.points):
        if v in box or not mesh.alive_vertex[v]:
            continue
        if all(own_lo[d] <= p[d] < own_hi[d] for d in range(3)):
            kind = (VertexKind.ISOSURFACE if v in domain.iso_grid
                    else VertexKind.CIRCUMCENTER)
            assert (v in domain.cc_grid) == (kind == VertexKind.CIRCUMCENTER)
            rows.append((mesh.timestamps[v], p, int(kind)))
    rows.sort(key=lambda row: row[0])
    return [p for _, p, _ in rows], [k for _, _, k in rows]


def test_block_export_is_the_timestamp_walk_over_recycled_ids(
        refined_blocks):
    recycled = 0
    for block, arrays, stats, domain in refined_blocks:
        mesh = domain.tri.mesh
        live = [v for v in range(len(mesh.points)) if mesh.alive_vertex[v]]
        by_time = sorted(live, key=mesh.timestamps.__getitem__)
        recycled += by_time != live
        points, kinds = _reference_walk(domain, block.own_lo, block.own_hi)
        assert arrays["points"].dtype == np.float64
        assert arrays["kinds"].dtype == np.int8
        assert arrays["points"].shape == (len(points), 3)
        assert arrays["points"].tobytes() == np.array(
            points, dtype=np.float64).reshape(-1, 3).tobytes()
        assert arrays["kinds"].tolist() == kinds
        assert stats["owned_points"] == len(points)
    # The precondition: R6 removals freed slots that later insertions
    # took, so id order is not insertion order in these blocks.
    assert recycled >= 1
    assert all(stats["removals"] > 0 for _, _, stats, _ in refined_blocks)


def _rows_in_reference(a, b):
    keys = {row.tobytes() for row in np.asarray(b, np.float64).reshape(-1, 3)}
    return np.array([row.tobytes() in keys
                     for row in np.asarray(a, np.float64).reshape(-1, 3)],
                    dtype=bool)


def test_row_membership_matches_bytes():
    rng = np.random.default_rng(7)
    b = rng.integers(-2, 3, size=(40, 3)).astype(np.float64) * 0.5
    a = np.concatenate([
        b[::3],                                   # present
        rng.integers(-2, 3, size=(40, 3)) * 0.5,  # some present, repeats
        [[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]],      # signed zeros differ
        [[np.nan, 0.0, 0.0]],
    ])
    b = np.concatenate([b, [[0.0, 1.0, 2.0]], [[np.nan, 0.0, 0.0]]])
    got = _rows_in(a, b)
    assert got.tolist() == _rows_in_reference(a, b).tolist()
    assert got[-3] and not got[-2] and got[-1]
    assert _rows_in(a, np.zeros((0, 3))).tolist() == [False] * len(a)
    assert _rows_in(np.zeros((0, 3)), b).shape == (0,)
