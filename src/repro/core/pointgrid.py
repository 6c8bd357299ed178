"""Uniform spatial hash grid over vertex ids.

The refinement rules need two proximity queries that a triangulation
cannot answer cheaply:

* R1 — "is there an isosurface vertex within delta of z?"
* R6 — "which circumcenter vertices lie within 2*delta of z?"

A hash grid with cell size of the query radius answers both in O(1)
per query for the uniform densities Delaunay refinement produces.

The generation screen asks the R1 question for a whole batch of
candidates at once (:meth:`PointGrid.any_within_many`): the same cells
and the same float test as the scalar query, over a table of the points
sorted by packed cell key — plain numpy, no tree to build or hold.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Point = Tuple[float, float, float]

# Cell indices are packed three to an int64, 21 bits each, z lowest: the
# cells of one (x, y) column are consecutive keys.  An index beyond
# +-2**20 is clipped onto the edge cell, which only adds candidates to
# the exact distance test.
_KEY_BITS = 21
_KEY_BIAS = 1 << (_KEY_BITS - 1)


def _pack(cells: np.ndarray) -> np.ndarray:
    """int64 key per ``(..., 3)`` row of integer cell indices; monotone
    in each index."""
    c = np.clip(cells, -_KEY_BIAS, _KEY_BIAS - 1) + _KEY_BIAS
    return (c[..., 0] << (2 * _KEY_BITS)) | (c[..., 1] << _KEY_BITS) | c[..., 2]


class PointGrid:
    """Hash grid mapping cells to sets of (vertex id, point)."""

    def __init__(self, cell: float):
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.cell = float(cell)
        self._cells: Dict[Tuple[int, int, int], Dict[int, Point]] = {}
        self._where: Dict[int, Tuple[int, int, int]] = {}
        # Batch side: the points in insertion order (``None`` after a
        # removal — rebuilt from the cells on the next batch query) and
        # the ``(keys, points)`` table, sorted by cell key, that covers
        # the first ``len(keys)`` of them.
        self._rows: Optional[List[Point]] = []
        self._table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _key(self, p: Sequence[float]) -> Tuple[int, int, int]:
        c = self.cell
        return (
            int(math.floor(p[0] / c)),
            int(math.floor(p[1] / c)),
            int(math.floor(p[2] / c)),
        )

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, vid: int) -> bool:
        return vid in self._where

    def add(self, vid: int, p: Sequence[float]) -> None:
        """Register vertex ``vid`` at point ``p``; re-adding moves it."""
        if vid in self._where:
            self.remove(vid)
        key = self._key(p)
        pt = (p[0], p[1], p[2])
        self._cells.setdefault(key, {})[vid] = pt
        self._where[vid] = key
        rows = self._rows       # a concurrent remove() may drop the list
        if rows is not None:
            rows.append(pt)

    def remove(self, vid: int) -> None:
        """Forget vertex ``vid``; unknown ids are ignored."""
        key = self._where.pop(vid, None)
        if key is None:
            return
        self._rows = self._table = None
        cell = self._cells.get(key)
        if cell is not None:
            cell.pop(vid, None)
            if not cell:
                del self._cells[key]

    def query_ball(self, p: Sequence[float], radius: float) -> List[int]:
        """Vertex ids within ``radius`` of ``p`` (closed ball)."""
        c = self.cell
        r2 = radius * radius
        lo = [int(math.floor((p[i] - radius) / c)) for i in range(3)]
        hi = [int(math.floor((p[i] + radius) / c)) for i in range(3)]
        out: List[int] = []
        cells = self._cells
        for ix in range(lo[0], hi[0] + 1):
            for iy in range(lo[1], hi[1] + 1):
                for iz in range(lo[2], hi[2] + 1):
                    cell = cells.get((ix, iy, iz))
                    if not cell:
                        continue
                    # A copy: refinement threads share the grid, and a
                    # dict that grows while it is iterated raises.
                    for vid, q in list(cell.items()):
                        dx = q[0] - p[0]
                        dy = q[1] - p[1]
                        dz = q[2] - p[2]
                        if dx * dx + dy * dy + dz * dz <= r2:
                            out.append(vid)
        return out

    def any_within(self, p: Sequence[float], radius: float,
                   exclude: int = -1) -> bool:
        """True when some vertex other than ``exclude`` is within radius."""
        c = self.cell
        r2 = radius * radius
        lo = [int(math.floor((p[i] - radius) / c)) for i in range(3)]
        hi = [int(math.floor((p[i] + radius) / c)) for i in range(3)]
        cells = self._cells
        for ix in range(lo[0], hi[0] + 1):
            for iy in range(lo[1], hi[1] + 1):
                for iz in range(lo[2], hi[2] + 1):
                    cell = cells.get((ix, iy, iz))
                    if not cell:
                        continue
                    for vid, q in list(cell.items()):  # see query_ball
                        if vid == exclude:
                            continue
                        dx = q[0] - p[0]
                        dy = q[1] - p[1]
                        dz = q[2] - p[2]
                        if dx * dx + dy * dy + dz * dz <= r2:
                            return True
        return False

    # ------------------------------------------------------------------
    def _sorted_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, points)``: every stored point, ordered by packed cell
        key.  Extended by the points added since the last call."""
        if self._rows is None:
            self._rows = [q for cell in self._cells.values()
                          for q in cell.values()]
        rows = self._rows
        n = 0 if self._table is None else len(self._table[0])
        if self._table is None or n < len(rows):
            points = np.array(rows[n:], dtype=np.float64).reshape(-1, 3)
            keys = _pack(np.floor(points / self.cell).astype(np.int64))
            if n:
                keys = np.concatenate([self._table[0], keys])
                points = np.concatenate([self._table[1], points])
            order = np.argsort(keys, kind="stable")
            self._table = (keys[order], points[order])
        return self._table

    def any_within_many(self, pts: np.ndarray, radius: float) -> np.ndarray:
        """:meth:`any_within` for an ``(m, 3)`` array of query points.

        Lane for lane the scalar answer, ties at exactly ``radius``
        included: the candidate cells are the scalar's
        ``floor((p -+ radius) / cell)`` ranges and the distance test is
        the same sum of squares against ``radius * radius``.
        """
        z = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        m = len(z)
        out = np.zeros(m, dtype=bool)
        if m == 0 or not self._where:
            return out
        keys, points = self._sorted_table()
        lo = np.floor((z - radius) / self.cell).astype(np.int64)
        hi = np.floor((z + radius) / self.cell).astype(np.int64)
        # One key range per (x, y) column of the scalar's cell box: the
        # column's z cells lo..hi are consecutive in the sorted table.
        span = (hi[:, :2] - lo[:, :2]).max(axis=0) + 1
        offsets = np.indices(tuple(span.tolist())).reshape(2, -1).T
        column = np.empty((m, len(offsets), 3), dtype=np.int64)
        column[:, :, :2] = lo[:, None, :2] + offsets[None, :, :]
        in_range = (column[:, :, :2] <= hi[:, None, :2]).all(axis=2).ravel()
        column[:, :, 2] = lo[:, None, 2]
        first = np.searchsorted(keys, _pack(column).ravel(), side="left")
        column[:, :, 2] = hi[:, None, 2]
        count = np.searchsorted(keys, _pack(column).ravel(),
                                side="right") - first
        count[~in_range] = 0
        total = int(count.sum())
        if total == 0:
            return out
        # One row per (query, stored point in one of its columns).
        query = np.repeat(np.arange(m * len(offsets)) // len(offsets), count)
        ends = np.cumsum(count)
        row = np.repeat(first - (ends - count), count) + np.arange(total)
        d = points[row] - z[query]
        near = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
                + d[:, 2] * d[:, 2]) <= radius * radius
        out[query[near]] = True
        return out
