"""Uniform spatial hash grid over vertex ids, with cells the size of
the query radius: R1's "is an isosurface vertex within delta of z?"
(also for a generation's candidates at once) and R6's "which
circumcenter vertices lie within 2*delta of z?" in O(1) per query.

:data:`PointGrid` is the C grid of ``_accel/pointgrid.c`` when the
accelerator is loaded, else :class:`ReferenceGrid`, a dict of cells.
Both answer alike, order included: a point lives in cell ``floor(p /
cell)``; a query visits the cells ``floor((p -+ s) / cell)``, ``s = r +
1e-9 * (|px| + |py| + |pz| + r)``, x, y, z ascending and a cell's ids in
insertion order (a re-add moves the id to the end), and tests ``dx*dx + dy*dy + dz*dz <= r*r``.  R6 removes its
victims in that order.  Threads share the grids: a C call runs whole
under the interpreter lock, and the reference copies each cell it reads.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import weakref
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import _accel

_c = _accel.grid


class ReferenceGrid:
    """Hash grid mapping cells to dicts of (vertex id, point)."""

    def __init__(self, cell: float):
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.cell = float(cell)
        self._cells: Dict[Tuple[int, int, int], Dict[int, tuple]] = {}
        self._where: Dict[int, Tuple[int, int, int]] = {}

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, vid: int) -> bool:
        return vid in self._where

    def add(self, vid: int, p: Sequence[float]) -> None:
        """Register vertex ``vid`` at point ``p``; re-adding moves it."""
        self.remove(vid)
        key = tuple(math.floor(p[i] / self.cell) for i in range(3))
        self._cells.setdefault(key, {})[vid] = (p[0], p[1], p[2])
        self._where[vid] = key

    def remove(self, vid: int) -> None:
        """Forget vertex ``vid``; unknown ids are ignored."""
        key = self._where.pop(vid, None)
        cell = self._cells.get(key, {})
        cell.pop(vid, None)
        if not cell:
            self._cells.pop(key, None)

    def _near(self, p: Sequence[float], radius: float,
              exclude: int = -1) -> Iterator[int]:
        """Ids other than ``exclude`` within ``radius`` of ``p``."""
        c = self.cell
        r2 = radius * radius
        # The distance test is rounded, so a point a hair past r can
        # pass it from a cell just outside floor((p -+ r) / c); padding
        # r by far more than that rounding widens a side only there.
        s = radius + 1e-9 * (abs(p[0]) + abs(p[1]) + abs(p[2]) + radius)
        box = [range(math.floor((p[i] - s) / c),
                     math.floor((p[i] + s) / c) + 1) for i in range(3)]
        for key in itertools.product(*box):
            cell = self._cells.get(key)
            if not cell:
                continue
            # A copy: a dict that grows while it is iterated raises.
            for vid, q in list(cell.items()):
                dx, dy, dz = q[0] - p[0], q[1] - p[1], q[2] - p[2]
                if dx * dx + dy * dy + dz * dz <= r2 and vid != exclude:
                    yield vid

    def query_ball(self, p: Sequence[float], radius: float) -> List[int]:
        """Vertex ids within ``radius`` of ``p`` (closed ball)."""
        return list(self._near(p, radius))

    def any_within(self, p: Sequence[float], radius: float,
                   exclude: int = -1) -> bool:
        """True when some vertex other than ``exclude`` is within radius."""
        return next(self._near(p, radius, exclude), None) is not None

    def any_within_many(self, pts: np.ndarray, radius: float) -> np.ndarray:
        """:meth:`any_within` for each row of an ``(m, 3)`` array."""
        rows = np.asarray(pts, dtype=np.float64).reshape(-1, 3).tolist()
        return np.array([self.any_within(q, radius) for q in rows], bool)


class AccelGrid:
    """:class:`ReferenceGrid` in C: every method is one library call."""

    def __init__(self, cell: float):
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.cell = float(cell)
        self._h = _c.new(self.cell)
        if not self._h:
            raise MemoryError("point grid")
        # Not at exit: a daemon thread may still be querying.
        weakref.finalize(self, _c.free, self._h).atexit = False

    def __len__(self) -> int:
        return _c.len(self._h)

    def __contains__(self, vid: int) -> bool:
        return _c.contains(self._h, vid)

    def add(self, vid: int, p: Sequence[float]) -> None:
        if _c.add(self._h, vid, p[0], p[1], p[2]):
            raise ValueError(f"vertex {vid}: negative id, or no memory")

    def remove(self, vid: int) -> None:
        _c.remove(self._h, vid)

    def query_ball(self, p: Sequence[float], radius: float) -> List[int]:
        out = (ctypes.c_int64 * 64)()
        n = _c.query_ball(self._h, p[0], p[1], p[2], radius, out, 64)
        while n > len(out):     # more than fit: ask again with room
            out = (ctypes.c_int64 * n)()
            n = _c.query_ball(self._h, p[0], p[1], p[2], radius, out, n)
        return out[:n]

    def any_within(self, p: Sequence[float], radius: float,
                   exclude: int = -1) -> bool:
        return _c.any_within(self._h, p[0], p[1], p[2], radius, exclude)

    def any_within_many(self, pts: np.ndarray, radius: float) -> np.ndarray:
        z = np.ascontiguousarray(pts, dtype=np.float64).reshape(-1, 3)
        out = np.zeros(len(z), dtype=bool)
        _c.any_within_many(self._h, z.ctypes.data, len(z), radius,
                           out.ctypes.data)
        return out


PointGrid = ReferenceGrid if _c is None else AccelGrid
