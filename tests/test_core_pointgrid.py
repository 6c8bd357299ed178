"""Tests for the spatial hash grid behind the delta-proximity rules.

``PointGrid`` is the C grid when the accelerator is loaded; the
dict-of-cells ``ReferenceGrid`` is the other one.  ``TestPointGrid`` runs
on ``PointGrid`` and ``TestReferenceGrid`` repeats it on the reference;
the property below drives both through one sequence of calls and wants
equal answers, ``query_ball``'s order included.
"""

import ctypes
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _accel
from repro.core.pointgrid import AccelGrid, PointGrid, ReferenceGrid

needs_accel = pytest.mark.skipif(_accel.grid is None,
                                 reason="C accelerator not loaded")


class TestPointGrid:
    Grid = PointGrid

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            self.Grid(0.0)

    def test_add_query(self):
        g = self.Grid(1.0)
        g.add(1, (0.0, 0.0, 0.0))
        g.add(2, (5.0, 0.0, 0.0))
        assert sorted(g.query_ball((0.1, 0, 0), 1.0)) == [1]
        assert sorted(g.query_ball((2.5, 0, 0), 3.0)) == [1, 2]
        assert g.query_ball((10, 10, 10), 1.0) == []

    def test_queries_survive_a_thread_adding_to_the_cell(self):
        """Refinement threads share the grids: one judges a tet (R1's
        ``any_within``, R6's ``query_ball``) while another registers a
        vertex in the same cell."""
        g = self.Grid(10.0)
        stop = threading.Event()
        errors = []

        def writer():
            vid = 0
            while not stop.is_set():
                for k in range(64):
                    g.add(vid + k, (1.0 + 0.01 * k, 1.0, 1.0))
                for k in range(64):
                    g.remove(vid + k)
                vid += 64

        def reader():
            try:
                for _ in range(3000):
                    g.any_within((1.0, 1.0, 1.0), 0.001, exclude=-1)
                    ids = g.query_ball((1.0, 1.0, 1.0), 5.0)
                    # The writer adds ascending ids to one cell and
                    # removes them from the front: a whole call sees a
                    # run of consecutive ids, a torn one may not.
                    if ids and ids != list(range(ids[0], ids[0] + len(ids))):
                        errors.append(ids)
            except RuntimeError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=writer, daemon=True),
                   threading.Thread(target=reader, daemon=True)]
        try:
            for th in threads:
                th.start()
            threads[1].join(60.0)
            stop.set()
            threads[0].join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(g) == 0      # every batch added was removed

    def test_negative_coordinates(self):
        g = self.Grid(0.7)
        g.add(1, (-3.3, -0.1, -9.9))
        assert g.query_ball((-3.3, -0.1, -9.9), 0.01) == [1]

    def test_remove(self):
        g = self.Grid(1.0)
        g.add(1, (0, 0, 0))
        g.remove(1)
        assert g.query_ball((0, 0, 0), 2.0) == []
        assert len(g) == 0
        g.remove(1)  # idempotent

    def test_re_add_moves(self):
        g = self.Grid(1.0)
        g.add(1, (0, 0, 0))
        g.add(1, (5, 5, 5))
        assert g.query_ball((0, 0, 0), 1.0) == []
        assert g.query_ball((5, 5, 5), 0.5) == [1]
        assert len(g) == 1

    def test_contains(self):
        g = self.Grid(1.0)
        g.add(7, (1, 2, 3))
        assert 7 in g
        assert 8 not in g

    def test_any_within_exclude(self):
        g = self.Grid(1.0)
        g.add(1, (0, 0, 0))
        assert g.any_within((0.1, 0, 0), 0.5)
        assert not g.any_within((0.1, 0, 0), 0.5, exclude=1)

    def test_boundary_radius_closed(self):
        g = self.Grid(1.0)
        g.add(1, (1.0, 0.0, 0.0))
        assert g.query_ball((0, 0, 0), 1.0) == [1]

    def test_rounded_distance_at_a_cell_edge(self):
        """``-8.2e-210`` is at distance exactly 1.0 from ``1.0`` once
        rounded, but lies in cell -1, left of ``floor((1 - 1) / 1)``:
        the scanned range must still reach it."""
        g = self.Grid(1.0)
        g.add(0, (1.0, 0.0, 0.0))
        g.add(1, (-8.2e-210, 0.0, 0.0))
        assert math.dist((1.0, 0.0, 0.0), (-8.2e-210, 0.0, 0.0)) == 1.0
        assert g.query_ball((1.0, 0.0, 0.0), 1.0) == [1, 0]
        assert g.any_within((1.0, 0.0, 0.0), 1.0, exclude=0)

    def test_query_ball_order_is_cell_then_insertion(self):
        """Cells x, y, z ascending; a cell's ids in insertion order, a
        re-add moving the id to the end; more ids than one call's
        buffer holds."""
        g = self.Grid(1.0)
        for vid in range(100, 0, -1):
            g.add(vid, (0.5 + vid * 1e-3, 0.5, 0.5))
        g.add(3, (-0.5, 0.5, 0.5))
        g.add(50, (0.5, 0.5, 0.5))
        g.add(7, (0.5, 0.5, 1.5))
        assert g.query_ball((0.5, 0.5, 0.5), 1.0) == (
            [3] + [v for v in range(100, 0, -1) if v not in (3, 7, 50)]
            + [50, 7])


class TestReferenceGrid(TestPointGrid):
    Grid = ReferenceGrid


@needs_accel
def test_every_grid_entry_point_holds_the_interpreter_lock():
    """What makes each call atomic for threads sharing a grid: a
    ``PyDLL`` function keeps the lock from entry to return."""
    assert set(vars(_accel.grid)) == {
        "new", "free", "len", "contains", "add", "remove", "any_within",
        "query_ball", "any_within_many"}
    for name, fn in vars(_accel.grid).items():
        assert type(fn)._flags_ & ctypes._FUNCFLAG_PYTHONAPI, name


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-20, 20, allow_nan=False),
            st.floats(-20, 20, allow_nan=False),
            st.floats(-20, 20, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    st.floats(0.1, 8.0),
    st.floats(0.2, 4.0),
)
def test_grid_matches_brute_force(points, radius, cell):
    g = PointGrid(cell)
    for i, p in enumerate(points):
        g.add(i, p)
    q = points[0]
    expected = sorted(
        i for i, p in enumerate(points) if math.dist(p, q) <= radius
    )
    assert sorted(g.query_ball(q, radius)) == expected
    assert g.any_within(q, radius) == bool(expected)


@st.composite
def _calls(draw):
    """A cell and a sequence of grid calls: points on a quarter-cell
    lattice (cell faces, exact ties) or anywhere, negative included, in
    a box of 4x4x4 cells; few ids, so cells hold several, and re-adds
    and removals of present ids are common."""
    cell = draw(st.sampled_from([1.0, 2.0, 0.75]))
    lattice = st.integers(-8, 8).map(lambda k: k * cell / 4.0)
    coord = lattice | st.floats(-2.0 * cell, 2.0 * cell, allow_nan=False)
    point = st.tuples(coord, coord, coord)
    radius = st.sampled_from([cell / 4.0, cell / 2.0, cell, 1.5 * cell]) \
        | st.floats(0.05 * cell, 2.5 * cell)
    vid = st.integers(0, 15)
    add = st.tuples(st.just("add"), vid, point)
    call = st.one_of(
        add,
        st.tuples(st.just("remove"), vid),
        st.tuples(st.just("query"), point, radius, st.integers(-1, 15)),
        st.tuples(st.just("many"), st.lists(point, max_size=8), radius),
    )
    return cell, (draw(st.lists(add, min_size=8, max_size=24))
                  + draw(st.lists(call, min_size=1, max_size=40)))


@needs_accel
@settings(max_examples=200, deadline=None)
@given(_calls())
def test_c_grid_answers_as_the_reference(case):
    cell, calls = case
    c, ref = AccelGrid(cell), ReferenceGrid(cell)
    for op, *args in calls:
        if op == "add":
            c.add(*args)
            ref.add(*args)
        elif op == "remove":
            c.remove(*args)
            ref.remove(*args)
        elif op == "query":
            p, r, exclude = args
            assert c.query_ball(p, r) == ref.query_ball(p, r)
            assert c.any_within(p, r) == ref.any_within(p, r)
            assert c.any_within(p, r, exclude) == \
                ref.any_within(p, r, exclude)
        else:
            pts, r = args
            z = np.array(pts, dtype=np.float64).reshape(-1, 3)
            lanes = c.any_within_many(z, r).tolist()
            assert lanes == ref.any_within_many(z, r).tolist()
            assert lanes == [ref.any_within(p, r) for p in pts]
        assert len(c) == len(ref)
        assert [v in c for v in range(16)] == [v in ref for v in range(16)]
