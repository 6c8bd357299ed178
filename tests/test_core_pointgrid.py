"""Tests for the spatial hash grid behind the delta-proximity rules."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pointgrid import PointGrid


class TestPointGrid:
    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            PointGrid(0.0)

    def test_add_query(self):
        g = PointGrid(1.0)
        g.add(1, (0.0, 0.0, 0.0))
        g.add(2, (5.0, 0.0, 0.0))
        assert sorted(g.query_ball((0.1, 0, 0), 1.0)) == [1]
        assert sorted(g.query_ball((2.5, 0, 0), 3.0)) == [1, 2]
        assert g.query_ball((10, 10, 10), 1.0) == []

    def test_queries_survive_a_thread_adding_to_the_cell(self):
        """Refinement threads share the grids: one judges a tet (R1's
        ``any_within``, R6's ``query_ball``) while another registers a
        vertex in the same cell."""
        g = PointGrid(10.0)
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
                    g.query_ball((1.0, 1.0, 1.0), 5.0)
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

    def test_negative_coordinates(self):
        g = PointGrid(0.7)
        g.add(1, (-3.3, -0.1, -9.9))
        assert g.query_ball((-3.3, -0.1, -9.9), 0.01) == [1]

    def test_remove(self):
        g = PointGrid(1.0)
        g.add(1, (0, 0, 0))
        g.remove(1)
        assert g.query_ball((0, 0, 0), 2.0) == []
        assert len(g) == 0
        g.remove(1)  # idempotent

    def test_re_add_moves(self):
        g = PointGrid(1.0)
        g.add(1, (0, 0, 0))
        g.add(1, (5, 5, 5))
        assert g.query_ball((0, 0, 0), 1.0) == []
        assert g.query_ball((5, 5, 5), 0.5) == [1]
        assert len(g) == 1

    def test_contains(self):
        g = PointGrid(1.0)
        g.add(7, (1, 2, 3))
        assert 7 in g
        assert 8 not in g

    def test_any_within_exclude(self):
        g = PointGrid(1.0)
        g.add(1, (0, 0, 0))
        assert g.any_within((0.1, 0, 0), 0.5)
        assert not g.any_within((0.1, 0, 0), 0.5, exclude=1)

    def test_boundary_radius_closed(self):
        g = PointGrid(1.0)
        g.add(1, (1.0, 0.0, 0.0))
        assert g.query_ball((0, 0, 0), 1.0) == [1]


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
