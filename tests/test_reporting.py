"""Tests for the ASCII table reporting used by the benchmarks."""

import pytest

from repro.reporting import Table, format_si


class TestFormatSI:
    def test_basic(self):
        assert format_si(1.32e9) == "1.32E+09"
        assert format_si(1.07e7) == "1.07E+07"

    def test_digits(self):
        assert format_si(123456.0, digits=1) == "1.2E+05"


class TestTable:
    def test_render_alignment(self):
        t = Table("Demo", ["a", "bb", "ccc"])
        t.add_row([1, 22, 333])
        t.add_row([4444, 5, 6])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "Demo"
        assert "a" in lines[1] and "bb" in lines[1]
        # column separator alignment: all data rows have equal length
        assert len(lines[3]) == len(lines[4])

    def test_wrong_cell_count_raises(self):
        t = Table("x", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_float_formatting(self):
        t = Table("x", ["v"])
        t.add_row([0.5])
        t.add_row([1.5e9])
        t.add_row([1e-5])
        out = t.render()
        assert "0.50" in out
        assert "1.50E+09" in out
        assert "1.00E-05" in out

    def test_mixed_types(self):
        t = Table("x", ["a", "b"])
        t.add_row(["yes", 42])
        assert "yes" in t.render()


class TestSizing:
    def test_unconstrained(self):
        import math

        from repro.core.sizing import unconstrained

        sf = unconstrained().bind(None)
        assert sf((0, 0, 0)) == math.inf

    def test_constant(self):
        from repro.core.sizing import constant

        sf = constant(2.5).bind(None)
        assert sf((1, 2, 3)) == 2.5
        with pytest.raises(ValueError):
            constant(0.0)

    def test_radial_grading(self):
        from repro.core.sizing import radial

        sf = radial((0, 0, 0), near=1.0, far=5.0, radius=10.0).bind(None)
        assert sf((0, 0, 0)) == pytest.approx(1.0)
        assert sf((10, 0, 0)) == pytest.approx(5.0)
        assert sf((100, 0, 0)) == pytest.approx(5.0)
        mid = sf((5, 0, 0))
        assert 1.0 < mid < 5.0

    def test_radial_validation(self):
        from repro.core.sizing import radial

        with pytest.raises(ValueError):
            radial((0, 0, 0), near=-1.0, far=5.0, radius=10.0)
