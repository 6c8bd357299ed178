"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.cli import main


@pytest.fixture()
def img_path(tmp_path):
    path = str(tmp_path / "img.npz")
    assert main(["phantom", "sphere", "-n", "16", "-o", path]) == 0
    return path


class TestPhantomCommand:
    def test_all_kinds(self, tmp_path):
        for kind in ("sphere", "shell", "two-spheres", "abdominal",
                     "knee", "head-neck"):
            out = str(tmp_path / f"{kind}.npz")
            assert main(["phantom", kind, "-n", "12", "-o", out]) == 0
            assert os.path.exists(out)

    def test_output_loadable(self, img_path):
        from repro.io import load_image_npz

        img = load_image_npz(img_path)
        assert img.n_labels == 1


class TestMeshCommand:
    def test_sequential_mesh(self, img_path, capsys):
        assert main(["mesh", img_path, "--delta", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "tets in" in out
        assert "maxRE" in out

    def test_vtk_output(self, img_path, tmp_path):
        out = str(tmp_path / "m.vtk")
        assert main(["mesh", img_path, "--delta", "3.0", "-o", out]) == 0
        assert open(out).readline().startswith("# vtk")

    def test_off_output(self, img_path, tmp_path):
        out = str(tmp_path / "m.off")
        assert main(["mesh", img_path, "--delta", "3.0", "-o", out]) == 0
        assert open(out).readline().strip() == "OFF"

    def test_tetgen_output(self, img_path, tmp_path):
        base = str(tmp_path / "m")
        assert main(["mesh", img_path, "--delta", "3.0", "-o", base]) == 0
        assert os.path.exists(base + ".node")
        assert os.path.exists(base + ".ele")

    def test_threaded_mesh(self, img_path, capsys):
        assert main(["mesh", img_path, "--delta", "3.0",
                     "--mesher", "threaded", "--threads", "2"]) == 0
        assert "rollbacks" in capsys.readouterr().out

    def test_threads_alone_stay_sequential(self, img_path, capsys):
        assert main(["mesh", img_path, "--delta", "3.0",
                     "--threads", "2"]) == 0
        assert "rules=" in capsys.readouterr().out


class TestSimulateCommand:
    def test_simulation_runs(self, img_path, capsys):
        rc = main(["simulate", img_path, "--threads", "4",
                   "--delta", "3.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "elements/s" in out
        assert "[ok]" in out

    def test_lb_choice(self, img_path):
        assert main(["simulate", img_path, "--threads", "4",
                     "--delta", "3.0", "--lb", "rws"]) == 0


class TestReportCommand:
    def test_report(self, img_path, capsys):
        assert main(["report", img_path, "--delta", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "hausdorff=" in out
        assert "elements per tissue" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_phantom_kind(self):
        with pytest.raises(SystemExit):
            main(["phantom", "unicorn", "-o", "x.npz"])


class TestShowCommand:
    def test_show_slice(self, img_path, capsys):
        assert main(["show", img_path]) == 0
        out = capsys.readouterr().out
        assert "slice axis=2" in out
        assert "#" in out

    def test_show_axis(self, img_path, capsys):
        assert main(["show", img_path, "--axis", "0", "--slice", "8"]) == 0
        assert "axis=0" in capsys.readouterr().out


class TestReportHistograms:
    def test_histograms_flag(self, img_path, capsys):
        assert main(["report", img_path, "--delta", "3.0",
                     "--histograms"]) == 0
        out = capsys.readouterr().out
        assert "min dihedral" in out
        assert "radius-edge" in out
        assert "validation: OK" in out


class TestSimulateUtilization:
    def test_utilization_flag(self, img_path, capsys):
        rc = main(["simulate", img_path, "--threads", "4",
                   "--delta", "3.0", "--utilization"])
        assert rc == 0
        assert "utilization over" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_mesh_metrics_out(self, img_path, tmp_path):
        import json

        mpath = str(tmp_path / "metrics.json")
        assert main(["mesh", img_path, "--delta", "3.0",
                     "--metrics-out", mpath]) == 0
        doc = json.load(open(mpath))
        assert doc["counters"]["refine.operations"] > 0
        assert doc["gauges"]["run.elements_per_second"] > 0
        assert doc["run"]["mesher"] == "sequential"

    def test_mesh_trace_out(self, img_path, tmp_path):
        import json

        tpath = str(tmp_path / "trace.json")
        assert main(["mesh", img_path, "--delta", "3.0",
                     "--trace-out", tpath]) == 0
        doc = json.load(open(tpath))
        events = doc["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert "X" in phases  # per-operation complete events
        assert all("ts" in e for e in events if e["ph"] != "M")

    def test_simulate_metrics_have_overheads(self, img_path, tmp_path):
        import json

        mpath = str(tmp_path / "metrics.json")
        assert main(["simulate", img_path, "--threads", "4",
                     "--delta", "3.0", "--metrics-out", mpath]) == 0
        doc = json.load(open(mpath))
        assert "runtime.rollbacks" in doc["counters"]
        assert "runtime.overhead.contention_seconds" in doc["counters"]
        assert doc["gauges"]["run.threads"] == 4

    def test_missing_image_exits_2(self, tmp_path):
        assert main(["mesh", str(tmp_path / "nope.npz"),
                     "--delta", "3.0"]) == 2


class TestKernelStats:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_report_is_the_runs_published_gauges(self, tmp_path, capsys,
                                                 shards):
        # The report reads the run's kernel.* gauges, not the process's
        # predicate totals: a sharded run's blocks, and anything meshed
        # before it in the process, are not in it.
        import json

        img = str(tmp_path / "grid.npz")
        mpath = str(tmp_path / "metrics.json")
        assert main(["phantom", "ball-grid", "-n", "24", "-o", img]) == 0
        capsys.readouterr()
        assert main(["mesh", img, "--delta", "2.0", "--shards", str(shards),
                     "--kernel-stats", "--metrics-out", mpath]) == 0
        report = capsys.readouterr().out.split("kernel hot-path")[1]
        g = json.load(open(mpath))["gauges"]

        def row(label):
            line = next(ln for ln in report.splitlines() if label in ln)
            return line.split(label, 1)[1].split()

        p = "kernel.predicates."
        decisions = sum(g[p + n] for n in ("orient3d_calls", "insphere_calls",
                                           "cc_tests", "batch_items"))
        exact = sum(g[p + n] for n in ("orient3d_exact", "insphere_exact",
                                       "batch_exact"))
        assert int(row("locate calls")[0]) == g["kernel.locate_calls"]
        assert int(row("cavity searches")[0]) == g["kernel.cavity_calls"]
        assert int(row("accelerated removals")[0]) == \
            g["kernel.accel_removals"]
        assert int(row("predicate decisions")[0]) == decisions
        assert row("orient3d/insphere")[0] == (
            f"{g[p + 'orient3d_calls']}/{g[p + 'insphere_calls']}")
        assert int(row("exact fallbacks")[0]) == exact
