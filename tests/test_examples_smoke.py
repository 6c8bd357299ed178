"""Smoke tests: every shipped example runs to completion.

Run via subprocess with small arguments so docs never rot.
"""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).parent.parent
EXAMPLES = REPO / "examples"


def run_example(name, args, tmp_path, timeout=240):
    env = dict(os.environ)
    # Make `repro` importable in the child even without an installed
    # package (the test-runner itself may be using PYTHONPATH=src).
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,  # examples write output files into cwd
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self, tmp_path):
        out = run_example("quickstart.py", ["20", "3.0"], tmp_path)
        assert "elements" in out
        assert (tmp_path / "quickstart_mesh.vtk").exists()
        assert (tmp_path / "quickstart_surface.off").exists()

    def test_multi_tissue_abdominal(self, tmp_path):
        out = run_example("multi_tissue_abdominal.py", ["28"], tmp_path)
        assert "Per-tissue elements" in out
        assert "Recovered interfaces" in out
        assert (tmp_path / "abdominal_mesh.vtk").exists()

    def test_parallel_scaling_demo(self, tmp_path):
        out = run_example("parallel_scaling_demo.py", ["18", "3.0"],
                          tmp_path, timeout=400)
        assert "Simulated strong scaling" in out
        assert "rollbacks" in out

    def test_contention_managers_demo(self, tmp_path):
        out = run_example("contention_managers_demo.py", ["8"], tmp_path,
                          timeout=400)
        assert "aggressive" in out and "local" in out

    def test_mesher_comparison(self, tmp_path):
        out = run_example("mesher_comparison.py", ["20"], tmp_path,
                          timeout=400)
        assert "PI2M" in out and "CGAL-like" in out and "TetGen-like" in out
