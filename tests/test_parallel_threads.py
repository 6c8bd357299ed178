"""Real-thread speculative refinement: correctness under true concurrency.

The GIL caps the speedup, so these tests assert *correctness* — the
final mesh passes the same validity/quality checks as a sequential run
— plus protocol liveness at small thread counts.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro import _accel
from repro.delaunay.triangulation import RemovalError, Triangulation3D
from repro.imaging import abdominal_phantom, shell_phantom, sphere_phantom
from repro.metrics import quality_report
from repro.parallel import _parallel_mesh_image as parallel_mesh_image


@pytest.fixture(scope="module")
def img():
    return sphere_phantom(20)


class TestParallelThreads:
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_mesh_valid(self, img, n_threads):
        res = parallel_mesh_image(img, n_threads=n_threads, delta=3.0,
                                  timeout=240.0)
        res.domain.tri.validate_topology()
        assert res.domain.tri.is_delaunay(tol_exhaustive=3_000_000)
        assert res.mesh.n_tets > 50

    def test_quality_bounds_hold(self, img):
        res = parallel_mesh_image(img, n_threads=4, delta=2.5, timeout=240.0)
        q = quality_report(res.mesh)
        assert q.max_radius_edge <= 2.0 + 1e-6

    @pytest.mark.parametrize("cm", ["random", "global", "local"])
    def test_contention_managers(self, img, cm):
        res = parallel_mesh_image(img, n_threads=4, delta=3.0, cm=cm,
                                  timeout=240.0)
        assert res.mesh.n_tets > 50

    def test_hws_balancer(self, img):
        from repro.runtime.placement import Placement

        placement = Placement(n_threads=4, cores_per_socket=2,
                              sockets_per_blade=2)
        res = parallel_mesh_image(img, n_threads=4, delta=3.0, lb="hws",
                                  placement=placement, timeout=240.0)
        assert res.mesh.n_tets > 50

    def test_multi_tissue_parallel(self):
        res = parallel_mesh_image(shell_phantom(20), n_threads=4, delta=3.0,
                                  timeout=240.0)
        assert set(res.mesh.tet_labels.tolist()) == {1, 2}

    def test_stats_collected(self, img):
        res = parallel_mesh_image(img, n_threads=4, delta=3.0, timeout=240.0)
        assert res.totals["operations"] > 0
        assert res.wall_time > 0
        assert len(res.thread_stats) == 4

    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_no_fill_refused_for_its_volume(self, monkeypatch, n_threads):
        # The ball's volume travels with the call.  While it lived on
        # the triangulation, two workers removing disjoint balls
        # overwrote each other's and correct fills were refused (16-36 a
        # run on this image), leaving the R6 victim in place.
        refused = []
        verify = Triangulation3D._verify_fill

        def recording(tri, *args):
            try:
                verify(tri, *args)
            except RemovalError as exc:
                refused.append(str(exc))
                raise

        monkeypatch.setattr(Triangulation3D, "_verify_fill", recording)
        res = parallel_mesh_image(abdominal_phantom(40), n_threads=n_threads,
                                  timeout=240.0)
        assert res.domain.n_removals > 0
        assert [m for m in refused if "volume" in m] == []


def _topo_hash(mesh):
    tets = sorted(
        tuple(sorted(mesh.tet_verts[t])) for t in mesh.live_tets()
    )
    blob = ";".join(",".join(map(str, t)) for t in tets).encode()
    return hashlib.sha256(blob).hexdigest()


_DETERMINISM_SNIPPET = """
import hashlib
from repro.imaging import sphere_phantom
from repro.parallel.threaded import _parallel_mesh_image
from repro import _accel
assert _accel.bw_insert is None, "REPRO_ACCEL=0 must disable the accel"
res = _parallel_mesh_image(sphere_phantom(12), n_threads=1, delta=3.0,
                           seed=0, timeout=240.0)
mesh = res.domain.tri.mesh
tets = sorted(tuple(sorted(mesh.tet_verts[t])) for t in mesh.live_tets())
blob = ";".join(",".join(map(str, t)) for t in tets).encode()
print(hashlib.sha256(blob).hexdigest())
"""


class TestThreadedDeterminism:
    """The two-phase C fast path must not change the threaded refiner's
    output: at one thread the schedule is deterministic, so the mesh
    with the C commit engaged must be bit-identical (topology hash) to
    a ``REPRO_ACCEL=0`` run of the same workload."""

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_single_thread_matches_python_path(self):
        from repro.parallel.threaded import _parallel_mesh_image

        res = _parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                   delta=3.0, seed=0, timeout=240.0)
        counters = res.domain.tri.counters
        # the C fast path actually carried the commits...
        assert counters.commits > 0
        assert counters.accel_inserts > 0
        assert counters.mean_commit_seconds > 0.0
        accel_hash = _topo_hash(res.domain.tri.mesh)

        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, REPRO_ACCEL="0", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        python_hash = proc.stdout.strip().splitlines()[-1]
        # ...and produced the identical mesh.
        assert accel_hash == python_hash
