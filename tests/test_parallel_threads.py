"""Real-thread speculative refinement: correctness under true concurrency.

The GIL caps the speedup, so these tests assert *correctness* — the
final mesh passes the same validity/quality checks as a sequential run
— plus protocol liveness at small thread counts.
"""

import functools
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro import _accel
from repro.core import extract_mesh
from repro.core.domain import OperationResult, RefineDomain, VertexKind
from repro.core.refiner import SequentialRefiner
from repro.delaunay.triangulation import RemovalError, Triangulation3D
from repro.imaging import (
    abdominal_phantom,
    ball_grid_phantom,
    shell_phantom,
    sphere_phantom,
)
from repro.metrics import quality_report
from repro.metrics.validate import validate_extracted_mesh
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
    tets = sorted(tuple(sorted(mesh.tet_verts_arr[t].tolist()))
                  for t in mesh.live_tets())
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
tets = sorted(tuple(sorted(mesh.tet_verts_arr[t].tolist()))
              for t in mesh.live_tets())
blob = ";".join(",".join(map(str, t)) for t in tets).encode()
print(hashlib.sha256(blob).hexdigest())
"""


@functools.lru_cache(maxsize=None)
def _python_kernel_hash():
    """Topology hash of the one-thread run in a ``REPRO_ACCEL=0``
    subprocess (run once; two tests compare against it)."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, REPRO_ACCEL="0", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINISM_SNIPPET],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestThreadedDeterminism:
    """The C commit must not change the threaded refiner's output: at
    one thread the schedule is deterministic, so the mesh with
    ``bw_commit`` engaged must be bit-identical (topology hash) to a
    ``REPRO_ACCEL=0`` run of the same workload."""

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_single_thread_matches_python_path(self):
        res = parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                  delta=3.0, seed=0, timeout=240.0)
        counters = res.domain.tri.counters
        # the C commit actually carried the commits...
        assert counters.commits > 0
        assert counters.accel_inserts > 0
        assert counters.mean_commit_seconds > 0.0
        # ...and produced the identical mesh.
        assert _topo_hash(res.domain.tri.mesh) == _python_kernel_hash()


def _assert_no_leaked_slots(mesh):
    """The free lists must exactly equal the dead slots: no duplicates
    (double free), no dead slot missing (leak), no live slot present
    (would be recycled while alive)."""
    free_t = list(mesh._free_tets)
    assert len(free_t) == len(set(free_t)), "duplicate tet free-list slot"
    dead_t = {t for t in range(mesh.tet_top)
              if mesh.tet_verts_arr[t, 0] < 0}
    assert set(free_t) == dead_t, (
        f"tet free list diverges from dead set: "
        f"leaked={sorted(dead_t - set(free_t))[:8]} "
        f"bogus={sorted(set(free_t) - dead_t)[:8]}"
    )
    free_v = list(mesh._free_verts)
    assert len(free_v) == len(set(free_v)), "duplicate vert free-list slot"
    dead_v = {v for v in range(len(mesh.points))
              if not mesh.alive_vertex[v]}
    assert set(free_v) == dead_v, "vert free list diverges from dead set"
    assert mesh.tet_top == len(mesh.tet_epoch)


class TestBallGridStress:
    """4- and 8-thread refinement of a grid of balls (many independent
    hot regions) on 2 vCPUs: every commit shares one allocator under the
    commit lock, so a lost update shows as a leaked or doubly freed
    slot."""

    @pytest.fixture(scope="class")
    def img(self):
        return ball_grid_phantom(20, side=2)

    @pytest.mark.parametrize("n_threads", [4, 8])
    def test_stress_invariants(self, img, n_threads):
        # A short switch interval puts thread switches inside the lock,
        # walk and commit sequences instead of between operations.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res = parallel_mesh_image(img, n_threads=n_threads, delta=1.5,
                                      seed=1, timeout=240.0)
        finally:
            sys.setswitchinterval(interval)
        tri = res.domain.tri
        tri.validate_topology()
        q = quality_report(res.mesh)
        assert q.max_radius_edge <= 2.0 + 1e-6
        assert res.mesh.n_tets > 100
        _assert_no_leaked_slots(tri.mesh)

    def test_live_count_consistent(self, img):
        res = parallel_mesh_image(img, n_threads=4, delta=2.0,
                                  seed=2, timeout=240.0)
        mesh = res.domain.tri.mesh
        assert mesh.n_live_tets == sum(
            1 for _ in mesh.live_tets()
        )

    def test_commit_wait_split_populated(self, img):
        res = parallel_mesh_image(img, n_threads=4, delta=2.0,
                                  seed=3, timeout=240.0)
        c = res.domain.tri.counters
        assert c.commits > 0
        # split timers: both halves move, and the legacy total is the sum
        assert c.commit_work_seconds > 0.0
        assert c.commit_wait_seconds >= 0.0
        assert c.commit_seconds == pytest.approx(
            c.commit_wait_seconds + c.commit_work_seconds
        )
        snap = c.snapshot()
        assert "commit_wait_seconds" in snap
        assert "commit_work_seconds" in snap


class TestSingleThreadParity:
    """One thread is a deterministic run of the worker loop: it ends at
    a fixed point of the rules with a canonical allocator state (free
    lists whole, no slot beyond the tail), and is the same mesh with and
    without the accelerator.  The sequential refiner walks generations
    behind a screen and is not the same schedule by construction, so it
    is held to the same contract, not to the same topology."""

    @staticmethod
    def _assert_fixed_point(domain):
        before = _topo_hash(domain.tri.mesh)
        for t in list(domain.tri.mesh.live_tets()):
            assert domain.refine_tet(t).skipped
        assert _topo_hash(domain.tri.mesh) == before

    def test_one_thread_and_sequential_end_canonical(self):
        res = parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                  delta=3.0, seed=0, timeout=240.0)
        dom = RefineDomain(sphere_phantom(12), delta=3.0)
        SequentialRefiner(dom).refine()
        for domain in (res.domain, dom):
            _assert_no_leaked_slots(domain.tri.mesh)
            self._assert_fixed_point(domain)
            mesh = extract_mesh(domain)
            assert validate_extracted_mesh(mesh) == []
            assert quality_report(mesh).max_radius_edge <= 2.0 + 1e-9

        again = parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                    delta=3.0, seed=0, timeout=240.0)
        assert _topo_hash(again.domain.tri.mesh) == \
            _topo_hash(res.domain.tri.mesh)

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_one_thread_run_is_the_same_without_accel(self):
        """The one-thread mesh does not depend on the kernel: the
        pure-Python path (REPRO_ACCEL=0) builds the same topology and
        ends in the same canonical allocator state."""
        res = parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                  delta=3.0, seed=0, timeout=240.0)
        _assert_no_leaked_slots(res.domain.tri.mesh)
        assert _topo_hash(res.domain.tri.mesh) == _python_kernel_hash()


class TestRecycledVertexSlot:
    """Every thread allocates from the one free list, so the slot a
    removal frees can hold a peer's new vertex before the remover is
    back in its rule code.  Played here on one thread: the peer's
    insertion runs the moment the removal returns."""

    def test_peer_registration_survives_the_removal_that_freed_the_slot(
            self, monkeypatch):
        domain = RefineDomain(sphere_phantom(12), delta=3.0)
        SequentialRefiner(domain).refine()
        mesh = domain.tri.mesh
        victim = next(v for v, kind in domain.vertex_kind.items()
                      if kind == VertexKind.CIRCUMCENTER)
        z = mesh.points[victim]
        remove = Triangulation3D.remove_vertex
        peers = []

        def remove_then_peer_inserts(tri, v, **kwargs):
            p = mesh.points[v]
            out = remove(tri, v, **kwargs)
            w, _, _ = tri.insert_point(p)
            assert w == v  # handed the slot just freed
            domain.register_vertex(w, p, VertexKind.ISOSURFACE)
            peers.append(w)
            return out

        monkeypatch.setattr(Triangulation3D, "remove_vertex",
                            remove_then_peer_inserts)
        result = OperationResult(rule="R1")
        domain.apply_r6(z, -1, result)
        assert victim in result.removed_vertices and peers
        for w in peers:
            assert domain.vertex_kind[w] == VertexKind.ISOSURFACE
            assert w in domain.iso_grid and w not in domain.cc_grid
