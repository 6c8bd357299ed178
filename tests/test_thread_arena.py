"""Per-thread commit arenas: correctness under real multi-thread load.

The arenas replace the global commit lock, so these tests hammer the
allocator from many threads and then check the merged end state: mesh
invariants hold, no allocator slot is leaked or double-freed, and the
single-thread schedule ends where the rules say it must, with the same
mesh on either kernel (the arena fast path must be invisible at one
thread).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro import _accel
from repro.core import extract_mesh
from repro.core.domain import RefineDomain
from repro.core.refiner import SequentialRefiner
from repro.imaging import ball_grid_phantom, sphere_phantom
from repro.metrics import quality_report
from repro.metrics.validate import validate_extracted_mesh
from repro.parallel.threaded import _parallel_mesh_image


def _topo_hash(mesh):
    tets = sorted(
        tuple(sorted(mesh.tet_verts[t])) for t in mesh.live_tets()
    )
    blob = ";".join(",".join(map(str, t)) for t in tets).encode()
    return hashlib.sha256(blob).hexdigest()


def _assert_no_leaked_slots(mesh):
    """After the arena merge the free lists must exactly equal the dead
    slots: no duplicates (double free), no dead slot missing (leak),
    no live slot present (would be recycled while alive)."""
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
    # the trimmed tail is really trimmed: chunks do not dangle
    assert mesh.tet_top <= len(mesh.tet_epoch)


class TestBallGridStress:
    """4- and 8-thread refinement of a grid of balls (many independent
    hot regions — the workload the per-thread arenas are for)."""

    @pytest.fixture(scope="class")
    def img(self):
        return ball_grid_phantom(20, side=2)

    @pytest.mark.parametrize("n_threads", [4, 8])
    def test_stress_invariants(self, img, n_threads):
        res = _parallel_mesh_image(img, n_threads=n_threads, delta=1.5,
                                   seed=1, timeout=240.0)
        tri = res.domain.tri
        tri.validate_topology()
        q = quality_report(res.mesh)
        assert q.max_radius_edge <= 2.0 + 1e-6
        assert res.mesh.n_tets > 100
        _assert_no_leaked_slots(tri.mesh)

    def test_live_count_consistent_after_merge(self, img):
        res = _parallel_mesh_image(img, n_threads=4, delta=2.0,
                                   seed=2, timeout=240.0)
        mesh = res.domain.tri.mesh
        # live_delta batching must have been flushed back exactly
        assert mesh.n_live_tets == sum(
            1 for _ in mesh.live_tets()
        )

    def test_commit_wait_split_populated(self, img):
        res = _parallel_mesh_image(img, n_threads=4, delta=2.0,
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
        assert "rollbacks_optimistic" in snap
        assert "rollbacks_contention" in snap
        assert "rollbacks_validation" in snap


class TestSingleThreadParity:
    """One thread + arenas is a deterministic run of the worker loop: it
    ends at a fixed point of the rules with a canonical allocator state
    (tail trimmed, free lists whole), and is the same mesh with and
    without the accelerator.  The sequential refiner walks generations
    behind a screen and is no longer the same schedule by construction,
    so it is held to the same contract, not to the same topology."""

    @staticmethod
    def _assert_fixed_point(domain):
        before = _topo_hash(domain.tri.mesh)
        for t in list(domain.tri.mesh.live_tets()):
            assert domain.refine_tet(t).skipped
        assert _topo_hash(domain.tri.mesh) == before

    def test_one_thread_and_sequential_end_canonical(self):
        res = _parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                   delta=3.0, seed=0, timeout=240.0)
        dom = RefineDomain(sphere_phantom(12), delta=3.0)
        SequentialRefiner(dom).refine()
        for domain in (res.domain, dom):
            _assert_no_leaked_slots(domain.tri.mesh)
            self._assert_fixed_point(domain)
            mesh = extract_mesh(domain)
            assert validate_extracted_mesh(mesh) == []
            assert quality_report(mesh).max_radius_edge <= 2.0 + 1e-9

        again = _parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                     delta=3.0, seed=0, timeout=240.0)
        assert _topo_hash(again.domain.tri.mesh) == \
            _topo_hash(res.domain.tri.mesh)

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_one_thread_run_is_the_same_without_accel(self):
        """The one-thread mesh does not depend on the kernel: the
        pure-Python path (REPRO_ACCEL=0) builds the same topology, so
        the arena protocol is not an accelerator artifact."""
        res = _parallel_mesh_image(sphere_phantom(12), n_threads=1,
                                   delta=3.0, seed=0, timeout=240.0)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, REPRO_ACCEL="0", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _PARITY_SNIPPET],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == \
            _topo_hash(res.domain.tri.mesh)


_PARITY_SNIPPET = """
import hashlib
from repro import _accel
assert _accel.bw_insert is None, "REPRO_ACCEL=0 must disable the accel"
from repro.imaging import sphere_phantom
from repro.parallel.threaded import _parallel_mesh_image

def topo_hash(mesh):
    tets = sorted(tuple(sorted(mesh.tet_verts[t])) for t in mesh.live_tets())
    blob = ";".join(",".join(map(str, t)) for t in tets).encode()
    return hashlib.sha256(blob).hexdigest()

res = _parallel_mesh_image(sphere_phantom(12), n_threads=1, delta=3.0,
                           seed=0, timeout=240.0)
print(topo_hash(res.domain.tri.mesh))
"""


class TestArenaAllocator:
    """Unit-level checks of the chunk-claim protocol."""

    def test_chunk_extends_in_place_single_thread(self):
        from repro.delaunay.mesh import MeshArrays

        mesh = MeshArrays()
        arenas = mesh.begin_thread_arenas(1)
        mesh.adopt_alloc_arena(arenas[0])
        top0 = mesh.tet_top
        ids = [mesh.add_tet((0, 1, 2, 3)) for _ in range(10)]
        # fresh ids are exactly the sequential tail ids
        assert ids == list(range(top0, top0 + 10))
        mesh.end_thread_arenas(arenas)
        # merge trims the unused chunk remainder back to the tail
        assert mesh.tet_top == top0 + 10
        assert len(mesh.tet_epoch) == mesh.tet_top

    def test_arena_recycles_own_frees_first(self):
        from repro.delaunay.mesh import MeshArrays

        mesh = MeshArrays()
        arenas = mesh.begin_thread_arenas(2)
        mesh.adopt_alloc_arena(arenas[1])
        t = mesh.add_tet((0, 1, 2, 3))
        mesh.kill_tet(t)
        assert t in arenas[1].free_tets
        t2 = mesh.add_tet((0, 1, 2, 3))
        assert t2 == t  # LIFO reuse from the private free list
        mesh.end_thread_arenas(arenas)

    def test_merge_returns_leftovers_to_shared_lists(self):
        from repro.delaunay.mesh import MeshArrays

        mesh = MeshArrays()
        arenas = mesh.begin_thread_arenas(2)
        mesh.adopt_alloc_arena(arenas[0])
        t = mesh.add_tet((0, 1, 2, 3))
        mesh.kill_tet(t)
        mesh.end_thread_arenas(arenas)
        assert t in mesh._free_tets
        _assert_no_leaked_slots(mesh)
