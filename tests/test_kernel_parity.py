"""Bit-parity goldens for the hot-path kernel overhaul.

The filtered predicates, the array-backed mesh storage, and the C
insertion accelerator are all required to produce *exactly* the same
meshes as the original pure-Python kernel.  These tests replay seeded
workloads against topology hashes recorded with the pre-overhaul code
(``tests/data/kernel_parity.json``) and additionally check that the
accelerated and pure-Python paths agree with each other.

The hash is order-independent: the sorted multiset of sorted tet vertex
tuples, so it pins the topology without depending on slot numbering.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro import _accel
from repro.delaunay import Triangulation3D
from repro.delaunay.triangulation import RemovalError

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "kernel_parity.json")
    .read_text()
)


def topo_hash(mesh):
    tets = sorted(
        tuple(sorted(mesh.tet_verts_arr[t].tolist()))
        for t in mesh.live_tets()
    )
    blob = ";".join(",".join(map(str, t)) for t in tets).encode()
    return hashlib.sha256(blob).hexdigest()


def replay_insert(seed, n_points, lo=0.02, hi=0.98):
    rng = random.Random(seed)
    tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    hint = None
    for _ in range(n_points):
        p = tuple(rng.uniform(lo, hi) for _ in range(3))
        _, ntets, _ = tri.insert_point(p, hint)
        hint = ntets[0]
    return tri


def replay_insert_many(seed, n_points, lo=0.02, hi=0.98):
    rng = random.Random(seed)
    pts = [
        tuple(rng.uniform(lo, hi) for _ in range(3))
        for _ in range(n_points)
    ]
    tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    inserted = tri.insert_many(pts)
    return tri, sum(1 for v in inserted if v is not None)


def replay_insert_remove(case, lo=0.05, hi=0.95):
    rng = random.Random(case["seed"])
    tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    verts = []
    hint = None
    for _ in range(case["n_points"]):
        p = tuple(rng.uniform(lo, hi) for _ in range(3))
        v, ntets, _ = tri.insert_point(p, hint)
        verts.append(v)
        hint = ntets[0]
    order = list(verts)
    random.Random(5).shuffle(order)
    removed = 0
    for v in order[:80]:
        try:
            tri.remove_vertex(v)
            removed += 1
        except RemovalError:
            pass
    return tri, removed


# Every ctypes entry point the kernel dispatches on; disabling the
# accelerator for a parity run must null all of them.
ALL_ACCEL_HANDLES = ("bw_insert", "bw_commit", "bw_insert_many", "bw_remove")


def disable_accel(monkeypatch):
    for name in ALL_ACCEL_HANDLES:
        monkeypatch.setattr(_accel, name, None)


class TestInsertGoldens:
    @pytest.mark.parametrize(
        "case", GOLDEN["insert"], ids=lambda c: f"seed{c['seed']}"
    )
    def test_topology_matches_pre_overhaul_kernel(self, case):
        tri = replay_insert(case["seed"], case["n_points"])
        assert tri.n_vertices == case["n_vertices"]
        assert tri.n_tets == case["n_tets"]
        assert topo_hash(tri.mesh) == case["topology_sha256"]
        tri.validate_topology()

    def test_result_is_delaunay(self):
        case = GOLDEN["insert"][-1]  # smallest workload
        tri = replay_insert(case["seed"], case["n_points"])
        assert tri.is_delaunay()


class TestInsertRemoveGolden:
    def test_insert_remove_topology(self):
        case = GOLDEN["insert_remove"]
        tri, removed = replay_insert_remove(case)
        assert removed == case["n_removed"]
        assert tri.n_vertices == case["n_vertices"]
        assert tri.n_tets == case["n_tets"]
        assert topo_hash(tri.mesh) == case["topology_sha256"]
        tri.validate_topology()


class TestBatchedInsertGoldens:
    """``insert_many`` must produce the same topology as the scalar
    hint-chained loop the insert goldens pin — on both kernel paths."""

    @pytest.mark.parametrize(
        "case", GOLDEN["insert_many"], ids=lambda c: f"seed{c['seed']}"
    )
    def test_batched_topology_matches_golden(self, case):
        tri, n_ok = replay_insert_many(case["seed"], case["n_points"])
        assert n_ok == case["n_inserted"]
        assert tri.n_vertices == case["n_vertices"]
        assert tri.n_tets == case["n_tets"]
        assert topo_hash(tri.mesh) == case["topology_sha256"]
        tri.validate_topology()

    def test_python_path_reproduces_goldens(self, monkeypatch):
        disable_accel(monkeypatch)
        case = GOLDEN["insert_many"][-1]
        tri, n_ok = replay_insert_many(case["seed"], case["n_points"])
        assert n_ok == case["n_inserted"]
        assert topo_hash(tri.mesh) == case["topology_sha256"]
        assert tri.counters.accel_batch_inserts == 0

    def test_batched_matches_scalar_golden(self):
        # The batched path changes walk seeds (each insert walks from
        # the previous insert's first new tet inside C) but cavity
        # membership is geometric, so the topology hash must equal the
        # scalar insert golden for the same seed.
        batched = {c["seed"]: c for c in GOLDEN["insert_many"]}
        scalar = {c["seed"]: c for c in GOLDEN["insert"]}
        for seed, case in batched.items():
            assert case["topology_sha256"] == \
                scalar[seed]["topology_sha256"]

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_batch_kernel_engaged(self):
        case = GOLDEN["insert_many"][0]
        tri, _ = replay_insert_many(case["seed"], case["n_points"])
        c = tri.counters
        # nearly everything rides a batch; crossings stay amortised
        assert c.accel_batch_inserts > case["n_points"] * 0.9
        assert c.accel_batch_calls <= 10


class TestRemovalParity:
    """The C removal kernel and the Python gift-wrap fill must agree."""

    def test_python_path_reproduces_golden(self, monkeypatch):
        disable_accel(monkeypatch)
        case = GOLDEN["insert_remove"]
        tri, removed = replay_insert_remove(case)
        assert removed == case["n_removed"]
        assert topo_hash(tri.mesh) == case["topology_sha256"]
        assert tri.counters.accel_removals == 0

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_removal_kernel_engaged(self):
        case = GOLDEN["insert_remove"]
        tri, removed = replay_insert_remove(case)
        c = tri.counters
        assert c.accel_removals > removed * 0.8
        assert c.accel_remove_retries < removed // 5 + 2

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_both_removal_paths_agree_off_golden(self, monkeypatch):
        case = {"seed": 77, "n_points": 180}
        fast, fast_removed = replay_insert_remove(case)
        disable_accel(monkeypatch)
        slow, slow_removed = replay_insert_remove(case)
        assert fast_removed == slow_removed
        assert fast.n_vertices == slow.n_vertices
        assert fast.n_tets == slow.n_tets
        assert topo_hash(fast.mesh) == topo_hash(slow.mesh)


class TestRefineGoldens:
    @pytest.mark.parametrize(
        "case", GOLDEN["refine"], ids=lambda c: c["phantom"]
    )
    def test_refinement_matches_pre_overhaul_kernel(self, case):
        from repro.api import MeshRequest, mesh as api_mesh
        from repro.imaging import sphere_phantom

        size = int(case["phantom"].removeprefix("sphere"))
        res = api_mesh(MeshRequest(
            image=sphere_phantom(size), delta=case["delta"],
            mesher="sequential", max_operations=500_000,
        ))
        dom = res.extras["domain"]
        assert dom.tri.n_vertices == case["tri_vertices"]
        assert dom.tri.n_tets == case["tri_tets"]
        assert res.n_vertices == case["mesh_vertices"]
        assert res.n_tets == case["mesh_tets"]
        assert topo_hash(dom.tri.mesh) == case["topology_sha256"]


class TestAcceleratorParity:
    """The C fast path and the pure-Python path must be bit-identical."""

    def test_python_path_reproduces_goldens(self, monkeypatch):
        monkeypatch.setattr(_accel, "bw_insert", None)
        case = GOLDEN["insert"][-1]  # smallest workload: pure Python
        tri = replay_insert(case["seed"], case["n_points"])
        assert tri.n_vertices == case["n_vertices"]
        assert tri.n_tets == case["n_tets"]
        assert topo_hash(tri.mesh) == case["topology_sha256"]
        assert tri.counters.accel_inserts == 0

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_accelerator_actually_engaged(self):
        tri = replay_insert(31, 120)
        c = tri.counters
        assert c.accel_inserts > 100
        # A handful of RETRYs (near-degenerate configurations) is fine;
        # wholesale fallback is not.
        assert c.accel_retries < c.accel_inserts // 10

    @pytest.mark.skipif(
        not _accel.AVAILABLE, reason="C accelerator unavailable"
    )
    def test_both_paths_agree_off_golden(self, monkeypatch):
        # A workload not in the golden file: compare the two paths
        # directly against each other.
        fast = replay_insert(4242, 180, lo=0.05, hi=0.95)
        monkeypatch.setattr(_accel, "bw_insert", None)
        slow = replay_insert(4242, 180, lo=0.05, hi=0.95)
        assert fast.n_vertices == slow.n_vertices
        assert fast.n_tets == slow.n_tets
        assert topo_hash(fast.mesh) == topo_hash(slow.mesh)


class TestExactFallbackBudget:
    def test_sphere_phantom_exact_fraction_under_5_percent(self):
        from repro.api import MeshRequest, mesh as api_mesh
        from repro.geometry.predicates import STATS
        from repro.imaging import sphere_phantom

        before = STATS.snapshot()
        api_mesh(MeshRequest(
            image=sphere_phantom(12), delta=3.0,
            mesher="sequential", max_operations=500_000,
        ))
        d = STATS.delta_since(before)
        decisions = (d.get("orient3d_calls", 0) + d.get("insphere_calls", 0)
                     + d.get("cc_tests", 0) + d.get("batch_items", 0))
        exact = (d.get("orient3d_exact", 0) + d.get("insphere_exact", 0)
                 + d.get("batch_exact", 0))
        assert decisions > 0
        assert exact / decisions < 0.05
