"""Micro-benchmarks of the kernels the paper's performance rests on.

These are conventional pytest-benchmark measurements (multiple rounds):

* Bowyer-Watson insertion throughput;
* vertex removal throughput (the operation no other parallel Delaunay
  refiner supports);
* the EDT pre-processing step;
* the try-lock primitive (the paper's Section 4.2 atomic-builtin note).

``test_bench_insertion_json_artifact`` additionally runs the insertion
workload through both kernel paths (pure Python and the C accelerator)
via :mod:`benchmarks.kernel_bench` and checks the document it writes;
the committed ``benchmarks/results/BENCH_kernels.json`` is a perf record
that only ``python benchmarks/kernel_bench.py`` replaces.
"""

import json
import random

import pytest

from repro.delaunay import Triangulation3D
from repro.imaging import sphere_phantom
from repro.imaging.edt import euclidean_feature_transform


@pytest.mark.benchmark(group="kernel-insert")
def test_bench_insertion_throughput(benchmark):
    rng = random.Random(7)
    points = [
        tuple(rng.uniform(0.02, 0.98) for _ in range(3)) for _ in range(400)
    ]

    def insert_all():
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        hint = None
        for p in points:
            _, ntets, _ = tri.insert_point(p, hint)
            hint = ntets[0]
        return tri.n_tets

    n_tets = benchmark(insert_all)
    assert n_tets > 1000


def test_bench_insertion_json_artifact(tmp_path):
    """Before/after insertion throughput as a machine-readable artifact."""
    from benchmarks import kernel_bench

    out = tmp_path / "BENCH_kernels.json"
    assert kernel_bench.run(fast=True, output=out) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 5
    assert "thread_scaling" not in doc
    assert doc["cpus"] >= 1
    assert doc["python_path"]["inserts_per_second"] > 0
    if doc["accel_path"]["available"]:
        assert doc["accel_path"]["inserts_per_second"] > \
            doc["python_path"]["inserts_per_second"]
    rays = doc["rays"]
    assert rays["same_answers"] and rays["workload"]["n_rays"] > 1000
    assert rays["batch_rays_per_second"] > rays["scalar_rays_per_second"]


@pytest.mark.benchmark(group="kernel-remove")
def test_bench_removal_throughput(benchmark):
    rng = random.Random(13)
    points = [
        tuple(rng.uniform(0.02, 0.98) for _ in range(3)) for _ in range(300)
    ]

    def setup():
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        verts = []
        hint = None
        for p in points:
            v, ntets, _ = tri.insert_point(p, hint)
            verts.append(v)
            hint = ntets[0]
        order = list(verts)
        rng2 = random.Random(5)
        rng2.shuffle(order)
        return (tri, order[:100]), {}

    def remove_some(tri, victims):
        for v in victims:
            tri.remove_vertex(v)
        return tri.n_tets

    n_tets = benchmark.pedantic(remove_some, setup=setup, rounds=5)
    assert n_tets > 0


@pytest.mark.benchmark(group="kernel-edt")
def test_bench_edt_sequential(benchmark):
    img = sphere_phantom(48)
    from repro.imaging.isosurface import surface_voxel_mask

    mask = surface_voxel_mask(img)
    res = benchmark(euclidean_feature_transform, mask, img.spacing)
    assert mask.reshape(-1)[res.feature.reshape(-1)].all()


@pytest.mark.benchmark(group="kernel-locks")
def test_bench_trylock_primitive(benchmark):
    """The dict.setdefault try-lock (role of GCC atomics, Section 4.2)."""
    table = {}

    def lock_unlock_cycle():
        for vid in range(2000):
            owner = table.setdefault(vid, 1)
            if owner == 1:
                del table[vid]
        return True

    assert benchmark(lock_unlock_cycle)
