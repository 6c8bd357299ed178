"""Domain-sharded meshing: decomposition, stitching, determinism.

The guarantees under test, in rough dependency order:

* :func:`repro.delaunay.shard.decompose` produces blocks whose cores
  tile the foreground bounding box, whose ownership boxes partition
  all of space, and whose crops stay inside the image;
* the sharded pipeline is deterministic — same image and shard count
  ⇒ identical mesh topology across runs;
* ``shards=1`` routes to the plain mesher and is bit-identical to an
  unsharded request;
* the stitched mesh satisfies the same radius-edge bound the unsharded
  mesh does (the paper's quality guarantee survives stitching);
* the service fans a sharded job out as ``<job>/s<k>`` sub-jobs over
  the process pool and re-runs a crashed shard without failing the
  job;
* ``repro.api.mesh`` and the service, under either executor, mesh the
  same bytes through the one coordinator; ``api.mesh`` starts no
  process and keeps no block cache, so a repeat request meshes the
  same bytes whatever was meshed in between.
"""

import json
import os

import numpy as np
import pytest

from repro import imaging
from repro.api import MeshRequest, mesh
from repro.core.refiner import SequentialRefiner
from repro.delaunay import arena as arena_mod
from repro.delaunay.shard import (
    ShardingUnavailable,
    band_width_voxels,
    block_content_key,
    decompose,
    mesh_sharded,
    resolve_delta,
)
from repro.imaging import (
    ball_grid_phantom,
    sphere_phantom,
    two_spheres_phantom,
)
from repro.metrics import quality_report
from repro.metrics.validate import validate_extracted_mesh
from repro.service import JobState, MeshingService, ServiceConfig
from repro.service.shards import pool_runner
from tests.data.record_stitch_goldens import (
    GOLDEN_PATH,
    KERNEL,
    cold_mesh,
    stitch_row,
)


def _topo(mesh_arrays):
    """Canonical topology signature of an extracted mesh.

    Coordinate-based: vertex ids are recycled and insertion order
    differs between a cold stitch and a warm (block-cache) stitch of
    the same point set, so each tet is identified by its sorted vertex
    coordinates rather than by ids.
    """
    v = np.asarray(mesh_arrays.vertices, dtype=np.float64)
    return sorted(
        tuple(sorted(map(tuple, v[np.asarray(tet, dtype=int)])))
        for tet in mesh_arrays.tets
    )


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

class TestDecompose:
    def test_cores_tile_foreground_bbox(self):
        img = two_spheres_phantom(28)
        plan = decompose(img, 4)
        assert 2 <= plan.n_blocks <= 4
        # Disjoint cores covering every foreground voxel exactly once.
        covered = np.zeros(img.shape, dtype=np.int32)
        for b in plan.blocks:
            covered[b.core_lo[0]:b.core_hi[0],
                    b.core_lo[1]:b.core_hi[1],
                    b.core_lo[2]:b.core_hi[2]] += 1
        assert covered.max() <= 1
        assert np.all(covered[img.labels > 0] == 1)

    def test_ownership_partitions_space(self):
        img = two_spheres_phantom(28)
        plan = decompose(img, 4)
        rng = np.random.default_rng(7)
        # Points far outside the image must be owned too (circumcenters
        # land there), hence the ±inf outer faces.
        pts = rng.uniform(-50.0, 80.0, size=(200, 3))
        for p in pts:
            assert sum(b.owns(p) for b in plan.blocks) == 1

    def test_crops_cover_core_plus_band(self):
        img = two_spheres_phantom(28)
        plan = decompose(img, 4)
        band = band_width_voxels(img, resolve_delta(img, None))
        assert plan.band_voxels == band
        for b in plan.blocks:
            assert b.occupancy > 0
            for d in range(3):
                assert 0 <= b.crop_lo[d] <= b.core_lo[d]
                assert b.core_hi[d] <= b.crop_hi[d] <= img.shape[d]
                # Band present unless clamped by the image edge.
                if b.core_lo[d] - band[d] >= 0:
                    assert b.core_lo[d] - b.crop_lo[d] == band[d]

    def test_empty_image_raises(self):
        img = sphere_phantom(12)
        empty = type(img)(
            np.zeros_like(img.labels), spacing=img.spacing,
            origin=img.origin,
        )
        with pytest.raises(ValueError):
            decompose(empty, 2)

    def test_deterministic_plan(self):
        img = two_spheres_phantom(24)
        a = decompose(img, 4)
        b = decompose(img, 4)
        assert [blk.core_lo for blk in a.blocks] == \
            [blk.core_lo for blk in b.blocks]
        assert a.seam_planes(img) == b.seam_planes(img)

    def test_one_block_is_unshardable(self):
        # A tiny blob cannot split: mesh_sharded signals fallback.
        img = sphere_phantom(10)
        plan = decompose(img, 4)
        if plan.n_blocks < 2:
            with pytest.raises(ShardingUnavailable):
                mesh_sharded(
                    MeshRequest(image=img, mesher="sequential", shards=4))

    def test_empty_foreground_is_unshardable(self):
        # mesh_sharded is the one place that decides the fallback; the
        # unsharded mesher then raises its canonical error.
        img = sphere_phantom(12)
        empty = type(img)(np.zeros_like(img.labels), spacing=img.spacing,
                          origin=img.origin)
        request = MeshRequest(image=empty, mesher="sequential", shards=2)
        with pytest.raises(ShardingUnavailable):
            mesh_sharded(request)
        with pytest.raises(ValueError) as sharded:
            mesh(request)
        with pytest.raises(ValueError) as plain:
            mesh(MeshRequest(image=empty, mesher="sequential"))
        assert str(sharded.value) == str(plain.value)


# ---------------------------------------------------------------------------
# stitched-mesh properties (in-process runner: no processes involved)
# ---------------------------------------------------------------------------

class TestStitchedMesh:
    @pytest.fixture(scope="class")
    def runs(self):
        img = two_spheres_phantom(24)
        plain = mesh(MeshRequest(image=img, mesher="sequential"))
        sharded = [
            mesh(MeshRequest(image=img, mesher="sequential", shards=4))
            for _ in range(2)
        ]
        return img, plain, sharded

    def test_sharded_stats_present(self, runs):
        _, _, sharded = runs
        stats = sharded[0].stats
        assert stats["shards"] >= 2
        assert stats["shard_plan"]["blocks"] == stats["shards"]
        assert stats["stitch"]["points_loaded"] > 0

    def test_same_shards_same_topology(self, runs):
        _, _, sharded = runs
        assert _topo(sharded[0].mesh) == _topo(sharded[1].mesh)
        # Same vertex set; the order may differ because the second run
        # warm-starts from the process-wide block cache (the cold run
        # interleaves Steiner insertions, the warm run bulk-loads).
        a = np.sort(sharded[0].mesh.vertices, axis=0)
        b = np.sort(sharded[1].mesh.vertices, axis=0)
        np.testing.assert_array_equal(a, b)

    def test_shards_one_bit_identical_to_unsharded(self, runs):
        img, plain, _ = runs
        one = mesh(MeshRequest(image=img, mesher="sequential", shards=1))
        assert one.mesh.vertices.tobytes() == plain.mesh.vertices.tobytes()
        assert one.mesh.tets.tobytes() == plain.mesh.tets.tobytes()

    def test_radius_edge_bound_preserved(self, runs):
        _, plain, sharded = runs
        bound = max(2.0, quality_report(plain.mesh).max_radius_edge)
        assert quality_report(sharded[0].mesh).max_radius_edge \
            <= bound + 1e-9

    def test_no_inside_tet_escapes_radius_edge_screen(self, runs):
        # The refiner drops a tet whose rule insertion raises mid-pass;
        # stitch() retries with fresh quality rounds until a pass makes
        # no progress, so no tet with an inside-object circumcenter may
        # end above the radius-edge bound (the screen the unsharded
        # refiner enforces for such tets).
        from repro.geometry.quality import radius_edge_ratio

        for run in runs[2]:
            dom = run.extras["domain"]
            tri = dom.tri
            offenders = []
            for t in tri.mesh.live_tets():
                ratio = radius_edge_ratio(*tri.tet_points(t))
                if ratio > 2.0:
                    c, _ = dom.circumball(t)
                    if dom.point_inside_object(c):
                        offenders.append((t, ratio))
            assert offenders == []
            assert "quality_rounds" in run.stats["stitch"]

    def test_quality_histogram_comparable(self, runs):
        # Not bit-identical to unsharded, but the same order of mesh.
        # Seam re-refinement adds tets — a large fraction on an image
        # this small — but must never *lose* resolution or blow up.
        _, plain, sharded = runs
        n0, n1 = plain.mesh.n_tets, sharded[0].mesh.n_tets
        assert 0.6 * n0 <= n1 <= 2.5 * n0


# ---------------------------------------------------------------------------
# incremental meshing: block content keys + seam-local stitching
# ---------------------------------------------------------------------------

def _edited_ball_grid(img):
    """The ball-grid image with a few voxels relabelled inside the
    first block's crop only (x < 5; the second block's crop starts at
    x = 5 for this size/shard count)."""
    labels = img.labels.copy()
    labels[2:4, 5:7, 5:7] = 3
    return type(img)(labels, spacing=img.spacing, origin=img.origin)


class TestBlockContentKeys:
    def _keys(self, img, plan):
        request = MeshRequest(image=img, delta=plan.delta)
        return [block_content_key(request, b) for b in plan.blocks]

    def test_stable_across_decomposition_runs(self):
        img = ball_grid_phantom(24)
        a = decompose(img, 2, delta=2.0)
        b = decompose(img, 2, delta=2.0)
        assert self._keys(img, a) == self._keys(img, b)

    def test_stable_across_processes(self):
        # Pure byte hashing: nothing keyed on id() or the randomized
        # str hash, so a fresh interpreter derives the same keys.
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = (
            "from repro.api import MeshRequest\n"
            "from repro.imaging import ball_grid_phantom\n"
            "from repro.delaunay.shard import block_content_key, "
            "decompose\n"
            "img = ball_grid_phantom(24)\n"
            "plan = decompose(img, 2, delta=2.0)\n"
            "request = MeshRequest(image=img, delta=plan.delta)\n"
            "print(','.join(block_content_key(request, b)"
            " for b in plan.blocks))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        img = ball_grid_phantom(24)
        plan = decompose(img, 2, delta=2.0)
        assert out.stdout.strip().split(",") == self._keys(img, plan)

    def test_keys_change_only_for_blocks_overlapping_edit(self):
        img = ball_grid_phantom(24)
        edited = _edited_ball_grid(img)
        plan = decompose(img, 2, delta=2.0)
        plan2 = decompose(edited, 2, delta=2.0)
        # The small edit must not move the decomposition (cut planes
        # snap to CUT_QUANTUM), or every downstream crop changes.
        assert [b.core_lo for b in plan.blocks] == \
            [b.core_lo for b in plan2.blocks]
        keys, keys2 = self._keys(img, plan), self._keys(edited, plan2)
        diff = np.argwhere(img.labels != edited.labels)
        assert len(diff) > 0
        for b, k, k2 in zip(plan.blocks, keys, keys2):
            overlaps = bool(np.any(
                np.all((diff >= b.crop_lo) & (diff < b.crop_hi), axis=1)
            ))
            assert (k != k2) == overlaps, b.index


class TestIncrementalStitching:
    @pytest.fixture(scope="class")
    def warm_runs(self):
        from repro.service.cache import ArtifactCache

        img = ball_grid_phantom(24)
        edited = _edited_ball_grid(img)
        cache = ArtifactCache(root=None)
        cold = mesh_sharded(
            MeshRequest(image=img, mesher="sequential", delta=2.0,
                        shards=2),
            block_cache=cache,
        )
        warm = mesh_sharded(
            MeshRequest(image=edited, mesher="sequential", delta=2.0,
                        shards=2),
            block_cache=cache,
        )
        return cold, warm

    def test_cold_run_misses_every_block(self, warm_runs):
        cold, _ = warm_runs
        bc = cold.stats["block_cache"]
        assert bc["hits"] == 0
        assert bc["misses"] == cold.stats["shards"]
        # One stitch path: a cold stitch is the seam-seeded stitch with
        # every block changed and no previous delta to reuse.
        stitch = cold.stats["stitch"]
        assert stitch["mode"] == "seam_local"
        assert stitch["changed_blocks"] == cold.stats["shards"]
        assert stitch["reused_points"] == 0
        assert bc["stitch_hit"] is False

    def test_only_changed_blocks_rerun(self, warm_runs):
        _, warm = warm_runs
        bc = warm.stats["block_cache"]
        assert bc["hits"] == warm.stats["shards"] - 1
        assert bc["misses"] == 1
        assert warm.stats["stitch"]["mode"].startswith("seam_local")

    def test_incremental_mesh_keeps_radius_edge_bound(self, warm_runs):
        _, warm = warm_runs
        assert quality_report(warm.mesh).max_radius_edge <= 2.0 + 1e-9

    def test_api_mesh_is_a_function_of_its_request(self):
        # api.mesh keeps no block cache between calls: a near-duplicate
        # meshed in between does not warm-start the repeat, which
        # meshes the same bytes cold.
        img = ball_grid_phantom(24)

        def run(image):
            return mesh(MeshRequest(image=image, mesher="sequential",
                                    delta=2.0, shards=2))
        first = run(img)
        run(_edited_ball_grid(img))
        third = run(img)
        for res in (first, third):
            assert "block_cache" not in res.stats
            assert res.stats["stitch"]["reused_points"] == 0
        assert third.to_dict()["mesh"] == first.to_dict()["mesh"]

    def test_shards_one_identical_to_unsharded(self):
        img = sphere_phantom(16)
        plain = mesh(MeshRequest(image=img, mesher="sequential"))
        one = mesh(MeshRequest(image=img, mesher="sequential", shards=1))
        assert one.mesh.vertices.tobytes() == plain.mesh.vertices.tobytes()
        assert one.mesh.tets.tobytes() == plain.mesh.tets.tobytes()


class TestServiceIncrementalCounters:
    def test_block_hit_counters_and_tier(self, tmp_path):
        img = ball_grid_phantom(24)
        edited = _edited_ball_grid(img)
        config = ServiceConfig(n_workers=1, executor="thread",
                               cache_dir=str(tmp_path / "cache"))
        with MeshingService(config) as svc:
            cold = svc.submit(MeshRequest(image=img, mesher="sequential",
                                          delta=2.0, shards=2))
            cold.wait(300)
            assert cold.state is JobState.DONE, cold.error
            assert cold.tier == "full_mesh"
            warm = svc.submit(MeshRequest(image=edited,
                                          mesher="sequential",
                                          delta=2.0, shards=2))
            warm.wait(300)
            assert warm.state is JobState.DONE, warm.error
            assert warm.tier == "block_hit"
            counters = svc.metrics_snapshot()["counters"]
            assert counters["shard.cache.block_hits"] == 1
            assert counters["shard.cache.block_misses"] == 3
            assert counters["shard.cache.incremental_stitches"] == 1


# ---------------------------------------------------------------------------
# one stitch path: every stitch keeps the blocks' interiors
# ---------------------------------------------------------------------------

GOLDENS = json.loads(GOLDEN_PATH.read_text())
GOLDEN_ROWS = GOLDENS[KERNEL]


def _case(row):
    return row["phantom"], row["n"], row["delta"], row["shards"]


def _case_id(case):
    return "{}{}-s{}".format(case[0].removesuffix("_phantom"), case[1],
                             case[3])


GOLDEN_CASES = [_case(row) for row in GOLDEN_ROWS]
#: a multi-tissue image next to the single- and few-label goldens
ABDOMINAL = ("abdominal_phantom", 32, None, 4)


class TestOneStitchPath:
    @pytest.fixture(scope="class")
    def cold(self):
        """Cold sharded meshes by case, each meshed once for the class."""
        runs = {}

        def get(case):
            if case not in runs:
                runs[case] = cold_mesh(*case)
            return runs[case]
        return get

    @pytest.mark.parametrize("row", GOLDEN_ROWS,
                             ids=lambda row: _case_id(_case(row)))
    def test_cold_stitch_matches_golden(self, cold, row):
        # Byte for byte on this kernel's own numbering; and the other
        # kernel's row pins the same geometry (vertices and labelled
        # tets as coordinates), whatever ids either handed out.
        case = _case(row)
        assert stitch_row(*case, result=cold(case)) == row
        for rows in GOLDENS.values():
            twin, = [r for r in rows if _case(r) == case]
            assert twin["geometry_digest"] == row["geometry_digest"]

    @pytest.mark.parametrize("case", GOLDEN_CASES[:2] + [ABDOMINAL],
                             ids=_case_id)
    def test_cold_stitch_ends_at_a_fixed_point(self, cold, case):
        # The interiors were never seeded in the stitch, yet no rule
        # applies anywhere: the blocks' own verdicts survived the merge.
        res = cold(case)
        assert res.stats["stitch"]["mode"] == "seam_local"
        domain = res.extras["domain"]
        for t in list(domain.tri.mesh.live_tets()):
            result = domain.refine_tet(t)
            assert result.skipped, (t, result.rule)
        before = (domain.n_insertions, domain.n_removals)
        SequentialRefiner(domain).refine()
        assert (domain.n_insertions, domain.n_removals) == before

    @pytest.mark.parametrize("case", GOLDEN_CASES + [ABDOMINAL],
                             ids=_case_id)
    def test_cold_stitch_does_under_half_the_blocks_work(self, cold, case):
        stats = cold(case).stats
        block_ops = sum(s["operations"] for s in stats["shard_stats"])
        assert stats["stitch"]["refine_operations"] < 0.5 * block_ops

    def test_acceptance_screen_catches_an_unseeded_seam(self, monkeypatch):
        # Holes that swallow every ownership box leave nothing to seed
        # or replay, so the seam tets go unjudged by the shell passes;
        # the global screen must notice and the repair must fix it.
        from repro.delaunay import shard as shard_mod

        monkeypatch.setattr(
            shard_mod, "_changed_holes",
            lambda image, plan, changed: [(b.own_lo, b.own_hi)
                                          for b in plan.blocks])
        res = cold_mesh("sphere_phantom", 32, None, 2)
        stitch = res.stats["stitch"]
        assert stitch["screen_offenders"] > 0
        assert stitch["mode"] == "seam_local+repair"
        assert quality_report(res.mesh).max_radius_edge <= 2.0 + 1e-9
        assert validate_extracted_mesh(res.mesh) == []

    def test_warm_request_with_most_blocks_changed(self):
        # 3 of 4 blocks changed used to fall back to a full stitch; it
        # is the same seam-seeded stitch.  The unchanged block's export
        # is what gets reused: each of its seams borders a changed
        # block, so no Steiner point of the previous delta lies outside
        # the influence boxes.
        from repro.service.cache import ArtifactCache

        img = ball_grid_phantom(48)
        labels = img.labels.copy()
        # Block 0's crop is x < 25 and y < 25; one relabelled patch in
        # each of the other three crops, none inside block 0's.
        for x, y in ((8, 32), (32, 8), (32, 32)):
            patch = labels[x:x + 4, y:y + 4, 8:12]
            assert (patch > 0).any()
            patch[patch > 0] = patch[patch > 0] % 3 + 1
        edited = type(img)(labels, spacing=img.spacing, origin=img.origin)
        cache = ArtifactCache(root=None)

        def run(image):
            return mesh_sharded(
                MeshRequest(image=image, mesher="sequential", delta=2.0,
                            shards=4),
                block_cache=cache,
            )
        run(img)
        warm = run(edited)
        bc, stitch = warm.stats["block_cache"], warm.stats["stitch"]
        assert (bc["hits"], bc["misses"]) == (1, 3)
        assert bc["stitch_hit"] is True
        assert stitch["changed_blocks"] == 3
        assert stitch["mode"].startswith("seam_local")
        counters = warm.metrics["counters"]
        assert counters["shard.cache.incremental_stitches"] == 1
        assert validate_extracted_mesh(warm.mesh) == []
        assert quality_report(warm.mesh).max_radius_edge <= 2.0 + 1e-9


class TestFanOutOrder:
    def test_largest_crop_is_handed_out_first(self):
        img = ball_grid_phantom(48)
        plan = decompose(img, 4, delta=2.0)
        assert [b.crop_voxels for b in plan.blocks] == \
            [30000, 39600, 39600, 52272]

        class OneSlotPool:
            n_workers = 1

            def run_shard(self, request, plan, block, deadline=None):
                return {"arrays": {}, "stats": {"index": block.index}}

        started = []

        def hook(event, block, info):
            if event == "start":
                started.append(block.index)

        run = pool_runner(OneSlotPool(), MeshRequest(image=img), hook=hook)
        outs = run(plan, [0, 1, 2, 3])
        assert started == [3, 1, 2, 0]  # by crop, ties by index
        assert [o["stats"]["index"] for o in outs] == [0, 1, 2, 3]
        started.clear()
        outs = run(plan, [0, 2])  # a warm request's misses
        assert started == [2, 0]
        assert [o["stats"]["index"] for o in outs] == [0, 2]


# ---------------------------------------------------------------------------
# one coordinator: the api path and the service mesh the same bytes
# ---------------------------------------------------------------------------

class TestOneCoordinator:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_api_and_service_match_the_golden(self, tmp_path, executor):
        row = GOLDEN_ROWS[0]
        phantom, n, delta, shards = _case(row)
        image = getattr(imaging, phantom)(n)

        def request():
            return MeshRequest(image=image, mesher="sequential",
                               delta=delta, shards=shards)

        via_api = mesh(request())
        with MeshingService(_service_config(tmp_path,
                                            executor=executor)) as svc:
            job = svc.submit(request())
            job.wait(300)
            assert job.state is JobState.DONE, job.error
            # Sub-jobs whichever runner meshed the blocks.
            for k in range(shards):
                assert svc.job(f"{job.id}/s{k}").state is JobState.DONE
            snap = svc.metrics_snapshot()
        assert snap["histograms"]["service.shard.seconds"]["count"] == shards
        assert snap["counters"]["shard.stitch.duplicates"] == \
            via_api.metrics["counters"]["shard.stitch.duplicates"]
        for result in (via_api, job.result):
            assert stitch_row(phantom, n, delta, shards,
                              result=result) == row

    def test_script_without_main_guard(self, tmp_path):
        # api.mesh meshes the blocks in this process, so a script that
        # calls it at import time needs no __main__ guard: nothing is
        # spawned that would re-import it.
        import pathlib
        import subprocess
        import sys

        import repro

        script = tmp_path / "unguarded.py"
        script.write_text(
            "from repro.api import MeshRequest, mesh\n"
            "from repro.imaging import ball_grid_phantom\n"
            "r = mesh(MeshRequest(ball_grid_phantom(24), delta=2.0,"
            " shards=2))\n"
            "assert r.stats['shards'] == 2, r.stats\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, str(script)], env=env,
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------

class TestShardRequest:
    def test_auto_resolves_to_cpu_count(self):
        req = MeshRequest(image=sphere_phantom(10), shards="auto")
        assert 1 <= req.resolved_shards() <= 8

    def test_bad_shards_rejected(self):
        img = sphere_phantom(10)
        for bad in (0, -2, "many", 1.5, True):
            with pytest.raises((ValueError, TypeError)):
                MeshRequest(image=img, shards=bad).validate()

    def test_sharding_needs_sequential(self):
        img = sphere_phantom(10)
        with pytest.raises(ValueError):
            MeshRequest(image=img, mesher="threaded", shards=4).validate()


# ---------------------------------------------------------------------------
# service fan-out (process executor)
# ---------------------------------------------------------------------------

def _service_config(tmp_path, **kw):
    kw.setdefault("n_workers", 2)
    kw.setdefault("executor", "process")
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ServiceConfig(**kw)


class TestServiceShardedJobs:
    def test_sharded_job_end_to_end(self, tmp_path):
        img = two_spheres_phantom(24)
        with MeshingService(_service_config(tmp_path)) as svc:
            job = svc.submit(
                MeshRequest(image=img, mesher="sequential", shards=4)
            )
            job.wait(300)
            assert job.state is JobState.DONE, job.error
            n = job.result.stats["shards"]
            assert n >= 2
            for k in range(n):
                sub = svc.job(f"{job.id}/s{k}")
                assert sub is not None
                assert sub.state is JobState.DONE
            snap = svc.metrics_snapshot()
            assert snap["counters"]["service.shard.jobs"] == 1
            assert snap["counters"]["service.shard.blocks"] == n
            assert snap["histograms"]["service.shard.seconds"]["count"] \
                == n
            # Sharded results hit the same cache as everything else.
            again = svc.submit(
                MeshRequest(image=img, mesher="sequential", shards=4)
            )
            again.wait(300)
            assert again.cache_hit

    def test_max_shards_cap(self, tmp_path):
        img = two_spheres_phantom(24)
        with MeshingService(
            _service_config(tmp_path, max_shards=1)
        ) as svc:
            job = svc.submit(
                MeshRequest(image=img, mesher="sequential", shards=8)
            )
            job.wait(300)
            assert job.state is JobState.DONE, job.error
            # Capped to one shard = plain unsharded run.
            assert "shards" not in job.result.stats \
                or job.result.stats["shards"] == 1

    def test_crashed_shard_reruns_not_whole_job(self, tmp_path,
                                                monkeypatch):
        from repro.service import procworker

        img = two_spheres_phantom(24)
        real = procworker.build_shard_payload
        crashes = {"armed": True}

        def sabotaged(request, plan, block, **kwargs):
            body = real(request, plan, block, **kwargs)
            if block.index == 0 and crashes["armed"]:
                crashes["armed"] = False
                body["fault"] = "exit"  # worker os._exit(3)s
            return body

        monkeypatch.setattr(procworker, "build_shard_payload", sabotaged)
        with MeshingService(_service_config(tmp_path)) as svc:
            job = svc.submit(
                MeshRequest(image=img, mesher="sequential", shards=4)
            )
            job.wait(300)
            assert job.state is JobState.DONE, job.error
            snap = svc.metrics_snapshot()
            assert snap["counters"]["service.shard.crashes"] >= 1
            assert snap["counters"]["service.shard.reruns"] >= 1
            assert arena_mod.orphaned(
                f"{arena_mod.ARENA_PREFIX}{os.getpid()}-") == []

    def test_exhausted_retries_fail_job(self, tmp_path, monkeypatch):
        from repro.service import procworker

        img = two_spheres_phantom(24)
        real = procworker.build_shard_payload

        def always_crash(request, plan, block, **kwargs):
            body = real(request, plan, block, **kwargs)
            if block.index == 0:
                body["fault"] = "exit"
            return body

        monkeypatch.setattr(procworker, "build_shard_payload",
                            always_crash)
        with MeshingService(
            _service_config(tmp_path, max_retries=0)
        ) as svc:
            job = svc.submit(
                MeshRequest(image=img, mesher="sequential", shards=4)
            )
            job.wait(300)
            assert job.state is JobState.FAILED
            sub = svc.job(f"{job.id}/s0")
            assert sub is not None and sub.state is JobState.FAILED
            snap = svc.metrics_snapshot()
            assert snap["counters"]["service.shard.failed"] >= 1
