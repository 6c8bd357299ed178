"""The generation screen: exact about "none", and nothing else.

``RefineDomain.screen`` answers for a whole FIFO generation at once
whether a rule could apply; the sequential refiner drops the tets it
answers ``False`` for without ever showing them to ``refine_tet``.  The
tests hold it to that contract on real runs (a ``False`` is a no-op for
the scalar judge, on every generation), check that it is sharp enough to
be worth having, pin its batch kernels to their scalar counterparts, and
check that the loop built on it is deterministic.
"""

import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _accel
from repro.api import MeshRequest
from repro.core.domain import RefineDomain
from repro.core.pointgrid import AccelGrid, ReferenceGrid
from repro.core.refiner import SequentialRefiner
from repro.delaunay.shard import mesh_sharded
from repro.geometry.batch import circumballs_many, triangle_min_angles_many
from repro.geometry.quality import triangle_min_angle
from repro.imaging import (
    SurfaceOracle,
    abdominal_phantom,
    ball_grid_phantom,
    near_duplicate_phantom,
    sphere_phantom,
)
from repro.imaging.image import SegmentedImage
from repro.observability import Observability, ObservabilityConfig


def thin_plate_phantom(n=16):
    """One voxel thin, neighbouring voxels sharing only an edge."""
    labels = np.zeros((n, n, n), dtype=np.int16)
    for i in range(3, n - 3):
        labels[i, i, 3:n - 3] = 1
    return SegmentedImage(labels)


def anisotropic_phantom():
    """Two tissues on a grid with three different spacings that does not
    start at the origin."""
    return SegmentedImage(near_duplicate_phantom(20).labels,
                          spacing=(1.0, 1.25, 1.5),
                          origin=(-3.5, 10.25, 0.125))


PHANTOMS = {
    "sphere": lambda: (sphere_phantom(16), 2.5),
    "abdominal": lambda: (abdominal_phantom(24), None),
    "abdominal_coarse": lambda: (abdominal_phantom(24), 3.0),
    "ball_grid": lambda: (ball_grid_phantom(24), 2.0),
    "near_duplicate": lambda: (near_duplicate_phantom(24), 2.0),
    "thin_plate": lambda: (thin_plate_phantom(), 1.0),
    "anisotropic": lambda: (anisotropic_phantom(), 2.0),
}


def _topology(domain):
    mesh = domain.tri.mesh
    return sorted(tuple(sorted(mesh.tet_verts_arr[t].tolist()))
                  for t in mesh.live_tets())


def _topo_digest(domain):
    blob = ";".join(",".join(map(str, t)) for t in _topology(domain))
    return hashlib.sha256(blob.encode()).hexdigest()


def _checked_screen(log):
    """``RefineDomain.screen`` with the contract asserted on every call:
    each tet it rules out is shown to ``refine_tet``, which must leave
    the mesh alone.  ``log`` collects ``(n, n_maybe)`` per call."""
    screen = RefineDomain.screen

    def checked(self, tets):
        tets = np.asarray(tets, dtype=np.int64)
        maybe = screen(self, tets)
        before = (self.n_insertions, self.n_removals, self.n_skipped,
                  self.tri.n_tets)
        for t in tets[~maybe].tolist():
            result = self.refine_tet(t)
            assert result.rule == "none", (t, result.rule)
        assert before == (self.n_insertions, self.n_removals,
                          self.n_skipped, self.tri.n_tets)
        log.append((len(tets), int(maybe.sum())))
        return maybe

    return checked


def _assert_rays_are_the_scalar(oracle, points, hit, z):
    """``closest_surface_points`` answered ``points`` as the judge's
    ``closest_surface_point`` does: ``None`` is ``hit False``, a point
    is the same three floats."""
    assert hit.shape == (len(points),) and z.shape == (len(points), 3)
    for p, found, row in zip(points.tolist(), hit.tolist(), z.tolist()):
        expected = oracle.closest_surface_point(tuple(p))
        assert (tuple(row) == expected if found else expected is None), p


def _checked_rays(log):
    """``SurfaceOracle.closest_surface_points`` with every row compared
    to the scalar.  ``log`` collects the batch sizes."""
    batch = SurfaceOracle.closest_surface_points

    def checked(self, points):
        hit, z = batch(self, points)
        _assert_rays_are_the_scalar(self, np.asarray(points), hit, z)
        log.append(len(points))
        return hit, z

    return checked


class TestSoundness:
    """``screen(t) is False`` implies ``refine_tet(t)`` is a no-op — on
    every generation of a real run, not only on the finished mesh."""

    @pytest.mark.parametrize("phantom", PHANTOMS)
    def test_every_generation_of_a_run(self, phantom, monkeypatch):
        log, rays = [], []
        monkeypatch.setattr(RefineDomain, "screen", _checked_screen(log))
        monkeypatch.setattr(SurfaceOracle, "closest_surface_points",
                            _checked_rays(rays))
        image, delta = PHANTOMS[phantom]()
        domain = RefineDomain(image, delta=delta)
        before = _topology(domain)
        stats = SequentialRefiner(domain, max_operations=200_000).refine()
        assert len(log) > 3 and stats.n_insertions > 0
        assert len(rays) == len(log) and sum(rays) > 100
        assert _topology(domain) != before
        # The last generation is the proof of termination: nothing in
        # it can be refined.
        assert log[-1][1] == 0 or stats.n_skipped > 0

    def test_every_generation_of_a_stitch(self, monkeypatch):
        # Block refiners and the seam-seeded stitch (seed_filter, a
        # bulk-loaded mesh, neighbours no generation ever held).
        log, rays = [], []
        monkeypatch.setattr(RefineDomain, "screen", _checked_screen(log))
        monkeypatch.setattr(SurfaceOracle, "closest_surface_points",
                            _checked_rays(rays))
        res = mesh_sharded(MeshRequest(
            image=ball_grid_phantom(24), mesher="sequential", delta=2.0,
            shards=2,
        ))
        assert res.stats["stitch"]["mode"] == "seam_local"
        assert res.stats["stitch"]["refine_operations"] > 0
        assert sum(n for n, _ in log) > 1000
        assert len(rays) == len(log) and sum(rays) > 100

    def test_finished_mesh_screens_clean(self):
        image, delta = PHANTOMS["abdominal"]()
        domain = RefineDomain(image, delta=delta)
        stats = SequentialRefiner(domain).refine()
        live = domain.tri.mesh.live_tet_ids()
        maybe = live[domain.screen(live)]
        # Anything still flagged is a tet whose insertion was abandoned.
        assert len(maybe) <= stats.n_skipped
        for t in maybe.tolist():
            assert domain.refine_tet(t).skipped


class TestSharpness:
    def test_most_scalar_calls_act(self):
        obs = Observability.from_config(None)
        domain = RefineDomain(abdominal_phantom(40))
        stats = SequentialRefiner(domain, obs=obs).refine()
        counters = obs.snapshot()["counters"]
        screened = counters["refine.screened_none"]
        calls = stats.n_operations - screened
        acted = calls - (stats.rule_counts["none"] - screened)
        assert counters["refine.operations"] == stats.n_operations
        assert counters["refine.generations"] >= 10
        assert screened > 5 * calls
        assert acted >= 0.9 * calls, (acted, calls)


class TestBatchKernels:
    def test_circumballs_bit_equal_to_the_scalar_path(self):
        image, delta = PHANTOMS["abdominal"]()
        domain = RefineDomain(image, delta=delta)
        SequentialRefiner(domain).refine()
        mesh = domain.tri.mesh
        # A flat tet: the scalar path's ZeroDivisionError lane.
        flat = mesh.add_tet(tuple(
            mesh.add_vertex(p) for p in
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
             (1.0, 1.0, 0.0))
        ))
        live = mesh.live_tet_ids()
        assert flat in live
        domain._balls.rows[:] = -1.0
        batch = domain.circumballs(live)[live].copy()
        domain._balls.rows[:] = -1.0
        for row, t in zip(batch, live.tolist()):
            c, r = domain.circumball(t)
            assert (*c, r) == tuple(row[:4].tolist())
            assert row[4] == mesh.tet_epoch[t]
        c, r = domain.circumball(flat)
        assert c == (0.5, 0.5, 0.0) and r == math.inf

        direct_c, direct_r = circumballs_many(
            mesh.coords[mesh.tet_verts_arr[live]])
        assert direct_c.tobytes() == batch[:, :3].tobytes()
        assert direct_r.tobytes() == batch[:, 3].tobytes()

    def test_scalar_and_batch_fill_one_store(self):
        image, delta = PHANTOMS["sphere"]()
        domain = RefineDomain(image, delta=delta)
        SequentialRefiner(domain).refine()
        live = domain.tri.mesh.live_tet_ids()
        domain._balls.rows[:] = -1.0
        t = int(live[0])
        domain.circumball(t)
        row = domain._balls.rows[t].copy()
        store = domain.circumballs(live)
        assert store[t].tobytes() == row.tobytes()
        assert (store[live, 4] >= 0).all()

    def test_closest_surface_points_is_the_scalar_row_for_row(self):
        # Off the runs: starts inside, outside and on the faces of the
        # box, and every voxel center — a surface voxel's center has no
        # direction to walk in and walks the six axis directions.
        image = anisotropic_phantom()
        oracle = SurfaceOracle(image)
        lo, hi = (np.array(b) for b in image.bounds())
        rng = np.random.default_rng(11)
        faces = rng.uniform(lo, hi, size=(60, 3))
        for n, p in enumerate(faces):
            p[n % 3] = (lo, hi)[n % 2][n % 3]
        centers = np.array([image.voxel_center(i)
                            for i in np.ndindex(*image.shape)])
        on_surface = np.flatnonzero(oracle.surface_mask)
        points = np.concatenate([
            rng.uniform(lo, hi, size=(300, 3)),
            rng.uniform(lo - 8.0, hi + 8.0, size=(300, 3)),
            faces, centers])
        hit, z = oracle.closest_surface_points(points)
        _assert_rays_are_the_scalar(oracle, points, hit, z)
        assert hit[len(points) - len(centers) + on_surface].all()
        assert not hit.all()
        # One such center alone, and none at all.
        center = centers[on_surface[:1]]
        hit, z = oracle.closest_surface_points(center)
        assert oracle.nearest_surface_voxel(center[0]) == tuple(center[0])
        _assert_rays_are_the_scalar(oracle, center, hit, z)
        hit, z = oracle.closest_surface_points(np.zeros((0, 3)))
        assert hit.shape == (0,) and z.shape == (0, 3)

    def test_min_angle_matches_the_scalar(self):
        rng = np.random.default_rng(7)
        tris = rng.uniform(-5.0, 5.0, (400, 3, 3))
        tris[0, 1] = tris[0, 0]                     # zero-length edge
        tris[1, 2] = tris[1, 0] + 2.0 * (tris[1, 1] - tris[1, 0])  # collinear
        tris[2] = [[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(0.75), 0]]
        batch = triangle_min_angles_many(tris)
        scalar = np.array([
            triangle_min_angle(*map(tuple, tri)) for tri in tris.tolist()
        ])
        # Same arithmetic up to the arc cosine; numpy's SIMD arccos and
        # math.acos differ in the last bit on some builds, which is why
        # screen() leaves 1e-9 degrees of room at the 30 degree bound.
        np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-11)
        assert batch[0] == 0.0 and scalar[0] == 0.0


# The R1 grid's two implementations: the C grid when it is loaded.
GRIDS = [ReferenceGrid] + ([AccelGrid] if _accel.grid is not None else [])


def _coordinate(cell):
    """Multiples of a quarter cell: plenty of exact ties and of points
    exactly on cell faces."""
    return st.integers(-24, 24).map(lambda k: k * cell / 4.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_within_many_is_the_scalar_query(data):
    cell = data.draw(st.sampled_from([1.0, 2.0, 0.75]))
    lattice = data.draw(st.booleans())
    coord = (_coordinate(cell) if lattice
             else st.floats(-6.0 * cell, 6.0 * cell, allow_nan=False))
    point = st.tuples(coord, coord, coord)
    stored = data.draw(st.lists(point, min_size=0, max_size=30))
    queries = data.draw(st.lists(point, min_size=0, max_size=20))
    radius = cell if data.draw(st.booleans()) else data.draw(
        st.floats(0.05 * cell, 2.5 * cell))

    extra = data.draw(st.lists(point, min_size=1, max_size=5))
    for Grid in GRIDS:
        grid = Grid(cell)
        for vid, p in enumerate(stored):
            grid.add(vid, p)
        expected = [grid.any_within(q, radius) for q in queries]
        assert grid.any_within_many(np.array(queries).reshape(-1, 3),
                                    radius).tolist() == expected

        # The batch follows the grid: more points, then a removal.
        for vid, p in enumerate(extra, start=len(stored)):
            grid.add(vid, p)
        if stored:
            grid.remove(0)
        expected = [grid.any_within(q, radius) for q in queries]
        assert grid.any_within_many(np.array(queries).reshape(-1, 3),
                                    radius).tolist() == expected


def test_any_within_many_counts_a_tie_at_exactly_r():
    queries = np.array([(0.0, 0.0, 0.0),        # exactly r away, next cell
                        (0.0, 0.0, 1e-6),       # a hair farther
                        (10.0, 10.0, 11.0),     # exactly r, along z
                        (50.0, 50.0, 50.0)])
    for Grid in GRIDS:
        grid = Grid(2.0)
        grid.add(0, (2.0, 0.0, 0.0))
        grid.add(1, (10.0, 10.0, 13.0))
        assert grid.any_within_many(queries, 2.0).tolist() == [
            True, False, True, False]
        assert [grid.any_within(q, 2.0) for q in queries.tolist()] == [
            True, False, True, False]


_DIGEST_SNIPPET = """
import hashlib
from repro import _accel
assert _accel.bw_insert is None, "REPRO_ACCEL=0 must disable the accel"
from repro.core.domain import RefineDomain
from repro.core.refiner import SequentialRefiner
from repro.imaging import abdominal_phantom

domain = RefineDomain(abdominal_phantom(24))
SequentialRefiner(domain).refine()
mesh = domain.tri.mesh
tets = sorted(tuple(sorted(mesh.tet_verts_arr[t].tolist()))
              for t in mesh.live_tets())
blob = ";".join(",".join(map(str, t)) for t in tets)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


class TestDeterminism:
    def _run(self):
        image, delta = PHANTOMS["abdominal"]()
        domain = RefineDomain(image, delta=delta)
        stats = SequentialRefiner(domain).refine()
        return _topo_digest(domain), stats

    def test_two_runs_one_mesh(self):
        (d1, s1), (d2, s2) = self._run(), self._run()
        assert d1 == d2
        assert s1.n_operations == s2.n_operations
        assert s1.rule_counts == s2.rule_counts

    @pytest.mark.skipif(not _accel.AVAILABLE,
                        reason="C accelerator unavailable")
    def test_both_kernels_one_mesh(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, REPRO_ACCEL="0", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SNIPPET],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == self._run()[0]

    def test_seed_filter_restricts_generation_zero_only(self):
        image, delta = PHANTOMS["sphere"]()

        def generations(seed_filter):
            obs = Observability.from_config(
                ObservabilityConfig(tracing=True))
            domain = RefineDomain(image, delta=delta)
            stats = SequentialRefiner(domain, obs=obs,
                                      seed_filter=seed_filter).refine()
            spans = [ev.args for ev in obs.tracer.events()
                     if ev.name == "screen"]
            assert sum(s["n"] for s in spans) + sum(
                v for k, v in stats.rule_counts.items() if k != "none"
            ) >= stats.n_operations
            return [s["n"] for s in spans], stats

        full, _ = generations(None)
        assert len(full) > 3

        nothing, stats = generations(lambda live: np.zeros(len(live), bool))
        assert nothing == [] and stats.n_operations == 0

        # One seed tet: generation 0 is that tet alone, and what it
        # spawns is judged without asking the filter again.
        calls = []

        def first_only(live):
            calls.append(len(live))
            mask = np.zeros(len(live), dtype=bool)
            mask[0] = True
            return mask

        seeded, stats = generations(first_only)
        assert calls == [full[0]]
        assert seeded[0] == 1 and len(seeded) > 3
        assert max(seeded) > 1 and stats.n_insertions > 0
