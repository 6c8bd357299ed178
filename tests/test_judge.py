"""The C judge and the C seed probe answer as their Python references.

``RefineDomain.judge`` is the reference rule engine; on the sequential
path the C judge (``_accel/judge.c``) decides instead and defers to it
wherever its arithmetic may differ (a tie band around R1's reach, R4's
ratio, R3's angle and the longest edge of the midpoint fallback).  The
tests hold it to "the reference's rule and point, float for float, or a
deferral" on live tets taken mid-refine, on planted exact ties, and on
the deferral share of a real mesh.  The vertex grid's seed probe in C
(``_accel/vgrid.c``) must pick the reference's tet and candidate on
every walk, across a re-bin and after vertex drops.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _accel
from repro.api import MeshRequest, mesh
from repro.core import domain as domain_module
from repro.core.domain import RefineDomain, VertexKind
from repro.core.refiner import SequentialRefiner
from repro.core.sizing import constant, radial, surface_graded, unconstrained
from repro.delaunay import RemovalError, Triangulation3D
from repro.delaunay.triangulation import CSeedGrid, DictSeedGrid
from repro.geometry.quality import shortest_edge, triangle_min_angle
from repro.imaging import abdominal_phantom, ball_grid_phantom, sphere_phantom
from benchmarks.kernel_bench import SeedTwins
from tests.test_screen import anisotropic_phantom, thin_plate_phantom

pytestmark = pytest.mark.skipif(
    _accel.judge is None or _accel.vgrid is None,
    reason="needs the C accelerator")

PHANTOMS = {
    "sphere": lambda: (sphere_phantom(16), 2.5),
    "ball_grid": lambda: (ball_grid_phantom(24), 2.0),
    "anisotropic": lambda: (anisotropic_phantom(), 2.0),
    "thin_plate": lambda: (thin_plate_phantom(), 1.0),
}


def _spec(kind, image):
    (x0, y0, z0), (x1, y1, z1) = image.bounds()
    centre = ((x0 + x1) / 2, (y0 + y1) / 2, (z0 + z1) / 2)
    return {
        "unconstrained": unconstrained(),
        "constant": constant(2.5),
        "radial": radial(centre, 1.5, 6.0, 6.0),
        "surface_graded": surface_graded(1.5, 6.0, 0.5),
    }[kind]


_DOMAINS = {}


def _mid_refine(phantom, kind, stop):
    """A domain of ``phantom`` under a ``kind`` size spec, stopped after
    ``stop`` judged tets (``None``: refined to the end).  Cached: the
    judges only write the circumball store, whose rows are a cache."""
    key = (phantom, kind, stop)
    if key not in _DOMAINS:
        image, delta = PHANTOMS[phantom]()
        domain = RefineDomain(image, delta=delta,
                              size_function=_spec(kind, image))
        try:
            SequentialRefiner(domain, max_operations=stop).refine()
        except RuntimeError:
            pass  # the budget ran out: a mid-refine state
        _DOMAINS[key] = domain
    return _DOMAINS[key]


def _bits(decision):
    """A decision with every float as its bit pattern."""
    rule, p, kind = decision
    return rule, None if p is None else tuple(map(float.hex, p)), kind


def _forget_rows(domain, t):
    """Mark the store rows of ``t`` and its neighbours stale, so the next
    judge computes them itself."""
    mesh = domain.tri.mesh
    ids = [t] + [n for n in mesh.tet_adj[t].tolist() if n >= 0]
    rows = domain._balls.rows
    ids = [i for i in ids if i < len(rows)]
    rows[ids, 4] = -1.0
    return ids


def _both(domain, t):
    """``(python, c)`` decisions on ``t``, each from rows it computed,
    after checking that every row C wrote is the one Python wrote (a
    deferral may stop C before the last neighbour)."""
    ids = _forget_rows(domain, t)
    python = domain.judge(t)
    rows = domain._balls.rows[ids].copy()
    _forget_rows(domain, t)
    c = domain._judge_c(t)
    written = domain._balls.rows[ids]
    fresh = written[:, 4] != -1.0
    assert fresh[0] or c is None
    assert written[fresh].tobytes() == rows[fresh].tobytes()
    return python, c


def _assert_agrees(domain, t):
    python, c = _both(domain, t)
    assert c is None or _bits(c) == _bits(python), (t, python, c)
    return python, c


class TestParity:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(phantom=st.sampled_from(sorted(PHANTOMS)),
           kind=st.sampled_from(["unconstrained", "constant", "radial",
                                 "surface_graded"]),
           stop=st.sampled_from([40, 400, 1500, None]),
           picks=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          min_size=1, max_size=25))
    def test_rule_and_point_or_defer(self, phantom, kind, stop, picks):
        domain = _mid_refine(phantom, kind, stop)
        live = domain.tri.mesh.live_tet_ids()
        for u in picks:
            _assert_agrees(domain, int(live[int(u * len(live))]))

    @pytest.mark.parametrize("phantom", sorted(PHANTOMS))
    def test_every_live_tet_mid_refine(self, phantom):
        """Every live tet of a stopped run, under a size function Python
        evaluates: rules fire, and C decides almost all of them."""
        domain = _mid_refine(phantom, "radial", 400)
        rules, deferred = set(), 0
        for t in domain.tri.mesh.live_tet_ids().tolist():
            python, c = _assert_agrees(domain, t)
            rules.add(python[0])
            deferred += c is None
        assert len(rules) > 2, rules
        assert deferred < 0.05 * len(domain.tri.mesh.live_tet_ids())


def _finished(image=None):
    image = image if image is not None else sphere_phantom(16)
    domain = RefineDomain(image, delta=2.5)
    SequentialRefiner(domain).refine()
    return domain


def _rebuilt(domain):
    """The domain with its C judge's context built anew (the bounds are
    read when it is built)."""
    domain._init_c_judge()
    return domain


class TestPlantedTies:
    """Exact ties at a rule's bound: C must defer (it cannot know which
    side the reference's rounding puts them on) or agree."""

    def test_ball_exactly_at_r1_reach(self):
        domain = _finished()
        oracle = domain.oracle
        for t in domain.tri.mesh.live_tet_ids().tolist():
            c, r = domain.circumball(t)
            gap = math.dist(c, oracle.nearest_surface_voxel(c))
            slack = gap - r
            if r != math.inf and slack > 0 and r + slack == gap:
                break
        else:
            pytest.fail("no tet to plant the tie on")
        domain._surface_slack = slack
        python, c = _assert_agrees(_rebuilt(domain), t)
        assert c is None
        assert domain.tri.counters.judge_deferrals["reach_tie"] >= 1

    def test_radius_edge_exactly_at_the_bound(self, monkeypatch):
        domain = _finished()
        image = domain.image
        for t in domain.tri.mesh.live_tet_ids().tolist():
            c, r = domain.circumball(t)
            if image.label_at(c) != 0 and domain.judge(t)[0] == "none":
                break
        ratio = r / shortest_edge(*domain.tri.tet_points(t))
        for bound in (ratio, math.nextafter(ratio, 0.0),
                      math.nextafter(ratio, math.inf)):
            monkeypatch.setattr(domain_module, "RADIUS_EDGE_BOUND", bound)
            python, c = _assert_agrees(_rebuilt(domain), t)
            assert c is None
        assert python[0] == "none"
        assert domain.tri.counters.judge_deferrals["edge_tie"] == 3

    def test_facet_at_exactly_the_angle_bound(self, monkeypatch):
        domain = _finished()
        mesh = domain.tri.mesh
        kinds = domain.kinds(len(mesh.points))
        best = None
        for t in mesh.live_tet_ids().tolist():
            c, _ = domain.circumball(t)
            for i, nbr in enumerate(mesh.tet_adj[t].tolist()):
                if nbr < 0:
                    continue
                c_n, _ = domain.circumball(nbr)
                face = mesh.face_opposite(t, i)
                if (domain.image.label_at(c_n) == domain.image.label_at(c)
                        or any(kinds[w] != VertexKind.ISOSURFACE
                               for w in face)):
                    continue
                angle = triangle_min_angle(*(mesh.points[w] for w in face))
                if best is None or angle < best[0]:
                    best = (angle, t)
        angle, t = best
        monkeypatch.setattr(domain_module, "PLANAR_ANGLE_BOUND_DEG", angle)
        python, c = _assert_agrees(_rebuilt(domain), t)
        assert c is None
        assert domain.tri.counters.judge_deferrals["angle_tie"] >= 1


def test_deferral_share_on_the_ledger_image():
    """The C judge decides at least 99 % of the judged tets of the
    ledger's ``cold_single`` image."""
    result = mesh(MeshRequest(image=abdominal_phantom(40)))
    gauges = result.metrics["gauges"]
    calls = gauges["kernel.judge_calls"]
    deferred = sum(n for name, n in gauges.items()
                   if name.startswith("kernel.judge_deferrals."))
    assert calls > 1000
    assert deferred / calls < 0.01


def _twin_kernels(monkeypatch, twins):
    """The insert kernels, checked: before each call, the C probe and the
    reference agree on the seed, and after it the kernel took the
    reference's candidate."""
    insert = _accel.AccelScratch.insert
    insert_many = _accel.AccelScratch.insert_many

    def checked_insert(self, mesh, px, py, pz, seed, *rest):
        twin = twins[id(mesh)]
        last = rest[-2]
        want = twin.seed(px, py, pz, seed, last)
        assert twin.same
        status = insert(self, mesh, px, py, pz, seed, *rest)
        assert self.out_i[10] == want[1]
        return status

    def checked_many(self, mesh, points, *rest):
        twin = twins[id(mesh)]
        p = points[0]
        want = twin.seed(float(p[0]), float(p[1]), float(p[2]), -1, rest[-2])
        assert twin.same
        out = insert_many(self, mesh, points, *rest)
        assert out[12] == want[1]
        return out

    monkeypatch.setattr(_accel.AccelScratch, "insert", checked_insert)
    monkeypatch.setattr(_accel.AccelScratch, "insert_many", checked_many)


def _walk_counts(tri):
    """The seed candidates taken, the walks and their steps, and the
    walk's LCG state: a probe that picked another tet of the same kind
    moves the steps and the state."""
    c = tri.counters
    return (c.seed_grid_hits, c.seed_hint_hits, c.seed_scans,
            c.locate_calls, c.walk_steps, tri._walk_state)


class TestSeedProbe:
    def test_the_reference_tet_across_a_regrid_and_drops(self, monkeypatch):
        domain = RefineDomain(abdominal_phantom(40))
        tri = domain.tri
        assert isinstance(tri._seeds, CSeedGrid)
        twin = tri._seeds = SeedTwins(tri, kernels_probe=True)
        _twin_kernels(monkeypatch, {id(tri.mesh): twin})
        SequentialRefiner(domain).refine()
        assert twin.grids["reference"]._res > 16   # crossed a re-bin
        assert twin.calls["drop"] > 0              # R6 dropped vertices
        assert twin.calls["seed"] > 1000
        assert twin.same
        assert twin.grids["accel"].cells() == twin.grids["reference"].cells()

    def test_batched_inserts_probe_as_the_reference(self, monkeypatch):
        tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        twin = tri._seeds = SeedTwins(tri, kernels_probe=True)
        _twin_kernels(monkeypatch, {id(tri.mesh): twin})
        rng = np.random.default_rng(7)
        tri.insert_many(rng.random((1500, 3)).tolist())
        assert twin.grids["reference"]._res > 16
        for v in range(10, 400, 7):
            try:
                tri.remove_vertex(v)
            except RemovalError:
                pass
        tri.insert_many(rng.random((300, 3)).tolist())
        assert twin.same
        assert twin.grids["accel"].cells() == twin.grids["reference"].cells()

    def test_no_row_past_the_counts_it_is_handed(self):
        """A walk on another thread may hold arrays a peer's commit has
        since outgrown, so the grid's owners, their anchors, the hint and
        the last located tet can name rows past the ends it is handed.
        The probe reads none of them: it returns a live tet among its
        rows."""
        tri = Triangulation3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        rng = np.random.default_rng(3)
        tri.insert_many(rng.random((600, 3)).tolist())
        mesh = tri.mesh
        handle = tri._seeds.handle
        n_v, n_t = len(mesh.points), mesh.tet_top
        for nv, nt in ((60, 40), (n_v, 40), (60, n_t)):
            coords = mesh.coords[:nv].copy()
            v2t = mesh.v2t[:nv].copy()
            tv = mesh.tet_verts_arr[:nt].copy()
            assert (v2t >= nt).any() or nv < n_v
            for x, y, z in rng.random((100, 3)).tolist():
                for hint in (-1, int(rng.integers(nt)), nt + 3):
                    code = _accel.vgrid.seed(
                        handle, coords.ctypes.data, v2t.ctypes.data, nv,
                        tv.ctypes.data, nt, x, y, z, hint, n_t - 1)
                    t = code >> 2
                    assert 0 <= t < nt and tv[t, 0] >= 0

    def test_same_mesh_and_counters_as_the_dict_grid(self, monkeypatch):
        image = abdominal_phantom(32)
        c_domain = RefineDomain(image)
        with monkeypatch.context() as m:
            m.setattr(_accel, "vgrid", None)
            ref_domain = RefineDomain(image)
        assert isinstance(ref_domain.tri._seeds, DictSeedGrid)
        for domain in (c_domain, ref_domain):
            SequentialRefiner(domain).refine()
        c_mesh, ref_mesh = c_domain.tri.mesh, ref_domain.tri.mesh
        assert c_mesh.tet_top == ref_mesh.tet_top
        assert np.array_equal(c_mesh.tet_verts_arr[:c_mesh.tet_top],
                              ref_mesh.tet_verts_arr[:ref_mesh.tet_top])
        assert _walk_counts(c_domain.tri) == _walk_counts(ref_domain.tri)
        assert c_domain.tri._seeds.cells() == ref_domain.tri._seeds.cells()
