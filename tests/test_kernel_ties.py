"""Points on axis-aligned voxel faces: the tie the isosurface makes common.

Isosurface samples sit exactly on voxel faces, so four of them sharing a
coordinate bit for bit — an exact orient3d zero — is everyday traffic.
The C kernel concludes that zero itself (a zero column needs no error
bound) and decides it as the Python kernel does; every other tie still
goes back to the Python path with nothing mutated.  These tests hold the
two kernels to one mesh store on such sets, insert by insert and removal
by removal, and pin what a RETRY or an error return leaves behind:
nothing.

Both CI parity legs run this file.  Under ``REPRO_ACCEL=0`` the two
sides of every comparison are the Python kernel — the sets still go
through it and must come out valid — and the tests that need the C
entry points skip.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _accel
from repro.api import MeshRequest, mesh as api_mesh
from repro.core import refiner as refiner_mod
from repro.core.domain import RefineDomain
from repro.delaunay import Triangulation3D
from repro.delaunay.triangulation import InsertionError, RemovalError
from repro.geometry.predicates import insphere
from repro.imaging import abdominal_phantom, sphere_phantom
from tests.test_kernel_parity import disable_accel, topo_hash

needs_accel = pytest.mark.skipif(not _accel.AVAILABLE,
                                 reason="C accelerator not built")

LO, HI = (0.0, 0.0, 0.0), (8.0, 8.0, 8.0)
#: voxel-face levels: the integer and the half-integer lattice
LEVELS = [k * 0.5 for k in range(2, 15)]
FILTER_REASONS = ("walk_filter", "insphere_filter", "orient_filter")


def voxel_face_points(seed, n_groups=6, n_generic=8, lattice=False):
    """Groups of 4-7 points sharing x, y or z exactly, a few generic
    points mixed in, shuffled.  The other two coordinates are random
    floats — then every exact tie is a shared coordinate — or, with
    ``lattice``, voxel-face levels too (cocircular, cospherical and
    collinear subsets, duplicates)."""
    rng = random.Random(seed)
    pts = []
    for _ in range(n_groups):
        axis, level = rng.randrange(3), rng.choice(LEVELS)
        for _ in range(rng.randint(4, 7)):
            p = [rng.choice(LEVELS) if lattice else rng.uniform(0.5, 7.5)
                 for _ in range(3)]
            p[axis] = level
            pts.append(tuple(p))
    pts += [tuple(rng.uniform(0.5, 7.5) for _ in range(3))
            for _ in range(n_generic)]
    rng.shuffle(pts)
    return pts


def insert_all(points):
    """Insert ``points`` one by one; the triangulation and, per point,
    the vertex id or the refusal's message.  A refusal must leave the
    store as it was."""
    tri = Triangulation3D(LO, HI)
    outcomes, hint = [], None
    for p in points:
        before = store(tri)
        try:
            v, new_tets, _ = tri.insert_point(p, hint)
        except InsertionError as exc:
            assert_same_store(store(tri), before)
            outcomes.append(str(exc))
        else:
            hint = new_tets[0]
            outcomes.append(v)
    return tri, outcomes


def store(tri):
    """Everything the mesh store holds (the circumsphere cache apart:
    the C path fills it lazily), trimmed to what is allocated."""
    m = tri.mesh
    top, nv = m.tet_top, len(m.points)
    return {
        "tet_verts": m.tet_verts_arr[:top].copy(),
        "tet_adj": m.tet_adj[:top].copy(),
        "v2t": m.v2t[:nv].copy(),
        "tet_epoch": m.tet_epoch[:top].copy(),
        "free_tets": m.free_tets(),
        "free_verts": list(m._free_verts),
        "tet_top": top,
        "n_live_tets": m.n_live_tets,
        "points": list(m.points),
        "alive_vertex": list(m.alive_vertex),
    }


def raw_arrays(tri):
    """The mesh arrays at full capacity, byte for byte, plus the lists
    and counts a kernel's glue could touch."""
    m = tri.mesh
    return (m.coords.tobytes(), m.tet_verts_arr.tobytes(),
            m.tet_adj.tobytes(), m.v2t.tobytes(), m.tet_epoch.tobytes(),
            m.tet_free.tobytes(), m.n_free_tets, list(m._free_verts),
            m.tet_top, m.n_live_tets, list(m.points),
            list(m.alive_vertex), tri._walk_state, tri._last_located)


def assert_same_store(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def retried_for_a_filter(tri):
    reasons = tri.counters.accel_retry_reasons
    return {r: reasons[r] for r in FILTER_REASONS if reasons[r]}


def live_vertices(tri):
    """Every vertex ``remove_vertex`` accepts: alive, not a box corner."""
    alive = tri.mesh.alive_vertex
    return [v for v in range(4, len(alive)) if alive[v]]


def has_flat_candidate(tri, v):
    """Does the hole of ``v`` have a boundary face whose three vertices
    share a coordinate with the lowest other link vertex?  The gift-wrap
    sweep (candidates in id order) then starts that face with a
    candidate of orientation exactly 0."""
    m = tri.mesh
    faces, link = [], set()
    for t in m.incident_tets(v):
        face = [w for w in m.tet_verts_arr[t].tolist() if w != v]
        faces.append(face)
        link.update(face)
    for face in faces:
        first = min(link.difference(face))
        for axis in range(3):
            if len({m.points[w][axis] for w in face + [first]}) == 1:
                return True
    return False


# ----------------------------------------------------------------------
# (a) insertion
# ----------------------------------------------------------------------
class TestInsertParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_shared_coordinate_sets(self, monkeypatch, seed):
        points = voxel_face_points(seed)
        tri, outcomes = insert_all(points)
        # every tie here is a shared coordinate: the C kernel concludes
        # them all (nothing at this size needs growth or a deep pop)
        assert retried_for_a_filter(tri) == {}
        assert tri.counters.accel_retries == 0
        assert all(isinstance(v, int) for v in outcomes)
        disable_accel(monkeypatch)
        ref, ref_outcomes = insert_all(points)
        assert outcomes == ref_outcomes
        assert topo_hash(tri.mesh) == topo_hash(ref.mesh)
        assert_same_store(store(tri), store(ref))
        tri.validate_topology()
        assert tri.is_delaunay(tol_exhaustive=1_000_000)

    @pytest.mark.parametrize("seed", range(4))
    def test_lattice_sets(self, monkeypatch, seed):
        # cocircular and cospherical subsets, duplicates: the other ties
        # still go to the Python path, refusals included
        points = voxel_face_points(seed, lattice=True)
        points += points[:3]
        tri, outcomes = insert_all(points)
        assert any(isinstance(o, str) for o in outcomes)
        disable_accel(monkeypatch)
        ref, ref_outcomes = insert_all(points)
        assert outcomes == ref_outcomes
        assert_same_store(store(tri), store(ref))
        tri.validate_topology()
        assert tri.is_delaunay(tol_exhaustive=1_000_000)

    @needs_accel
    def test_batched_bulk_load_does_not_break_at_a_shared_coordinate(self):
        points = voxel_face_points(11, n_groups=10)
        tri = Triangulation3D(LO, HI)
        assert None not in tri.insert_many(points)
        c = tri.counters
        assert retried_for_a_filter(tri) == {}
        assert c.accel_batch_calls == 1
        assert c.accel_batch_inserts == len(points)
        ref, _ = insert_all(points)
        assert topo_hash(tri.mesh) == topo_hash(ref.mesh)
        assert np.array_equal(tri.mesh.v2t[:len(points) + 4],
                              ref.mesh.v2t[:len(points) + 4])
        tri.validate_topology()


_levels = st.sampled_from(LEVELS)
_coords = st.one_of(_levels, st.floats(0.5, 7.5, allow_nan=False))


@st.composite
def _tie_sets(draw):
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        axis, level = draw(st.integers(0, 2)), draw(_levels)
        for _ in range(draw(st.integers(4, 6))):
            p = [draw(_coords) for _ in range(3)]
            p[axis] = level
            pts.append(tuple(p))
    pts += draw(st.lists(st.tuples(_coords, _coords, _coords), max_size=4))
    return draw(st.permutations(pts))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tie_sets())
def test_any_voxel_face_set_inserts_the_same_on_both_kernels(points):
    tri, outcomes = insert_all(points)
    with pytest.MonkeyPatch.context() as patch:
        disable_accel(patch)
        ref, ref_outcomes = insert_all(points)
    assert outcomes == ref_outcomes
    assert_same_store(store(tri), store(ref))
    tri.validate_topology()


# ----------------------------------------------------------------------
# (b) insert, then remove
# ----------------------------------------------------------------------
def remove_on_both(points, pick):
    """Build the set twice, remove ``pick(tri)``'s vertices from one
    through ``remove_vertex`` as it dispatches (the C removal when
    built) and from the other through the Python gift-wrap fill; the
    stores must agree after every removal, and a refused removal must
    leave them as they were.  Returns the first triangulation and what
    was removed."""
    tri, _ = insert_all(points)
    ref, _ = insert_all(points)
    removed = []
    for v in pick(tri):
        before = store(tri)
        outcome = []
        for side in (tri, ref):
            with pytest.MonkeyPatch.context() as patch:
                if side is ref:
                    disable_accel(patch)
                try:
                    outcome.append(side.remove_vertex(v))
                except RemovalError as exc:
                    outcome.append(str(exc))
        assert outcome[0] == outcome[1]
        assert_same_store(store(tri), store(ref))
        tri.validate_topology()
        if isinstance(outcome[0], str):
            assert_same_store(store(tri), before)
        else:
            removed.append(v)
    return tri, removed


class TestRemoveParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_shared_coordinate_sets(self, seed):
        points = voxel_face_points(seed, n_groups=8, n_generic=16)
        tri, removed = remove_on_both(
            points, lambda tri: live_vertices(tri)[:12])
        assert len(removed) >= 3
        assert tri.is_delaunay(tol_exhaustive=1_000_000)
        if _accel.AVAILABLE:
            assert retried_for_a_filter(tri) == {}
            assert tri.counters.accel_removals == len(removed)
            assert tri.counters.accel_remove_retries == 0

    def test_link_with_a_flat_candidate(self):
        # a hole face on a voxel face, and a fourth link vertex on the
        # same voxel face: orientation exactly 0, which is no candidate
        flat = []

        def pick(tri):
            flat.extend(v for v in live_vertices(tri)
                        if has_flat_candidate(tri, v))
            return flat

        # the groups first, so that the voxel faces hold the low ids
        points = voxel_face_points(5, n_groups=14, n_generic=0)
        points += voxel_face_points(5, n_groups=0, n_generic=20)
        tri, removed = remove_on_both(points, pick)
        assert len(removed) >= 5
        if _accel.AVAILABLE:
            assert tri.counters.accel_removals == len(removed)
            assert tri.counters.accel_remove_retries == 0

    def test_lattice_sets(self):
        # cospherical links: the C fill gives up, the Python gift-wrap's
        # tie handling (or its refusal) is what both sides end with
        points = voxel_face_points(1, n_groups=10, lattice=True)
        tri, _ = remove_on_both(
            points, lambda tri: live_vertices(tri)[:10])
        if _accel.AVAILABLE:
            assert tri.counters.accel_remove_retries > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_tie_sets(), st.randoms(use_true_random=False))
def test_any_voxel_face_set_removes_the_same_on_both_kernels(points, rng):
    def pick(tri):
        live = live_vertices(tri)
        return rng.sample(live, min(len(live), 8))

    remove_on_both(points, pick)


# ----------------------------------------------------------------------
# (c) a RETRY or an error return mutates nothing
# ----------------------------------------------------------------------
@needs_accel
class TestNothingMutatedBeforeVerified:
    def test_removal_retry(self):
        # the centre of an octahedron: six cospherical link vertices, a
        # tie only the Python sweep resolves
        tri = Triangulation3D(LO, HI)
        for axis in range(3):
            for step in (-1.0, 1.0):
                p = [4.0, 4.0, 4.0]
                p[axis] += step
                tri.insert_point(tuple(p))
        centre, _, _ = tri.insert_point((4.0, 4.0, 4.0))
        before = raw_arrays(tri)
        retries = dict(tri.counters.accel_retry_reasons)
        assert tri._remove_vertex_c(centre) is None
        assert raw_arrays(tri) == before
        assert tri.counters.accel_remove_retries == 1
        retries["insphere_filter"] += 1
        assert tri.counters.accel_retry_reasons == retries
        # and the operation itself still goes through, in Python
        tri.remove_vertex(centre)
        tri.validate_topology()

    def test_removal_retry_on_a_stale_anchor(self):
        tri, _ = insert_all(voxel_face_points(0))
        v = live_vertices(tri)[0]
        tri.mesh.v2t[v] = -1
        before = raw_arrays(tri)
        assert tri._remove_vertex_c(v) is None
        assert raw_arrays(tri) == before
        assert tri.counters.accel_retry_reasons["other"] == 1

    def test_insert_retry(self):
        # a point rounded onto a face's plane with no coordinate shared:
        # the near-coplanar quadruple the filter cannot conclude
        tri, _ = insert_all(voxel_face_points(2, n_groups=0, n_generic=20))
        m = tri.mesh
        t = next(t for t in m.live_tets()
                 if min(m.tet_verts_arr[t].tolist()) >= 4)
        a, b, c = (m.points[w] for w in m.tet_verts_arr[t].tolist()[:3])
        p = tuple((a[i] + b[i] + c[i]) / 3.0 for i in range(3))
        before = raw_arrays(tri)
        assert tri._insert_point_c(p, None) is None
        assert raw_arrays(tri) == before
        assert retried_for_a_filter(tri) != {}
        tri.insert_point(p)
        tri.validate_topology()

    @pytest.mark.parametrize("shared", [True, False])
    def test_commit_refuses_a_point_on_a_cavity_face(self, shared):
        # A hand-made "cavity" of one tet with the point on one of its
        # faces: sharing that face's coordinate the C validation
        # concludes the zero and refuses as the Python commit does;
        # without a shared coordinate it cannot conclude and retries.
        tri = Triangulation3D(LO, HI)
        corners = [(2.0, 2.5, 3.0), (6.0, 3.0, 3.0), (3.5, 6.0, 3.0),
                   (4.0, 4.0, 6.5)]
        if not shared:      # tilt the base off the voxel face
            corners[1] = (6.0, 3.0, 3.7)
            corners[2] = (3.5, 6.0, 2.6)
        ids = [tri.insert_point(p)[0] for p in corners]
        m = tri.mesh
        t = next(t for t in m.live_tets()
                 if sorted(m.tet_verts_arr[t].tolist()) == sorted(ids))
        a, b, c = corners[:3]
        p = tuple((a[i] + b[i] + c[i]) / 3.0 for i in range(3))
        boundary = [(t, i) for i in range(4)]
        before = raw_arrays(tri)
        if shared:
            with pytest.raises(InsertionError, match="cavity face"):
                tri._commit_insertion_c(p, [t], boundary)
            with pytest.raises(InsertionError, match="cavity face"):
                tri._commit_insertion(p, [t], boundary)
        else:
            assert tri._commit_insertion_c(p, [t], boundary) is None
            assert tri.counters.accel_retry_reasons["orient_filter"] == 1
        assert raw_arrays(tri) == before

    def test_commit_refuses_an_open_boundary(self):
        tri, _ = insert_all(voxel_face_points(5))
        m = tri.mesh
        t = next(m.live_tets())
        p = tuple(sum(m.points[w][i] for w in m.tet_verts_arr[t].tolist())
                  / 4.0 for i in range(3))
        boundary = [(t, i) for i in range(3)]       # one face missing
        before = raw_arrays(tri)
        with pytest.raises(InsertionError, match="closed surface"):
            tri._commit_insertion_c(p, [t], boundary)
        with pytest.raises(InsertionError, match="closed surface"):
            tri._commit_insertion(p, [t], boundary)
        assert raw_arrays(tri) == before


# ----------------------------------------------------------------------
# (d) one tet-slot allocator: both kernels pop, push and bump alike
# ----------------------------------------------------------------------
def allocator(tri):
    """The tet allocator: the live part of the free stack, the epochs,
    the tail and the live count."""
    m = tri.mesh
    return (m.free_tets(), m.tet_epoch[:m.tet_top].tolist(), m.tet_top,
            m.n_live_tets)


def skew_needles(n=6, half=0.5):
    """Two rows of ``n`` points along skew segments a unit apart, bent
    a little so that no four are coplanar, and a point between them.
    Removing that point fills its ball with more tets than it had: the
    tets spanning two skew rows grow with the square of their length,
    the ball's faces with the length."""
    rng = random.Random(n)
    pts = []
    for k in range(n):
        t = -half + 2 * half * k / (n - 1) + rng.uniform(-.01, .01)
        pts.append((4 + t, 4 + rng.uniform(-.003, .003),
                    4.5 - 0.02 * t * t))
        s = -half + 2 * half * k / (n - 1) + rng.uniform(-.01, .01)
        pts.append((4 + rng.uniform(-.003, .003), 4 + s,
                    3.5 + 0.02 * s * s))
    return pts + [(4.0013, 3.9971, 4.0023)]


def test_one_allocator_for_both_kernels():
    """One seeded sequence through both kernels — scalar inserts, one
    batch, a removal whose fill is smaller than its ball and one whose
    fill is larger, speculative commits — leaves the same allocator
    after every step."""
    rng = random.Random(30)
    far = [p for p in (tuple(rng.uniform(0.5, 7.5) for _ in range(3))
                       for _ in range(200))
           if max(abs(c - 4.0) for c in p) > 1.5]
    tri, ref = Triangulation3D(LO, HI), Triangulation3D(LO, HI)

    def on_both(op):
        outcome = []
        for side in (tri, ref):
            with pytest.MonkeyPatch.context() as patch:
                if side is ref:
                    disable_accel(patch)
                outcome.append(op(side))
        assert allocator(tri) == allocator(ref)
        return outcome[0]

    hint = None
    for p in skew_needles() + far[:20]:
        v, new_tets, _ = on_both(lambda side: side.insert_point(p, hint))
        hint = new_tets[0]
    centre = v - 20
    assert None not in on_both(lambda side: side.insert_many(far[20:80]))

    shrink = next(w for w in live_vertices(tri)
                  if w != centre and not tri.is_box_vertex(w))
    grown = []
    for w in (shrink, centre):
        new_tets, ball = on_both(lambda side: side.remove_vertex(w))
        grown.append(len(new_tets) > len(ball))
    assert grown == [False, True]

    c = tri.counters
    accel_inserts = c.accel_inserts
    for p in far[80:100]:
        on_both(lambda side: side.insert_point(p, touch=lambda v: None))
    tri.validate_topology()
    assert topo_hash(tri.mesh) == topo_hash(ref.mesh)
    assert c.commits == 20
    if _accel.AVAILABLE:   # every step ran in C
        assert c.accel_batch_calls >= 1
        assert c.accel_removals == 2
        assert c.accel_inserts == accel_inserts + 20


@needs_accel
def test_circumsphere_cache_answers_for_the_slot_owner_only():
    """A record ``compute_cavity`` cached for a slot the C batch then
    hands to a new tet is not that tet's: the next search recomputes it
    and answers as ``insphere`` does."""
    tri, _ = insert_all(voxel_face_points(3, n_groups=0, n_generic=30))
    m = tri.mesh
    p, q = (2.1, 3.3, 4.7), (2.3, 3.1, 4.4)
    cavity, _ = tri.compute_cavity(p)
    t = cavity[-1]        # the top of the free stack once p is in
    stale = m.tet_cc[t]
    assert stale is not None and stale[-1] == m.tet_epoch[t]
    batches = tri.counters.accel_batch_calls
    assert None not in tri.insert_many([p, q])
    assert tri.counters.accel_batch_calls == batches + 1
    assert m.is_live(t) and m.tet_epoch[t] == stale[-1] + 1
    assert m.tet_cc[t] is stale   # the kernel left the record alone

    rows = [m.points[w] for w in m.tet_verts_arr[t].tolist()]
    inside = tuple(sum(r[i] for r in rows) / 4.0 for i in range(3))
    computed = tri.counters.cc_computed
    cavity, boundary = tri.compute_cavity(inside, hint=t)
    assert tri.counters.cc_computed > computed
    assert m.tet_cc[t][-1] == m.tet_epoch[t]

    def conflict(s):
        a, b, c, d = (m.points[w] for w in m.tet_verts_arr[s].tolist())
        return insphere(a, b, c, d, inside) > 0

    assert t in cavity and all(conflict(s) for s in cavity)
    outside = [int(m.tet_adj[s, i]) for s, i in boundary]
    assert not any(conflict(o) for o in outside if o >= 0)


# ----------------------------------------------------------------------
# (e) the next generation is the born ids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("image", [sphere_phantom(20), abdominal_phantom(24)],
                         ids=["sphere20", "abdominal24"])
def test_born_ids_are_the_epoch_validated_generation(monkeypatch, image):
    """What ``next_generation`` keeps of the ids born is, generation by
    generation, what a list of ``(tet, epoch)`` pushes would validate."""
    pushed, reborn = [], []
    refine_tet = RefineDomain.refine_tet
    next_generation = refiner_mod.next_generation

    def recording(domain, t, touch=None):
        result = refine_tet(domain, t, touch)
        if not result.skipped:
            epoch = domain.tri.mesh.tet_epoch
            pushed.extend((nt, epoch[nt]) for nt in result.new_tets)
        return result

    def checking(mesh, born):
        kept = next_generation(mesh, born)
        assert [t for t, _ in pushed] == list(born)
        assert kept.tolist() == [
            t for t, e in pushed
            if mesh.tet_verts_arr[t, 0] >= 0 and mesh.tet_epoch[t] == e]
        births = np.bincount(np.asarray(born, dtype=np.int64), minlength=1)
        reborn.append(int(births.max()))
        pushed.clear()
        return kept

    monkeypatch.setattr(RefineDomain, "refine_tet", recording)
    monkeypatch.setattr(refiner_mod, "next_generation", checking)
    result = api_mesh(MeshRequest(image=image, mesher="sequential"))
    assert result.ok and len(reborn) > 5
    # a slot killed and recycled at least twice inside one generation
    assert max(reborn) >= 3
