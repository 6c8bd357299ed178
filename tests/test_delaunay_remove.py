"""Tests for vertex removal (ball re-triangulation, paper Section 4.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delaunay import RemovalError, RollbackSignal, Triangulation3D


def make_mesh(n_points=30, seed=4):
    tri = Triangulation3D((0, 0, 0), (1, 1, 1))
    rng = random.Random(seed)
    verts = []
    for _ in range(n_points):
        p = tuple(rng.uniform(0.02, 0.98) for _ in range(3))
        v, _, _ = tri.insert_point(p)
        verts.append(v)
    return tri, verts


class TestRemoval:
    def test_insert_then_remove_single(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        v, _, _ = tri.insert_point((0.5, 0.5, 0.5))
        new_tets, killed = tri.remove_vertex(v)
        assert tri.n_vertices == 4
        assert tri.n_tets == 1  # back to the virtual simplex
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_remove_restores_delaunay(self):
        tri, verts = make_mesh(25)
        rng = random.Random(0)
        victim = rng.choice(verts)
        tri.remove_vertex(victim)
        tri.validate_topology()
        assert tri.is_delaunay()
        assert tri.n_vertices == 4 + 24

    def test_remove_many(self):
        tri, verts = make_mesh(40, seed=8)
        rng = random.Random(1)
        rng.shuffle(verts)
        removed = 0
        for v in verts[:20]:
            tri.remove_vertex(v)
            removed += 1
        tri.validate_topology()
        assert tri.is_delaunay()
        assert tri.n_vertices == 4 + 40 - removed

    def test_remove_all_returns_to_box(self):
        tri, verts = make_mesh(15, seed=2)
        rng = random.Random(3)
        rng.shuffle(verts)
        for v in verts:
            tri.remove_vertex(v)
        assert tri.n_vertices == 4
        assert tri.n_tets == 1
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_box_vertex_removal_rejected(self):
        tri, _ = make_mesh(10)
        for bv in range(4):
            with pytest.raises(RemovalError):
                tri.remove_vertex(bv)

    def test_dead_vertex_removal_rejected(self):
        tri, verts = make_mesh(10)
        tri.remove_vertex(verts[0])
        with pytest.raises(RemovalError):
            tri.remove_vertex(verts[0])

    def test_removal_failure_leaves_mesh_untouched(self):
        tri, verts = make_mesh(10)
        n_t, n_v = tri.n_tets, tri.n_vertices
        with pytest.raises(RemovalError):
            tri.remove_vertex(0)  # box vertex
        assert (tri.n_tets, tri.n_vertices) == (n_t, n_v)

    def test_volume_conserved_by_removal(self):
        from repro.geometry.quality import tet_volume

        tri, verts = make_mesh(20, seed=6)

        def total():
            return sum(
                tet_volume(*tri.tet_points(t)) for t in tri.mesh.live_tets()
            )

        v0 = total()
        rng = random.Random(5)
        for v in rng.sample(verts, 10):
            tri.remove_vertex(v)
        assert total() == pytest.approx(v0, rel=1e-9)

    def test_touch_abort_leaves_mesh_untouched(self):
        tri, verts = make_mesh(15, seed=9)
        n_t, n_v = tri.n_tets, tri.n_vertices
        calls = []

        def bomb(w):
            calls.append(w)
            if len(calls) == 5:
                raise RollbackSignal(owner=1)

        with pytest.raises(RollbackSignal):
            tri.remove_vertex(verts[3], touch=bomb)
        assert (tri.n_tets, tri.n_vertices) == (n_t, n_v)
        tri.validate_topology()
        assert tri.is_delaunay()

    def test_on_commit_runs_before_the_slot_is_freed(self):
        # Records kept by vertex id are dropped here: once the slot is
        # on the free list a peer thread's insertion may be handed it.
        tri, verts = make_mesh(15, seed=9)
        mesh, v = tri.mesh, verts[3]
        seen = []
        tri.remove_vertex(v, touch=lambda w: None, on_commit=lambda:
                          seen.append((mesh.alive_vertex[v],
                                       v in mesh._free_verts,
                                       tri._commit_lock.locked())))
        assert seen == [(True, False, True)]
        assert mesh._free_verts[-1] == v and not mesh.alive_vertex[v]

    def test_on_commit_runs_once_sequentially(self):
        # No peer can be handed the slot: only "once, on success" holds.
        tri, verts = make_mesh(15, seed=9)
        seen = []
        tri.remove_vertex(verts[3], on_commit=lambda: seen.append(1))
        assert seen == [1]

    def test_on_commit_not_called_when_nothing_commits(self):
        tri, verts = make_mesh(15, seed=9)
        seen = []

        def bomb(w):
            raise RollbackSignal(owner=1)

        with pytest.raises(RollbackSignal):
            tri.remove_vertex(verts[3], touch=bomb,
                              on_commit=lambda: seen.append(1))
        with pytest.raises(RemovalError):
            tri.remove_vertex(0, on_commit=lambda: seen.append(1))
        assert seen == []

    def test_interleaved_insert_remove(self):
        tri = Triangulation3D((0, 0, 0), (1, 1, 1))
        rng = random.Random(12)
        alive = []
        for step in range(120):
            if alive and rng.random() < 0.35:
                v = alive.pop(rng.randrange(len(alive)))
                tri.remove_vertex(v)
            else:
                p = tuple(rng.uniform(0.02, 0.98) for _ in range(3))
                v, _, _ = tri.insert_point(p)
                alive.append(v)
        tri.validate_topology()
        assert tri.is_delaunay()
        assert tri.n_vertices == 4 + len(alive)

    def test_removal_returns_new_and_killed(self):
        tri, verts = make_mesh(12, seed=20)
        ball_before = tri.mesh.incident_tets(verts[5])
        new_tets, killed = tri.remove_vertex(verts[5])
        assert set(killed) == set(ball_before)
        for t in new_tets:
            assert tri.mesh.is_live(t)
            assert verts[5] not in tri.mesh.tet_verts_arr[t].tolist()


coords = st.floats(min_value=0.02, max_value=0.98, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(coords, coords, coords), min_size=3, max_size=18),
    st.randoms(use_true_random=False),
)
def test_insert_remove_random_walk_property(points, rng):
    """Random interleavings of insert/remove preserve all invariants."""
    tri = Triangulation3D((0, 0, 0), (1, 1, 1))
    alive = []
    from repro.delaunay import InsertionError

    for p in points:
        try:
            v, _, _ = tri.insert_point(p)
            alive.append(v)
        except InsertionError:
            continue
        if alive and rng.random() < 0.4:
            victim = alive.pop(rng.randrange(len(alive)))
            tri.remove_vertex(victim)
    tri.validate_topology()
    assert tri.is_delaunay()
    assert tri.n_vertices == 4 + len(alive)
