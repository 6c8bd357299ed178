"""Table 6 — single-threaded PI2M vs CGAL-like vs TetGen-like.

Paper: on the knee and head-neck atlases, reports tets/second, time,
element count, max radius-edge ratio, smallest boundary planar angle,
dihedral range and Hausdorff distance for the three meshers, with
TetGen consuming the isosurface triangulation PI2M recovered.

Expected shape: PI2M's rate beats the CGAL-like baseline on both
inputs (the paper's claim, ``test_table6_rate_claim``: an expected
failure on each input where this reproduction misses it, strict where
it misses it every time, see EXPERIMENTS.md); PI2M/CGAL quality is
comparable; the TetGen-like
baseline's boundary planar angles are worse (no boundary planar-angle
control).
Wall-clock times are real (this bench does not use the simulator):
after an untimed warm-up the three meshers are timed in interleaved
rounds and each keeps its fastest, so neither the process's cold start
nor a busy spell on the box is charged to one of them.
"""

import time

import pytest

from benchmarks.conftest import publish
from repro.baselines import CGALLikeMesher, TetGenLikeMesher
from repro.core import _mesh_image as mesh_image
from repro.imaging.isosurface import SurfaceOracle
from repro.metrics import hausdorff_distance, quality_report
from repro.reporting import Table


ROUNDS = 5


def run_one_input(image, label):
    oracle = SurfaceOracle(image)
    h = image.min_spacing

    def run_pi2m():  # includes the EDT, like the paper
        return mesh_image(image, delta=2.0 * h).mesh

    # Untimed: the mesh that sizes both baselines, and the process's
    # cold start (imports, the kernel's first call).
    pi2m = run_pi2m()

    # The paper sets the baselines' sizing "to values that produced
    # meshes of similar size to ours, since generally, meshes with more
    # elements exhibit better quality and fidelity."  Calibrate the
    # CGAL-like parameters the same way: one probe run, then rescale.
    probe = CGALLikeMesher(
        image, facet_distance=0.8 * h, cell_size=3.5 * h).refine()
    ratio = (probe.n_tets / max(1, pi2m.n_tets)) ** (1.0 / 3.0)

    def run_cgal():
        return CGALLikeMesher(
            image,
            facet_distance=0.8 * h * ratio,
            cell_size=3.5 * h * ratio,
        ).refine()

    lo, hi = image.foreground_bounds()
    seeds = [(tuple(0.5 * (lo[i] + hi[i]) for i in range(3)), 1)]

    def run_tetgen():
        return TetGenLikeMesher(
            pi2m.vertices, pi2m.boundary_faces, seeds).refine()

    # Each round times the three meshers one after the other, so a busy
    # spell on a shared box falls on all of them; every run of a mesher
    # builds the same mesh, and its time is its fastest round.
    best = {}
    for _ in range(ROUNDS):
        for name, run in (("PI2M", run_pi2m), ("CGAL-like", run_cgal),
                          ("TetGen-like", run_tetgen)):
            t0 = time.perf_counter()
            mesh = run()
            seconds = time.perf_counter() - t0
            if name not in best or seconds < best[name][1]:
                best[name] = (mesh, seconds)
    return {name: (mesh, seconds,
                   None if name == "TetGen-like"  # PLC input: no Hausdorff row
                   else hausdorff_distance(mesh, image, oracle))
            for name, (mesh, seconds) in best.items()}


def render(rows, label):
    table = Table(
        f"Table 6 ({label}) — single-threaded comparison",
        ["metric", "PI2M", "CGAL-like", "TetGen-like"],
    )
    names = ("PI2M", "CGAL-like", "TetGen-like")
    reports = {n: quality_report(rows[n][0]) for n in names}
    table.add_row(["#tets / second"] + [
        int(rows[n][0].n_tets / rows[n][1]) for n in names
    ])
    table.add_row(["time (s)"] + [round(rows[n][1], 2) for n in names])
    table.add_row(["#tetrahedra"] + [rows[n][0].n_tets for n in names])
    table.add_row(["max radius-edge ratio"] + [
        round(reports[n].max_radius_edge, 2) for n in names
    ])
    table.add_row(["smallest boundary planar angle"] + [
        round(reports[n].min_boundary_planar_angle_deg, 1) for n in names
    ])
    table.add_row(["(min, max) dihedral angles"] + [
        f"({reports[n].min_dihedral_deg:.1f}, "
        f"{reports[n].max_dihedral_deg:.1f})"
        for n in names
    ])
    table.add_row(["Hausdorff distance"] + [
        round(rows[n][2], 2) if rows[n][2] is not None else "n/a"
        for n in names
    ])
    return table.render(), reports


_ROWS = {}  # input -> the rows its table test measured, for the rate claim


@pytest.mark.benchmark(group="table6")
def test_table6_knee(benchmark, knee, results_dir):
    rows = _ROWS["knee"] = benchmark.pedantic(
        run_one_input, args=(knee, "knee"), rounds=1, iterations=1)
    text, reports = render(rows, "knee phantom")
    publish(results_dir, "table6_knee.txt", text)
    _assert_shape(rows, reports)


@pytest.mark.benchmark(group="table6")
def test_table6_head_neck(benchmark, head_neck, results_dir):
    rows = _ROWS["head_neck"] = benchmark.pedantic(
        run_one_input, args=(head_neck, "head-neck"), rounds=1, iterations=1)
    text, reports = render(rows, "head-neck phantom")
    publish(results_dir, "table6_head_neck.txt", text)
    _assert_shape(rows, reports)


def _assert_shape(rows, reports):
    # Both quality-controlled meshers respect the radius-edge bound.
    assert reports["PI2M"].max_radius_edge <= 2.0 + 1e-6
    assert reports["CGAL-like"].max_radius_edge <= 2.0 + 1e-6
    # Fidelity of both isosurface meshers is bounded by a few voxels.
    assert rows["PI2M"][2] < 8.0
    assert rows["CGAL-like"][2] < 8.0
    # TetGen has no boundary planar-angle control; the isosurface
    # meshers hold 30 degrees.
    assert reports["TetGen-like"].min_boundary_planar_angle_deg < min(
        reports[n].min_boundary_planar_angle_deg
        for n in ("PI2M", "CGAL-like"))


# The paper's claim: PI2M's rate beats CGAL's (by 40-300 %) at similar
# mesh sizes.  All three meshers run the same kernel, walk, circumball
# store, ray traversal and extractor, so this compares rule sets
# (EXPERIMENTS.md, Table 6, has every run; ROADMAP item 5 is the open
# issue).  The assertion is the claim itself, not a fraction of it.
# Since PR 24 PI2M's R1 rays are answered a generation at a time while
# the CGAL-like facet rays are still one call each.  Knee: PI2M behind
# in 16 of 16 runs (0.81-0.88x), so the marker is strict and the run
# fails the day the input starts to hold.  Head-neck: PI2M ahead in 15
# of 16, by 0-5 % -- level within the noise of the box, where a strict
# marker and no marker would each fail the suite on a coin flip, so that
# one is not strict.
_MISSED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="Table 6 rate claim not reproduced on the shared walk")
_LEVEL = pytest.mark.xfail(
    strict=False, raises=AssertionError,
    reason="Table 6 rate claim level on head-neck: PI2M ahead in 15 of 16 "
           "runs at PR 24, by 0-5 %")


@pytest.mark.parametrize("name", [pytest.param("knee", marks=_MISSED),
                                  pytest.param("head_neck", marks=_LEVEL)])
def test_table6_rate_claim(name, request):
    rows = _ROWS.get(name) or run_one_input(request.getfixturevalue(name), name)
    pi2m_rate = rows["PI2M"][0].n_tets / rows["PI2M"][1]
    cgal_rate = rows["CGAL-like"][0].n_tets / rows["CGAL-like"][1]
    assert pi2m_rate > cgal_rate, (
        f"PI2M {pi2m_rate:.0f} tets/s vs CGAL-like {cgal_rate:.0f}")
