"""Kernel-benchmark trend report: history + drift table.

The 20% regression gate in ``kernel_bench.py --check-regression`` only
trips on a cliff; slow drift across many PRs sails under it.  This tool
makes the drift visible:

* ``--record BENCH_kernels.json`` appends one compact record (label,
  python/accel inserts-per-second, speedup) to the history file
  ``benchmarks/results/BENCH_kernels_history.jsonl``;
* the default invocation renders the history as a fixed-width table
  in ``benchmarks/results/BENCH_trend.txt`` (and to stdout), flagging
  any entry whose speedup dropped more than ``--drift-threshold``
  (default 10%) against the best ever seen.

CI records with ``--label "$GITHUB_SHA"`` after the bench run, so the
uploaded artifact carries the full table; locally, run it after
``kernel_bench.py`` to see where your branch stands::

    PYTHONPATH=src python benchmarks/kernel_bench.py --fast \
        -o BENCH_kernels.json
    PYTHONPATH=src python benchmarks/trend_report.py \
        --record BENCH_kernels.json --label my-branch
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_HISTORY = RESULTS_DIR / "BENCH_kernels_history.jsonl"
DEFAULT_REPORT = RESULTS_DIR / "BENCH_trend.txt"


def record(bench_path: pathlib.Path, history_path: pathlib.Path,
           label: str, rebaseline: str = ""):
    """Append one history record distilled from a BENCH_kernels.json.

    Returns the record, or ``None`` when the bench file is absent or
    unreadable — a skipped/failed bench run must not take the trend
    report (and the CI step behind it) down with it.

    ``rebaseline`` (a short reason string) marks this record as a new
    drift baseline: the report compares later entries against the best
    speedup *since the latest marker* instead of the best ever.  Use it
    when the speedup ratio legitimately moved — e.g. the python
    reference path got faster — so the DRIFT flag measures real
    accelerator regressions again instead of a stale denominator.
    """
    if not bench_path.exists():
        print(f"warning: no benchmark results at {bench_path}; "
              "nothing recorded", file=sys.stderr)
        return None
    try:
        doc = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: unreadable benchmark results {bench_path}: {exc}",
              file=sys.stderr)
        return None
    if not isinstance(doc, dict) or not doc:
        print(f"warning: empty benchmark results {bench_path}; "
              "nothing recorded", file=sys.stderr)
        return None
    accel = doc.get("accel_path", {})
    voxel_face = doc.get("voxel_face", {}).get("accel") or {}
    rec = {
        "label": label,
        **({"rebaseline": rebaseline} if rebaseline else {}),
        "schema": doc.get("schema"),
        "python_inserts_per_second":
            doc.get("python_path", {}).get("inserts_per_second"),
        "accel_inserts_per_second": accel.get("inserts_per_second"),
        "accel_available": bool(accel.get("available")),
        "speedup": doc.get("speedup_accel_over_python"),
        "reference_speedup": doc.get("reference_speedup"),
        # schema 2: vertex-removal and batched-insertion workloads
        "removal_speedup": doc.get("removal", {}).get("speedup"),
        "batch_speedup": doc.get("batch", {}).get("speedup"),
        # since PR 18: the machine, and the voxel-face replay
        "cpus": doc.get("cpus"),
        "voxel_face_inserts_per_second": voxel_face.get("inserts_per_second"),
        "voxel_face_removals_per_second":
            voxel_face.get("removals_per_second"),
        "voxel_face_accel_retry_share": voxel_face.get("accel_retry_share"),
        # schema 5: batched closest-surface-point rays over the scalar
        # loop.  From schema 7 it means something else: the C batch over
        # the Python reference traversal (one call a ray); the C scalar
        # over the same reference is rays_scalar_speedup.
        "rays_speedup": doc.get("rays", {}).get("speedup"),
        "rays_scalar_speedup": doc.get("rays", {}).get("scalar_speedup"),
        # schema 6: the replayed δ-grid calls, C grid over the reference
        "grid_speedup": (doc.get("grid") or {}).get("speedup"),
        # schema 8: the C judge over the Python judge, and the C vertex
        # grid and seed probe over the dict reference
        "judge_speedup": (doc.get("judge") or {}).get("speedup"),
        "seed_speedup": (doc.get("seed") or {}).get("speedup"),
    }
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    return rec


def load_history(history_path: pathlib.Path) -> list:
    if not history_path.exists():
        return []
    out = []
    for line in history_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            # A mangled line (merge conflict debris) must not take the
            # report down with it; skip and say so.
            print(f"warning: skipping unparseable history line: {line[:60]}",
                  file=sys.stderr)
    return out


def _fmt(value, width, nd=1):
    if value is None:
        return "-".rjust(width)
    return f"{value:,.{nd}f}".rjust(width)


def _baseline_window(history: list) -> list:
    """Records from the latest rebaseline marker on (all, if none)."""
    start = 0
    for i, r in enumerate(history):
        if r.get("rebaseline"):
            start = i
    return history[start:]


def render(history: list, drift_threshold: float) -> str:
    """Fixed-width drift table; one row per recorded run.

    Drift compares against the best speedup inside the current
    *baseline window* — everything since the latest record carrying a
    ``rebaseline`` marker.  Rows before the window keep their history
    but are never used as the comparison denominator.
    """
    lines = [
        "kernel benchmark trend (insert-uniform-box)",
        "",
        f"{'label':<24} {'python ips':>12} {'accel ips':>12} "
        f"{'speedup':>8} {'rm x':>7} {'batch x':>7} {'rays x':>7} "
        f"{'grid x':>7} {'judge x':>7} {'seed x':>7}  note",
        "-" * 120,
    ]
    window = _baseline_window(history)
    best = max((r.get("speedup") or 0.0 for r in window), default=0.0)
    best_rm = max((r.get("removal_speedup") or 0.0 for r in window),
                  default=0.0)
    in_window = set(map(id, window))
    for r in history:
        speedup = r.get("speedup")
        rm = r.get("removal_speedup")
        note = ""
        if r.get("rebaseline"):
            note = f"REBASELINE: {r['rebaseline']}"
        elif not r.get("accel_available"):
            note = "accel unavailable"
        elif id(r) not in in_window:
            pass  # pre-window: shown, never drift-flagged
        elif len(window) == 1:
            # A window of one has nothing to drift against: comparing
            # the sole record to itself always reads 0% and would
            # imply a baseline exists.  Say so instead.
            note = "n=1 (no baseline)"
        elif best > 0 and speedup is not None:
            drop = 1.0 - speedup / best
            if drop > drift_threshold:
                note = f"DRIFT -{drop:.0%} vs best {best:.2f}x"
            elif best_rm > 0 and rm is not None:
                rm_drop = 1.0 - rm / best_rm
                if rm_drop > drift_threshold:
                    note = (f"RM DRIFT -{rm_drop:.0%} "
                            f"vs best {best_rm:.2f}x")
        lines.append(
            f"{str(r.get('label', '?')):<24.24} "
            f"{_fmt(r.get('python_inserts_per_second'), 12)} "
            f"{_fmt(r.get('accel_inserts_per_second'), 12)} "
            f"{_fmt(speedup, 8, 2)} {_fmt(rm, 7, 2)} "
            f"{_fmt(r.get('batch_speedup'), 7, 2)} "
            f"{_fmt(r.get('rays_speedup'), 7, 2)} "
            f"{_fmt(r.get('grid_speedup'), 7, 2)} "
            f"{_fmt(r.get('judge_speedup'), 7, 2)} "
            f"{_fmt(r.get('seed_speedup'), 7, 2)}  {note}"
        )
    if not history:
        lines.append("(no history recorded yet)")
    lines.append("")
    lines.append("rays x: the numpy batch over the Python scalar loop up "
                 "to schema 6; the C batch over the Python reference from "
                 "schema 7")
    lines.append("judge x / seed x (schema 8): the C judge over the Python "
                 "judge, the C vertex grid and seed probe over the dict")
    if best > 0:
        lines.append(f"best speedup in baseline window: {best:.2f}x; "
                     f"drift flagged beyond {drift_threshold:.0%} below "
                     "best")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="BENCH_JSON",
                        help="append this BENCH_kernels.json to the history")
    parser.add_argument("--label", default="local",
                        help="history label for --record (branch, SHA, ...)")
    parser.add_argument("--rebaseline", default="", metavar="REASON",
                        help="mark the --record entry as a new drift "
                             "baseline (drift compares against the best "
                             "speedup since the latest marker)")
    parser.add_argument("--history", default=str(DEFAULT_HISTORY))
    parser.add_argument("-o", "--output", default=str(DEFAULT_REPORT))
    parser.add_argument("--drift-threshold", type=float, default=0.10,
                        help="flag entries this far below the best speedup")
    args = parser.parse_args(argv)

    history_path = pathlib.Path(args.history)
    if args.record:
        rec = record(pathlib.Path(args.record), history_path, args.label,
                     rebaseline=args.rebaseline)
        if rec is None:
            print("no benchmark results to record; rendering existing "
                  "history (if any)")
        else:
            print(f"recorded {rec['label']}: speedup "
                  f"{rec['speedup'] if rec['speedup'] is not None else 'n/a'}")

    report = render(load_history(history_path), args.drift_threshold)
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report)
    print(report, end="")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
