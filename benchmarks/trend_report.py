"""Kernel-benchmark trend report: history + drift table.

The 20% regression gate in ``kernel_bench.py --check-regression`` only
trips on a cliff; slow drift across many PRs sails under it.  This tool
makes the drift visible:

* ``--record BENCH_kernels.json`` appends one compact record (label,
  python/accel inserts-per-second, speedup) to the history file
  ``benchmarks/results/BENCH_kernels_history.jsonl``;
* ``--record-service BENCH_service.json`` does the same for the
  service executor benchmark (thread vs process jobs-per-second) into
  ``benchmarks/results/BENCH_service_history.jsonl``;
* the default invocation renders both histories as fixed-width tables
  in ``benchmarks/results/BENCH_trend.txt`` (and to stdout), flagging
  any entry whose speedup dropped more than ``--drift-threshold``
  (default 10%) against the best ever seen.

CI records with ``--label "$GITHUB_SHA"`` after the bench run, so the
uploaded artifact carries the full table; locally, run it after
``kernel_bench.py`` to see where your branch stands::

    PYTHONPATH=src python benchmarks/kernel_bench.py --fast
    PYTHONPATH=src python benchmarks/trend_report.py \
        --record benchmarks/results/BENCH_kernels.json --label my-branch
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
DEFAULT_HISTORY = RESULTS_DIR / "BENCH_kernels_history.jsonl"
DEFAULT_SERVICE_HISTORY = RESULTS_DIR / "BENCH_service_history.jsonl"
DEFAULT_SHARD_HISTORY = RESULTS_DIR / "BENCH_shard_history.jsonl"
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
        # schema 5: batched closest-surface-point rays over the scalar loop
        "rays_speedup": doc.get("rays", {}).get("speedup"),
    }
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    return rec


def record_service(bench_path: pathlib.Path, history_path: pathlib.Path,
                   label: str):
    """Append one history record distilled from a BENCH_service.json."""
    if not bench_path.exists():
        print(f"warning: no service benchmark results at {bench_path}; "
              "nothing recorded", file=sys.stderr)
        return None
    try:
        doc = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: unreadable service benchmark {bench_path}: {exc}",
              file=sys.stderr)
        return None
    if not isinstance(doc, dict) or not doc:
        print(f"warning: empty service benchmark {bench_path}; "
              "nothing recorded", file=sys.stderr)
        return None
    gate = doc.get("gate", {})
    rec = {
        "label": label,
        "schema": doc.get("schema"),
        "cpus": doc.get("cpus"),
        "thread_jobs_per_second":
            doc.get("thread", {}).get("jobs_per_second"),
        "process_jobs_per_second":
            doc.get("process", {}).get("jobs_per_second"),
        "speedup": doc.get("speedup_process_over_thread"),
        "gate_enforced": bool(gate.get("enforced")),
        "gate_passed": bool(gate.get("passed")),
    }
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    return rec


def record_shard(bench_path: pathlib.Path, history_path: pathlib.Path,
                 label: str):
    """Append one history record distilled from a BENCH_shard.json."""
    if not bench_path.exists():
        print(f"warning: no shard benchmark results at {bench_path}; "
              "nothing recorded", file=sys.stderr)
        return None
    try:
        doc = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: unreadable shard benchmark {bench_path}: {exc}",
              file=sys.stderr)
        return None
    if not isinstance(doc, dict) or not doc:
        print(f"warning: empty shard benchmark {bench_path}; "
              "nothing recorded", file=sys.stderr)
        return None
    gate = doc.get("gate", {})
    near = doc.get("near_duplicate", {})
    near_gate = near.get("gate", {})
    rec = {
        "label": label,
        "schema": doc.get("schema"),
        "cpus": doc.get("cpus"),
        "blocks": doc.get("workload", {}).get("blocks"),
        "unsharded_seconds": doc.get("unsharded", {}).get("seconds"),
        "sharded_seconds": doc.get("sharded", {}).get("seconds"),
        "speedup": doc.get("speedup_sharded_over_unsharded"),
        "gate_enforced": bool(gate.get("enforced")),
        "gate_passed": bool(gate.get("passed")),
        # schema 3: near-duplicate incremental workload, held against
        # the unsharded mesh of the same frame
        "cold_seconds": near.get("cold", {}).get("seconds"),
        "near_unsharded_seconds":
            near.get("unsharded", {}).get("seconds"),
        "incremental_seconds":
            near.get("incremental", {}).get("seconds"),
        "block_hits": near.get("incremental", {}).get("block_hits"),
        "incremental_speedup":
            near.get("speedup_incremental_over_unsharded"),
        "incremental_gate_enforced": bool(near_gate.get("enforced")),
        "incremental_gate_passed": bool(near_gate.get("passed")),
    }
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    return rec


def render_shard(history: list, drift_threshold: float) -> str:
    """Third report section: sharded + incremental meshing trend.

    Two speedups per row: sharded-over-unsharded on the ball grid, and
    (schema 3) incremental-over-unsharded on the near-duplicate
    workload, with the block-cache hit count behind it.  Each drifts
    against the best enforced run of its own kind.
    """
    lines = [
        "domain-sharded meshing trend "
        "(sharded vs unsharded; incremental vs unsharded)",
        "",
        f"{'label':<24} {'cpus':>5} {'plain s':>8} {'shard s':>8} "
        f"{'speedup':>8} {'incr x':>7} {'hits':>5} {'gate':>9}  note",
        "-" * 88,
    ]
    enforced = [r for r in history if r.get("gate_enforced")]
    best = max((r.get("speedup") or 0.0 for r in enforced), default=0.0)
    incr_enforced = [r for r in history
                     if r.get("incremental_gate_enforced")]
    best_incr = max((r.get("incremental_speedup") or 0.0
                     for r in incr_enforced), default=0.0)
    for r in history:
        speedup = r.get("speedup")
        incr = r.get("incremental_speedup")
        if not r.get("gate_enforced"):
            note = "few CPUs: advisory"
        elif len(enforced) == 1:
            note = "n=1 (no baseline)"
        elif best > 0 and speedup is not None:
            drop = 1.0 - speedup / best
            note = (f"DRIFT -{drop:.0%} vs best {best:.2f}x"
                    if drop > drift_threshold else "")
        else:
            note = ""
        if (not note and r.get("incremental_gate_enforced")
                and len(incr_enforced) > 1
                and best_incr > 0 and incr is not None):
            drop = 1.0 - incr / best_incr
            if drop > drift_threshold:
                note = f"INCR DRIFT -{drop:.0%} vs best {best_incr:.2f}x"
        incr_ok = (bool(r.get("incremental_gate_passed"))
                   if r.get("incremental_gate_enforced") else True)
        gate = ("pass" if (r.get("gate_passed") and incr_ok)
                else "FAIL") if r.get("gate_enforced") else "n/a"
        lines.append(
            f"{str(r.get('label', '?')):<24.24} "
            f"{_fmt(r.get('cpus'), 5, 0)} "
            f"{_fmt(r.get('unsharded_seconds'), 8, 2)} "
            f"{_fmt(r.get('sharded_seconds'), 8, 2)} "
            f"{_fmt(speedup, 8, 2)} "
            f"{_fmt(incr, 7, 2)} "
            f"{_fmt(r.get('block_hits'), 5, 0)} {gate:>9}  {note}"
        )
    if not history:
        lines.append("(no shard history recorded yet)")
    lines.append("")
    return "\n".join(lines) + "\n"


def render_service(history: list, drift_threshold: float) -> str:
    """Second report section: the executor benchmark trend."""
    lines = [
        "service executor trend (thread vs process, jobs/s)",
        "",
        f"{'label':<24} {'cpus':>5} {'thread j/s':>11} "
        f"{'process j/s':>12} {'speedup':>8} {'gate':>9}  note",
        "-" * 88,
    ]
    enforced = [r for r in history if r.get("gate_enforced")]
    best = max((r.get("speedup") or 0.0 for r in enforced), default=0.0)
    for r in history:
        speedup = r.get("speedup")
        if not r.get("gate_enforced"):
            note = "single CPU: advisory"
        elif len(enforced) == 1:
            note = "n=1 (no baseline)"
        elif best > 0 and speedup is not None:
            drop = 1.0 - speedup / best
            note = (f"DRIFT -{drop:.0%} vs best {best:.2f}x"
                    if drop > drift_threshold else "")
        else:
            note = ""
        gate = ("pass" if r.get("gate_passed") else "FAIL") \
            if r.get("gate_enforced") else "n/a"
        lines.append(
            f"{str(r.get('label', '?')):<24.24} "
            f"{_fmt(r.get('cpus'), 5, 0)} "
            f"{_fmt(r.get('thread_jobs_per_second'), 11, 2)} "
            f"{_fmt(r.get('process_jobs_per_second'), 12, 2)} "
            f"{_fmt(speedup, 8, 2)} {gate:>9}  {note}"
        )
    if not history:
        lines.append("(no service history recorded yet)")
    lines.append("")
    return "\n".join(lines) + "\n"


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
        f"{'speedup':>8} {'rm x':>7} {'batch x':>7} {'rays x':>7}  note",
        "-" * 96,
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
            f"{_fmt(r.get('rays_speedup'), 7, 2)}  {note}"
        )
    if not history:
        lines.append("(no history recorded yet)")
    lines.append("")
    if best > 0:
        lines.append(f"best speedup in baseline window: {best:.2f}x; "
                     f"drift flagged beyond {drift_threshold:.0%} below "
                     "best")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="BENCH_JSON",
                        help="append this BENCH_kernels.json to the history")
    parser.add_argument("--record-service", metavar="BENCH_SERVICE_JSON",
                        help="append this BENCH_service.json to the "
                             "service history")
    parser.add_argument("--record-shard", metavar="BENCH_SHARD_JSON",
                        help="append this BENCH_shard.json to the shard "
                             "history")
    parser.add_argument("--label", default="local",
                        help="history label for --record (branch, SHA, ...)")
    parser.add_argument("--rebaseline", default="", metavar="REASON",
                        help="mark the --record entry as a new drift "
                             "baseline (drift compares against the best "
                             "speedup since the latest marker)")
    parser.add_argument("--history", default=str(DEFAULT_HISTORY))
    parser.add_argument("--service-history",
                        default=str(DEFAULT_SERVICE_HISTORY))
    parser.add_argument("--shard-history",
                        default=str(DEFAULT_SHARD_HISTORY))
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

    service_history_path = pathlib.Path(args.service_history)
    if args.record_service:
        rec = record_service(pathlib.Path(args.record_service),
                             service_history_path, args.label)
        if rec is not None:
            sp = rec["speedup"]
            print(f"recorded service {rec['label']}: speedup "
                  f"{sp if sp is not None else 'n/a'}")

    shard_history_path = pathlib.Path(args.shard_history)
    if args.record_shard:
        rec = record_shard(pathlib.Path(args.record_shard),
                           shard_history_path, args.label)
        if rec is not None:
            sp = rec["speedup"]
            print(f"recorded shard {rec['label']}: speedup "
                  f"{sp if sp is not None else 'n/a'}")

    report = render(load_history(history_path), args.drift_threshold)
    service_history = load_history(service_history_path)
    if service_history:
        report += "\n" + render_service(service_history,
                                        args.drift_threshold)
    shard_history = load_history(shard_history_path)
    if shard_history:
        report += "\n" + render_shard(shard_history,
                                      args.drift_threshold)
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report)
    print(report, end="")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
