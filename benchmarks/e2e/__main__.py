"""Command line of the end-to-end benchmark.

Two modes::

    python3 -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1

runs one workload once and prints, as its last line, the one JSON
object the PR driver reads (``--trace 0``: the gated end-to-end
metrics; ``--trace 1``: every per-layer metric).  Without ``--workload``
it is the ledger: every workload ``--repeats`` times untraced (seeds N,
N+1, ...) and once traced, each run a fresh process of the first mode,
all metrics printed by name with units and the whole set written to
``--out`` for :mod:`benchmarks.e2e.compare`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def _parser() -> argparse.ArgumentParser:
    from .catalogue import RUN_SECONDS, WORKLOADS

    p = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="n=16 phantoms and a fixed handful of operations "
                        "(checks the plumbing, measures nothing)")
    p.add_argument("--allow-no-accel", action="store_true",
                   help="run without the C accelerator (recorded in the "
                        "result; numbers are not comparable)")
    p.add_argument("--detail", default=None, metavar="PATH",
                   help="single run: also write the full run record here")
    p.add_argument("--repeats", type=int, default=1,
                   help="ledger: untraced runs per workload")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="ledger: result file (default "
                        ".bench_build/e2e-seed<N>.json)")
    return p


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_run(record: dict) -> None:
    from .catalogue import END_TO_END, PER_LAYER

    print(f"== {record['workload']}  seed={record['seed']} "
          f"trace={record['trace']} scale={record['scale']}  "
          f"{record['loop']}")
    print(f"   attempted={record['attempted']} failed={record['failed']} "
          f"samples={record['samples']} "
          f"timed_wall_s={record['timed_wall_s']:.3f} "
          f"correct={record['correct']}")
    if record["at_reference_speed"]:
        print(f"   times are at reference host speed: the host ran "
              f"{record['host_slowdown']:.3f}x slower than that (median "
              f"over the operations; raw seconds are in the run record)")
    for key, value in record.items():
        if key.startswith("repeatable."):
            print(f"   {key} = {value} (identical on every operation)")
    for item in record["problems"]:
        print(f"   PROBLEM {item}")
    for item in record["failures"]:
        print(f"   FAILED op {item['op']}: {'; '.join(item['why'])}")
    table = PER_LAYER if record["trace"] else END_TO_END
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    for m in table:
        if m.name not in values or record["workload"] not in m.on:
            continue
        note = ""
        if m.name == "latency_p95_s":
            note = f"   ({record['samples_beyond_p95']} samples beyond)"
        print(f"   {m.name:<36} {_fmt(values[m.name]):>12} {m.unit}{note}")


def _single(args) -> int:
    from . import env

    prewarmed = env.prepare()
    try:
        from repro import _accel

        from . import runner
        from .workloads import FULL, SMOKE
        scale = SMOKE if args.smoke else FULL
    except ImportError as exc:
        print(f"benchmarks.e2e: cannot import the program under test "
              f"({exc}); run from a full checkout", file=sys.stderr)
        return 2
    if _accel.bw_insert is None and not args.allow_no_accel:
        print("benchmarks.e2e: the C accelerator is missing or disabled "
              "(REPRO_ACCEL=0?); numbers would not be comparable. "
              "Pass --allow-no-accel to run anyway.", file=sys.stderr)
        return 2
    record = runner.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), scale, prewarmed)
    _print_run(record)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    print(runner.driver_line(record))
    return 0


def _ledger(args) -> int:
    from . import env
    from .catalogue import END_TO_END, PER_LAYER, WORKLOADS

    env.prepare()
    env.BUILD.mkdir(exist_ok=True)
    out = args.out or str(env.BUILD / f"e2e-seed{args.seed}.json")
    runs = []
    for name in WORKLOADS:
        plan = [(args.seed + r, 0) for r in range(args.repeats)]
        plan.append((args.seed, 1))
        for seed, traced in plan:
            detail = str(env.BUILD / f"detail-{name}-{seed}-{traced}.json")
            cmd = [sys.executable, "-m", "benchmarks.e2e",
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(traced),
                   "--detail", detail]
            if args.smoke:
                cmd.append("--smoke")
            if args.allow_no_accel:
                cmd.append("--allow-no-accel")
            done = subprocess.run(cmd, cwd=env.ROOT, capture_output=True,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"benchmarks.e2e: {name} seed={seed} trace={traced} "
                      f"exited {done.returncode}", file=sys.stderr)
                return 1
            with open(detail, encoding="utf-8") as fh:
                runs.append(json.load(fh))
            _print_run(runs[-1])

    print()
    print("== summary (medians over the untraced runs of each workload)")
    for name in WORKLOADS:
        mine = [r for r in runs if r["workload"] == name and not r["trace"]]
        print(f"-- {name}: {len(mine)} run(s), "
              f"{sum(r['attempted'] for r in mine)} operations attempted, "
              f"{sum(r['failed'] for r in mine)} failed")
        for m in END_TO_END:
            if name not in m.on:
                continue
            values = [r["end_to_end"][m.name] for r in mine
                      if m.name in r["end_to_end"]]
            if values:
                print(f"   {m.name:<36} "
                      f"{_fmt(statistics.median(values)):>12} {m.unit}")
    doc = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
           "repeats": args.repeats, "env": runs[0]["env"], "runs": runs,
           "names": {"end_to_end": [m.name for m in END_TO_END],
                     "per_layer": [m.name for m in PER_LAYER]}}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return _single(args) if args.workload else _ledger(args)


if __name__ == "__main__":
    sys.exit(main())
