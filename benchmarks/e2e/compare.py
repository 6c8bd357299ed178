"""Compare two ledger result files: ``python3 -m benchmarks.e2e.compare A B``.

One row per (workload, end-to-end metric) with both medians, both
quartile pairs, the metric's bound and a verdict:

``better`` / ``worse``
    B's median moved by more than the bound, and either both spreads
    are inside the bound or every run of B reads better (worse) than
    every run of A.
``same``
    the medians agree within the bound and so do the runs of each side.
``unresolved``
    the run-to-run spread (first to third quartile over the median) of
    one side is wider than the bound, so the files cannot tell.  The
    remedy is more runs (``--repeats``), never a wider bound.

Exit status 1 if any row is ``worse``, else 0.  Per-layer metrics are
not compared: they explain a difference, they do not gate one.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from .catalogue import END_TO_END, Metric

Values = Dict[str, Dict[str, List[float]]]


def load(path: str) -> Values:
    """``{workload: {metric: [one value per untraced run]}}``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out: Values = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        per_metric = out.setdefault(run["workload"], {})
        for name, value in run["end_to_end"].items():
            per_metric.setdefault(name, []).append(value)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(m: Metric, a: List[float], b: List[float]) -> str:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if m.better == "lower" else -1.0
    if m.bound == 0.0:                         # any increase is a regression
        moved = sign * (qb[1] - qa[1])
        return "worse" if moved > 0 else "better" if moved < 0 else "same"
    worsened = sign * (qb[1] - qa[1]) / qa[1]  # share of A's median
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb) if q[1])
    noisy = spread > m.bound
    if sign > 0:
        all_worse, all_better = min(b) > max(a), max(b) < min(a)
    else:
        all_worse, all_better = max(b) < min(a), min(b) > max(a)
    if worsened > m.bound:
        return "worse" if (not noisy or all_worse) else "unresolved"
    if worsened < -m.bound:
        return "better" if (not noisy or all_better) else "unresolved"
    return "unresolved" if noisy else "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    print(f"{'workload':<22} {'metric':<16} {'A q1/med/q3':<32} "
          f"{'B q1/med/q3':<32} {'bound':>6}  verdict")
    worse = 0
    for workload in a:
        for m in END_TO_END:
            va = a[workload].get(m.name)
            vb = b.get(workload, {}).get(m.name)
            if workload not in m.on or not va or not vb:
                continue
            v = verdict(m, va, vb)
            worse += v == "worse"

            def cell(values: List[float]) -> str:
                return "/".join(f"{q:.4g}" for q in quartiles(values))

            print(f"{workload:<22} {m.name:<16} {cell(va):<32} "
                  f"{cell(vb):<32} {m.bound:>6.0%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
