#!/usr/bin/env python
"""Parallel refinement on the simulated Blacklight machine.

Runs the same image through the speculative parallel refiner at several
simulated core counts and prints a strong-scaling table: speedup,
rollbacks, and the paper's three overhead categories (Section 5.5).

Run:  python examples/parallel_scaling_demo.py [n] [delta]
"""

import sys

from repro.imaging import sphere_phantom
from repro.reporting import Table
from repro.simnuma import _simulate_parallel_refinement


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 28
    delta = float(sys.argv[2]) if len(sys.argv) > 2 else 1.6
    image = sphere_phantom(n)

    print(f"Strong scaling on simulated Blacklight "
          f"(sphere {n}^3, delta={delta}, Local-CM, HWS)")
    base = None
    table = Table(
        "Simulated strong scaling",
        ["threads", "virtual s", "elements", "elements/s", "speedup",
         "rollbacks", "contention s", "load-bal s", "rollback s"],
    )
    for threads in (1, 2, 4, 8, 16, 32):
        r = _simulate_parallel_refinement(image, threads, delta=delta)
        if base is None:
            base = r.virtual_time
        table.add_row([
            threads,
            round(r.virtual_time, 4),
            r.n_elements,
            int(r.elements_per_second),
            round(base / r.virtual_time, 2),
            r.rollbacks,
            round(r.totals["contention_overhead"], 4),
            round(r.totals["load_balance_overhead"], 4),
            round(r.totals["rollback_overhead"], 4),
        ])
        print(f"  {threads} threads done "
              f"({r.n_elements} elements, {r.rollbacks} rollbacks)")
    table.print()
    print("Note: virtual time comes from the NUMA cost model "
          "(see repro/simnuma); the protocol code is the production code.")


if __name__ == "__main__":
    main()
