"""End-to-end benchmark: image bytes in -> mesh bytes out.

One ledger for the whole system: five named workloads, six gated
end-to-end metrics, and a per-layer table measured in a separate traced
run.  See ``README.md`` in this directory for the tables and for how to
read the output; ``BENCHMARK.json`` at the repository root is the
machine-readable contract.

Entry points::

    python3 -m benchmarks.e2e --seed 1                    # the ledger
    python3 benchmarks/e2e/run.py --workload cold_single \
        --seed 1 --seconds 16 --trace 0                   # one driver run
    python3 -m benchmarks.e2e.compare A.json B.json       # A/B verdicts
"""
