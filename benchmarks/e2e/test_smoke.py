"""Plumbing test of the end-to-end benchmark (not a tier-1 test).

Runs the ledger at ``--smoke`` scale (n=16 phantoms, 2 operations per
workload, 8 gateway requests) and checks the names it fixes, not the
numbers::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.catalogue import (END_TO_END, GATED, PER_LAYER, WORKLOADS,
                                      benchmark_json)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = _run("--seed", "7", "--out", str(out))
    return out, json.loads(out.read_text()), done.stdout


def test_names_are_well_formed():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_repeats_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == benchmark_json()


def test_every_metric_is_reported_where_it_is_declared(ledger):
    _, doc, stdout = ledger
    runs = {(r["workload"], r["trace"]): r for r in doc["runs"]}
    for workload in WORKLOADS:
        plain, traced = runs[workload, 0], runs[workload, 1]
        for r in (plain, traced):
            assert r["correct"] and r["failed"] == 0, (r["problems"],
                                                       r["failures"])
        assert plain["end_to_end"]["failed_share"] == 0.0
        for table, values in ((END_TO_END, plain["end_to_end"]),
                              (PER_LAYER, traced["per_layer"])):
            for m in table:
                if workload in m.on:
                    assert m.name in values, (workload, m.name)
    # ... and printed by name with its unit
    for m in END_TO_END + PER_LAYER:
        assert re.search(rf"^\s+{re.escape(m.name)}\s+\S+ {re.escape(m.unit)}\b",
                         stdout, re.M), m.name


def test_result_file_records_the_machine(ledger):
    _, doc, _ = ledger
    for key in ("nproc", "git_sha", "python", "numpy", "scipy", "seed",
                "accelerator", "load_avg_1m_at_start"):
        assert key in doc["env"]
    assert doc["env"]["accelerator"] is True


def test_a_file_compared_with_itself_is_the_same(ledger, capsys):
    path, _, _ = ledger
    assert compare.main([str(path), str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(r.split()[-1] == "same" for r in rows)


@pytest.mark.parametrize("traced", [0, 1])
def test_single_run_ends_with_the_driver_line(traced):
    done = _run("--workload", "cold_single", "--seed", "7",
                "--seconds", "1", "--trace", str(traced))
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    table = PER_LAYER if traced else GATED
    assert list(line["metrics"]) == [m.name for m in table]
    for m in table:
        assert line["metrics"][m.name]["unit"] == m.unit
        if not traced:
            assert line["metrics"][m.name]["value"] > 0
