"""One run of one workload: set-up, measure, check, account, tear down.

:func:`run` returns the run's full record; ``__main__`` prints it and
reduces it to the driver's one-line result.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.api import MeshResult
from repro.delaunay import arena

from . import env, hostspeed, procstat
from .catalogue import BY_NAME, GATED, PER_LAYER
from .checks import OutputChecker
from .trace import Trace, clock
from .workloads import WORKLOAD_CLASSES, Sample, Scale, Workload, median

#: the accounting check fails when the traced operations' root spans
#: keep more than this share of their summed wall to themselves
MAX_UNATTRIBUTED_SHARE = 0.05


def _at_reference_speed(fn, paced: bool) -> float:
    """Seconds ``fn()`` takes, at reference host speed if ``paced``."""
    before = hostspeed.probe() if paced else 0.0
    t0 = clock()
    fn()
    seconds = clock() - t0
    if paced:
        seconds /= hostspeed.slowdown(before, hostspeed.probe())
    return seconds


def _set_up(name: str, scale: Scale, seed: int, problems: List[str]
            ) -> tuple:
    """Boot the workload's context ``scale.setups`` times, keep the
    last.  ``setup_s`` is what a user waits for before the first timed
    operation: the median import + accelerator load (one fresh
    interpreter each), the median context boot (phantoms, service or
    gateway start, worker spawn, a warm-up operation) and the
    workload's one-off priming."""
    paced = WORKLOAD_CLASSES[name].at_reference_speed
    imports = [_at_reference_speed(env.fresh_import, paced)
               for _ in range(scale.setups)]
    boots: List[float] = []
    for i in range(scale.setups):
        w: Workload = WORKLOAD_CLASSES[name](scale, seed)
        try:
            boots.append(_at_reference_speed(w.boot, paced))
            if i + 1 == scale.setups:
                prime_s = _at_reference_speed(w.prime, paced)
        except BaseException:
            w.shutdown()            # a half-started gateway must not stay
            raise
        if i + 1 < scale.setups:
            problems += w.shutdown()
    parts = {"import_s": imports, "boot_s": boots, "prime_s": prime_s}
    return w, median(imports) + median(boots) + prime_s, parts


def _examiner(checker: OutputChecker):
    """The output checks of one operation, run outside every timed
    interval; the output itself is let go afterwards."""

    def examine(s: Sample) -> None:
        if s.error:
            s.problems = [s.error]
            return
        if s.payload is not None:
            t0 = clock()
            result = MeshResult.from_dict(json.loads(s.payload))
            if s.traced:
                s.layers["api.deserialise_s"] = clock() - t0
            s.take(result)
            s.payload = None
        if s.result is not None:
            checker.examine(s.digest, s.result)
            s.result = None
        s.problems = checker.problems(s.digest, s.mesh_labels, s.labels)

    return examine


def _check_repeatable(stat: Optional[str], samples: List[Sample]) -> None:
    """Operations that do identical work must report identical counts."""
    done = [s for s in samples if not s.error]
    if stat is None or not done:
        return
    first = done[0].stats.get(stat)
    for s in done:
        if s.stats.get(stat) != first:
            s.problems.append(f"{stat} {s.stats.get(stat)} differs from "
                              f"the first operation's {first}")


def _account(trace: Trace, samples: List[Sample], problems: List[str]
             ) -> Dict[str, float]:
    """Span arithmetic: what each traced operation's root keeps to
    itself, and what tracing cost against the plain reference ops."""
    unattributed: List[float] = []
    roots = [s for s in trace.spans if s.name == "op"]
    for root in roots:
        self_s = trace.self_times(root.op)
        total = sum(self_s.values())
        if abs(total - root.seconds) > 1e-6 * max(1.0, root.seconds):
            problems.append(
                f"op {root.op}: self times sum to {total:.6f} s, "
                f"wall is {root.seconds:.6f} s")
        unattributed.append(self_s["op"])
    # Judged over the run, not per operation: a 0.1 s gateway request
    # that loses the interpreter lock once between two spans (5 ms
    # switch interval, two client threads) is over 5 % on its own.
    wall = sum(r.seconds for r in roots)
    if sum(unattributed) > MAX_UNATTRIBUTED_SHARE * wall:
        problems.append(
            f"{sum(unattributed):.4f} s of the traced operations' "
            f"{wall:.4f} s is in no span (over {MAX_UNATTRIBUTED_SHARE:.0%})")
    traced = median([s.latency / s.slowdown for s in samples
                     if s.traced and not s.error])
    plain = median([s.latency / s.slowdown for s in samples
                    if not s.traced and not s.error])
    return {
        "trace.unattributed_s": median(unattributed),
        "trace.overhead_share": traced / plain - 1.0 if plain else 0.0,
    }


def run(name: str, seed: int, seconds: float, traced: bool, scale: Scale,
        accel_prewarmed: bool) -> Dict[str, Any]:
    problems: List[str] = []
    orphans_before = set(arena.orphaned())
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "scale": scale.name,
        "env": env.record(seed, accel_prewarmed),
    }

    w, setup_s, setup_parts = _set_up(name, scale, seed, problems)
    record["loop"] = w.loop
    trace: Optional[Trace] = Trace() if traced else None
    try:
        samples = w.measure(seconds, trace, _examiner(OutputChecker()))
        peak_rss = procstat.peak_rss_mib()
        _check_repeatable(w.repeatable_stat, samples)
        layers: Dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
        if trace is not None:
            per_op: Dict[str, List[float]] = {}
            for s in samples:
                for key, value in s.layers.items():
                    per_op.setdefault(key, []).append(value)
            layers.update({k: median(v) for k, v in per_op.items()})
            layers.update(w.run_layers(samples))
            layers.update(_account(trace, samples, problems))
            layers["host.slowdown"] = median([s.slowdown for s in samples])
            env.BUILD.mkdir(exist_ok=True)
            trace.write(str(env.BUILD / f"trace-{name}-seed{seed}.json"))
    finally:
        problems += w.shutdown()

    # -- hygiene --------------------------------------------------------
    leaked = sorted(set(arena.orphaned()) - orphans_before)
    if leaked:
        problems.append(f"orphaned shared-memory segments: {leaked}")
    if env.leftover_tmp():
        problems.append(f"temp directories left: {env.leftover_tmp()}")

    # -- end-to-end metrics ----------------------------------------------
    # Times are at reference host speed where the workload says so
    # (``slowdown`` is 1 where it does not); ``w.wall`` already is.
    done = [s for s in samples if not s.error]
    latencies = sorted(s.latency / s.slowdown for s in done)
    wall = w.wall
    failed = sum(1 for s in samples if s.problems)
    e2e = {
        "setup_s": setup_s,
        "latency_p50_s": median(latencies),
        "elements_per_s": sum(s.tets for s in done) / wall if wall else 0.0,
        "throughput_rps": len(done) / wall if wall else 0.0,
        "cpu_s_per_op": median([s.cpu / s.slowdown for s in samples]),
        "peak_rss_mb": peak_rss,
        "failed_share": failed / len(samples),
    }
    # The highest percentile a sample supports has ten values beyond it.
    beyond_p95 = len(latencies) - int(0.95 * len(latencies))
    if latencies:
        e2e["latency_p95_s"] = latencies[
            min(len(latencies) - 1, int(0.95 * len(latencies)))]
    record.update({
        "attempted": len(samples),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "failures": [{"op": i, "why": s.problems}
                     for i, s in enumerate(samples) if s.problems],
        "samples": len(done),
        "samples_beyond_p95": beyond_p95,
        "timed_wall_s": wall,
        "setup_parts": setup_parts,
        "at_reference_speed": w.at_reference_speed,
        "host_slowdown": median([s.slowdown for s in samples]),
        "raw_latencies_s": [s.latency for s in samples],
        "slowdowns": [s.slowdown for s in samples],
        "end_to_end": e2e,
        "per_layer": layers if traced else {},
    })
    stat = w.repeatable_stat
    if stat is not None and done:
        record[f"repeatable.{stat}"] = done[0].stats.get(stat)
    return record


def driver_line(record: Dict[str, Any]) -> str:
    """The one JSON object the PR driver reads from the last line."""
    if record["trace"]:
        values = {m.name: record["per_layer"][m.name] for m in PER_LAYER}
    else:
        values = {m.name: record["end_to_end"][m.name] for m in GATED}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": BY_NAME[k].unit}
                    for k, v in values.items()},
    })
