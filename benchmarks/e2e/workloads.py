"""The five workloads: what one operation is, and how it is traced.

One *operation* is image ``.npz`` bytes in -> ``MeshResult`` JSON bytes
out for one request.  Every workload offers the same operation twice:
:meth:`Workload.op`, the plain path the end-to-end numbers time, and
:meth:`Workload.traced_op`, the same work with a span around each call
into a layer's public functions plus the counts those layers report.
Nothing here times anything itself except through spans; the loops
that turn operations into metrics are in :mod:`.runner`.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.api import MeshRequest, MeshResult, mesh as api_mesh
from repro.core import RefineDomain, SequentialRefiner, extract_mesh
from repro.core.domain import VertexKind
from repro.delaunay import Triangulation3D
from repro.delaunay.shard import decompose
from repro.imaging import (
    SurfaceOracle,
    abdominal_phantom,
    ball_grid_phantom,
    euclidean_feature_transform,
    near_duplicate_phantom,
    sphere_phantom,
    surface_voxel_mask,
)
from repro.observability import Observability
from repro.service import (
    ArtifactCache,
    HttpClient,
    MeshingService,
    ServiceConfig,
    cache_keys,
    connect,
    decode_image_b64,
)
from repro.service.http import MeshGateway

from . import env, hostspeed, procstat
from .checks import mesh_digest
from .inputs import (
    OpInput,
    label_map,
    relabelled,
    variants,
    walk_frames,
    zipf_ranks,
)
from .trace import Trace, clock


@dataclass(frozen=True)
class Scale:
    name: str
    abdominal_n: int          # cold_single, cold_threaded
    grid_n: int               # cold_sharded, near_duplicate_series
    gateway_n: int            # gateway_mix
    #: fixed operation count per workload (``None`` = run for --seconds)
    ops: Optional[int]
    gateway_requests: Optional[int]
    setups: int               # context set-ups per run (median reported)


#: The issue sized cold_single / cold_threaded at abdominal_phantom(48);
#: 40 keeps a threaded operation near 2.5 s so a 16 s run still holds
#: half a dozen of them (the driver's time cap sets the run length).
FULL = Scale("full", 40, 48, 40, None, None, 3)
SMOKE = Scale("smoke", 16, 16, 16, 2, 8, 1)

#: every workload warms its path with this before anything is timed
_WARMUP_DELTA = 3.0


@dataclass
class Sample:
    """One attempted operation."""

    latency: float
    cpu: float = 0.0
    #: how much slower than the reference the host ran meanwhile
    #: (:mod:`.hostspeed`); the runner divides both times by it
    slowdown: float = 1.0
    traced: bool = False
    #: the operation's output: bytes from in-process workloads, the
    #: client's deserialised response from the gateway.  Both are let
    #: go once the output checks have seen them, so a run's memory does
    #: not grow with the number of operations it fits in.
    payload: Optional[bytes] = None
    result: Optional[MeshResult] = None
    #: what outlives the output
    digest: str = ""
    tets: int = 0
    mesh_labels: frozenset = frozenset()
    labels: frozenset = frozenset()          # the request's relabelling
    stats: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    #: why the operation failed its output checks ([] = it passed)
    problems: List[str] = field(default_factory=list)
    #: per-layer values this operation measured (traced operations)
    layers: Dict[str, float] = field(default_factory=dict)

    def take(self, result: MeshResult) -> None:
        self.result = result
        self.digest = mesh_digest(result.mesh)
        self.tets = result.n_tets
        self.stats = result.stats
        self.mesh_labels = frozenset(
            int(v) for v in np.unique(result.mesh.tet_labels))


def _serialise(result: MeshResult) -> bytes:
    return json.dumps(result.to_dict()).encode("utf-8")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def kernel_layers(result: MeshResult) -> Dict[str, float]:
    """The ``delaunay.*`` counts a result's ``kernel.*`` gauges carry."""
    g = (result.metrics or {}).get("gauges", {})
    tried = sum(g.get(f"kernel.{k}", 0) for k in (
        "accel_inserts", "accel_retries", "accel_removals",
        "accel_remove_retries"))
    retried = g.get("kernel.accel_retries", 0) + g.get(
        "kernel.accel_remove_retries", 0)
    return {
        "delaunay.locate_calls": g.get("kernel.locate_calls", 0),
        "delaunay.mean_walk_length": g.get("kernel.mean_walk_length", 0.0),
        "delaunay.mean_cavity_size": g.get("kernel.mean_cavity_size", 0.0),
        "delaunay.accel_retry_share": retried / tried if tried else 0.0,
        "delaunay.exact_predicate_share": g.get(
            "kernel.predicates.exact_fraction", 0.0),
    }


def refine_layers(ops: float, ins: float, rem: float, skipped: float
                  ) -> Dict[str, float]:
    return {
        "core.refine_operations": ops,
        "core.refine_insertions": ins,
        "core.refine_removals": rem,
        "core.refine_skipped": skipped,
        "core.useful_op_share": (ins + rem) / ops if ops else 0.0,
    }


def cache_layers(result: MeshResult, request: MeshRequest) -> Dict[str, float]:
    """Time the artifact cache's public calls on a real result, in a
    cache of the benchmark's own (3 repetitions, medians)."""
    key_s, put_s, mem_s, disk_s = [], [], [], []
    for _ in range(3):
        root = env.make_tmp("cache-probe-")
        try:
            t0 = clock()
            keys = cache_keys(request)
            key_s.append(clock() - t0)
            cache = ArtifactCache(root)
            t0 = clock()
            cache.put_mesh(keys[1], result)
            put_s.append(clock() - t0)
            t0 = clock()
            cache.get_mesh_tiered(keys[1])
            mem_s.append(clock() - t0)
            fresh = ArtifactCache(root)        # empty memory tier
            t0 = clock()
            _, tier = fresh.get_mesh_tiered(keys[1])
            disk_s.append(clock() - t0)
            if tier != "disk":
                raise RuntimeError(f"expected a disk hit, got {tier!r}")
        finally:
            env.remove_tmp(root)
    return {
        "service.key_s": median(key_s),
        "service.cache_put_s": median(put_s),
        "service.cache_get_memory_s": median(mem_s),
        "service.cache_get_disk_s": median(disk_s),
    }


def service_layers(before: Dict[str, Any], after: Dict[str, Any]
                   ) -> Dict[str, float]:
    """What the service counted between two ``metrics()`` snapshots."""
    def counter(name: str) -> float:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    def gauge(name: str) -> float:
        return after["gauges"].get(name, 0) - before["gauges"].get(name, 0)

    def hist(name: str, field_: str) -> float:
        a = after["histograms"].get(name, {})
        b = before["histograms"].get(name, {})
        return a.get(field_, 0) - b.get(field_, 0)

    def mean(name: str) -> float:
        n = hist(name, "count")
        return hist(name, "sum") / n if n else 0.0

    tiers = {t: counter(f"service.slo.{t}.requests") for t in (
        "memory_hit", "disk_hit", "coalesced", "block_hit", "full_mesh")}
    total = sum(tiers.values())
    out = {f"service.tier_share.{t}": (n / total if total else 0.0)
           for t, n in tiers.items()}
    out.update({
        "service.queue_wait_s": mean("service.stage.queue_wait_seconds"),
        "service.run_s": mean("service.job.total_seconds"),
        "service.mesh_runs": hist("service.stage.mesh_seconds", "count"),
        "service.coalesce_followers": counter("service.coalesce.followers"),
        "service.evictions": gauge("service.cache.evictions"),
    })
    return out


class Workload:
    """Base: a single closed-loop caller."""

    name = ""
    #: the closed-loop statement printed with the results
    loop = "closed loop, 1 caller"
    #: a ``MeshResult.stats`` count that must not vary between this
    #: workload's operations (they do identical work), if there is one
    repeatable_stat: Optional[str] = None
    #: CPU-bound workloads report times at reference host speed
    #: (:mod:`.hostspeed`); one whose latency is mostly waiting does not
    at_reference_speed = True
    #: seconds the operations were timed over (set by :meth:`measure`)
    wall = 0.0

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self._inputs: Optional[Iterator[OpInput]] = None

    # -- lifecycle (timed by the runner as set-up) ----------------------
    def boot(self) -> None:
        """Generate phantoms, start whatever serves the operations, run
        one warm-up operation."""
        raise NotImplementedError

    def prime(self) -> None:
        """One-off state the timed operations build on (default none)."""

    def shutdown(self) -> List[str]:
        """Stop everything; returns hygiene violations."""
        return []

    # -- operations -----------------------------------------------------
    def next_input(self) -> OpInput:
        return next(self._inputs)

    def op(self, inp: OpInput) -> Sample:
        raise NotImplementedError

    def traced_op(self, inp: OpInput, trace: Trace) -> Sample:
        raise NotImplementedError

    def run_layers(self, samples: List[Sample]) -> Dict[str, float]:
        """Per-layer values measured once per traced run."""
        return {}

    # -- the measuring loop ---------------------------------------------
    def measure(self, seconds: float, trace: Optional[Trace],
                examine: Callable[[Sample], None]) -> List[Sample]:
        """Operations one after another until the next one would overrun
        ``seconds`` (at least three), each between two host-speed
        probes.  ``examine`` checks each output between operations,
        outside the timed intervals.  In a traced run every other
        operation is the plain one: the reference the tracing overhead
        is measured against."""
        samples: List[Sample] = []
        used = 0.0
        while True:
            inp = self.next_input()
            traced = trace is not None and len(samples) % 2 == 1
            before = hostspeed.probe()
            cpu0 = procstat.cpu_seconds()
            t0 = clock()
            try:
                s = self.traced_op(inp, trace) if traced else self.op(inp)
            except Exception as exc:    # a failed operation is a result
                s = Sample(0.0, error=f"{type(exc).__name__}: {exc}")
            # A traced operation is as long as its root span: the
            # estimate rows it measures afterwards are not part of it.
            s.latency = s.latency or clock() - t0
            s.cpu = procstat.cpu_seconds() - cpu0
            after = hostspeed.probe()
            s.slowdown = hostspeed.slowdown(before, after)
            s.traced, s.labels = traced, inp.labels
            examine(s)
            samples.append(s)
            used += s.latency + before + after
            # one caller: no gaps are timed
            self.wall = sum(x.latency / x.slowdown for x in samples)
            if self.scale.ops is not None:
                if len(samples) >= self.scale.ops:
                    return samples
            elif len(samples) >= 3 and used + median(
                    [x.latency for x in samples]) > seconds:
                return samples


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
class ColdSingle(Workload):
    name = "cold_single"
    mesher = {"mesher": "sequential"}
    repeatable_stat = "operations"

    def boot(self) -> None:
        base = abdominal_phantom(self.scale.abdominal_n)
        self._inputs = variants(base, self.rng, self.mesher)
        warm = variants(sphere_phantom(16), random.Random(0),
                        dict(self.mesher, delta=_WARMUP_DELTA))
        self.op(next(warm))

    def op(self, inp: OpInput) -> Sample:
        image = decode_image_b64(inp.image_b64)
        result = api_mesh(MeshRequest(image=image, **inp.params))
        return Sample(0.0, payload=_serialise(result))

    def traced_op(self, inp: OpInput, trace: Trace) -> Sample:
        """``SequentialMesher.mesh`` spelled out, one span per stage."""
        with trace.operation() as root:
            with trace.span("decode"):
                image = decode_image_b64(inp.image_b64)
            # The oracle below repeats these two on its own; they run
            # here first so each has a span and a number of its own.
            with trace.span("surface_mask"):
                mask = surface_voxel_mask(image)
            with trace.span("edt"):
                euclidean_feature_transform(mask, image.spacing)
            with trace.span("domain_init"):
                oracle = TimedOracle(SurfaceOracle(image))
                domain = RefineDomain(image, delta=inp.params.get("delta"),
                                      oracle=oracle)
            obs = Observability.from_config(None)
            with trace.span("refine") as refine:
                stats = SequentialRefiner(domain, obs=obs).refine()
            trace.add("oracle", refine.start, oracle.seconds, parent=refine)
            with trace.span("extract"):
                mesh = extract_mesh(domain)
            result = MeshResult(
                mesh=mesh, mesher="sequential",
                stats={"operations": stats.n_operations,
                       "insertions": stats.n_insertions,
                       "removals": stats.n_removals,
                       "skipped": stats.n_skipped,
                       "rule_counts": dict(stats.rule_counts),
                       "elements_per_second": stats.tets_per_second},
                metrics=obs.snapshot(),
                timings={"wall_seconds": clock() - refine.start,
                         "refine_seconds": stats.wall_time},
            )
            with trace.span("serialise"):
                payload = _serialise(result)
        replay_s = self._kernel_replay(domain, trace, refine)
        op = root.op
        layers = {
            "imaging.decode_s": trace.seconds(op, "decode"),
            "imaging.surface_mask_s": trace.seconds(op, "surface_mask"),
            "imaging.edt_s": trace.seconds(op, "edt"),
            "imaging.oracle_s": oracle.seconds,
            "imaging.oracle_calls": oracle.calls,
            "imaging.voxels": image.labels.size,
            "core.domain_init_s": trace.seconds(op, "domain_init"),
            "core.refine_s": refine.seconds,
            "core.rules_self_s": refine.seconds - oracle.seconds - replay_s,
            "core.extract_s": trace.seconds(op, "extract"),
            "delaunay.kernel_replay_s": replay_s,
            "api.serialise_s": trace.seconds(op, "serialise"),
        }
        layers.update(refine_layers(stats.n_operations, stats.n_insertions,
                                    stats.n_removals, stats.n_skipped))
        layers.update(kernel_layers(result))
        return Sample(root.seconds, payload=payload, layers=layers)

    @staticmethod
    def _kernel_replay(domain: RefineDomain, trace: Trace, refine) -> float:
        """Re-insert the run's final vertex set into an empty
        triangulation: what the kernel alone needs for this mesh.  Runs
        after the operation, so it is an estimate row, never counted."""
        tri_mesh = domain.tri.mesh
        order = sorted(
            (tri_mesh.timestamps[v], v)
            for v, kind in domain.vertex_kind.items()
            if kind != VertexKind.BOX and tri_mesh.alive_vertex[v]
        )
        points = [tri_mesh.points[v] for _, v in order]
        lo, hi = domain.image.foreground_bounds()
        margin = max(6.0 * domain.delta, 2.0 * max(domain.image.spacing))
        t0 = clock()
        Triangulation3D(lo, hi, margin=margin).insert_many(points)
        seconds = clock() - t0
        trace.add("kernel_replay", refine.start, seconds, parent=refine,
                  kind="estimate")
        return seconds


class TimedOracle:
    """A :class:`SurfaceOracle` whose two query methods are timed and
    counted.  The inner oracle's data attributes (``edt``, ``image``,
    ...) are copied onto the proxy: the rule engine reads ``oracle.edt``
    on its hottest path, and a ``__getattr__`` detour there would cost
    the traced run several percent."""

    def __init__(self, inner: SurfaceOracle):
        self.__dict__.update(vars(inner))
        self._inner = inner
        self.seconds = 0.0
        self.calls = 0

    def __getattr__(self, name: str):       # untimed methods pass through
        return getattr(self._inner, name)

    def closest_surface_point(self, p):
        t0 = clock()
        try:
            return self._inner.closest_surface_point(p)
        finally:
            self.seconds += clock() - t0
            self.calls += 1

    def surface_crossing(self, a, b):
        t0 = clock()
        try:
            return self._inner.surface_crossing(a, b)
        finally:
            self.seconds += clock() - t0
            self.calls += 1


class ColdThreaded(ColdSingle):
    name = "cold_threaded"
    mesher = {"mesher": "threaded", "n_threads": 2}
    repeatable_stat = None          # thread schedules differ run to run

    def traced_op(self, inp: OpInput, trace: Trace) -> Sample:
        with trace.operation() as root:
            with trace.span("decode"):
                image = decode_image_b64(inp.image_b64)
            with trace.span("mesh") as span:
                result = api_mesh(MeshRequest(image=image, **inp.params))
            trace.add("refine", span.start,
                      result.timings.get("refine_seconds", 0.0), parent=span)
            with trace.span("serialise"):
                payload = _serialise(result)
        op = root.op
        s, g = result.stats, result.metrics.get("gauges", {})
        ops = s.get("operations", 0)
        wait = g.get("kernel.commit_wait_seconds", 0.0)
        work = g.get("kernel.commit_work_seconds", 0.0)
        layers = {
            "imaging.decode_s": trace.seconds(op, "decode"),
            "imaging.voxels": image.labels.size,
            "core.refine_s": trace.seconds(op, "refine"),
            "api.serialise_s": trace.seconds(op, "serialise"),
            "parallel.rollbacks": s.get("rollbacks", 0),
            "parallel.rollback_share": (s.get("rollbacks", 0) / ops
                                        if ops else 0.0),
            "parallel.contention_overhead_s": s.get("contention_overhead", 0.0),
            "parallel.load_balance_overhead_s": s.get(
                "load_balance_overhead", 0.0),
            "parallel.rollback_overhead_s": s.get("rollback_overhead", 0.0),
            "parallel.commit_wait_share": (wait / (wait + work)
                                           if wait + work else 0.0),
            "parallel.steals": (s.get("remote_steals", 0)
                                + s.get("intra_blade_steals", 0)),
        }
        layers.update(refine_layers(ops, s.get("insertions", 0),
                                    s.get("removals", 0), 0))
        layers.update(kernel_layers(result))
        return Sample(root.seconds, payload=payload, layers=layers)

    def run_layers(self, samples: List[Sample]) -> Dict[str, float]:
        """One single-threaded operation on the same kind of input: the
        baseline the two threads are supposed to beat."""
        inp = self.next_input()
        t0 = clock()
        ColdSingle.op(self, OpInput(inp.image_b64, ColdSingle.mesher,
                                    inp.labels))
        single = clock() - t0
        threaded = median([s.latency for s in samples if not s.error])
        return {"parallel.speedup_over_single":
                single / threaded if threaded else 0.0}


# ----------------------------------------------------------------------
# in-process service workloads
# ----------------------------------------------------------------------
class ColdSharded(Workload):
    name = "cold_sharded"
    delta = 2.0
    shards = 4

    def __init__(self, scale: Scale, seed: int):
        super().__init__(scale, seed)
        self.cache_dir = ""
        self.client = None
        self._metrics_before: Dict[str, Any] = {}
        self._last_result: Optional[MeshResult] = None   # of a traced op

    @property
    def params(self) -> Dict[str, Any]:
        return {"mesher": "sequential", "delta": self.delta,
                "shards": self.shards}

    def _start_service(self) -> None:
        self.cache_dir = env.make_tmp(f"{self.name}-")
        self.client = connect(config=ServiceConfig(
            executor="process", n_workers=2, cache_dir=self.cache_dir))
        warm = variants(ball_grid_phantom(16), random.Random(0),
                        dict(self.params, delta=_WARMUP_DELTA))
        self.op(next(warm))

    def boot(self) -> None:
        base = ball_grid_phantom(self.scale.grid_n)
        self._inputs = variants(base, self.rng, self.params)
        self._start_service()

    def shutdown(self) -> List[str]:
        if self.client is not None:
            self.client.close()
        env.remove_tmp(self.cache_dir)
        return []

    def op(self, inp: OpInput) -> Sample:
        image = decode_image_b64(inp.image_b64)
        result = self.client.mesh(MeshRequest(image=image, **inp.params))
        return Sample(0.0, payload=_serialise(result))

    def measure(self, seconds: float, trace: Optional[Trace],
                examine: Callable[[Sample], None]) -> List[Sample]:
        self._metrics_before = self.client.metrics()
        return super().measure(seconds, trace, examine)

    def traced_op(self, inp: OpInput, trace: Trace) -> Sample:
        service: MeshingService = self.client.service
        with trace.operation() as root:
            with trace.span("decode"):
                image = decode_image_b64(inp.image_b64)
            request = MeshRequest(image=image, **inp.params)
            with trace.span("submit") as submit:
                job = service.submit(request)
            job.wait()
            woke = clock()
            result = job.result
            if result is None:
                raise RuntimeError(f"{job.id} finished {job.state.value}: "
                                   f"{job.error}")
            # Job stamps are time.monotonic, the clock of every span.  A
            # worker can claim the job before submit() has returned; the
            # spans stay disjoint so no instant is counted twice.
            started = max(job.started_at or job.submitted_at, submit.end)
            trace.add("queue_wait", submit.end, started - submit.end,
                      parent=root)
            run = trace.add("run", started, job.finished_at - started,
                            parent=root)
            self._shard_spans(trace, run, result)
            trace.add("wake", job.finished_at, woke - job.finished_at,
                      parent=root)
            with trace.span("serialise"):
                payload = _serialise(result)
        # The service decomposes before it calls ``mesh_sharded``, so no
        # reported timing holds that step; the same public call is timed
        # here, after the operation, and shown as an estimate in ``run``.
        t0 = clock()
        decompose(image, request.resolved_shards(), delta=request.delta)
        decompose_s = clock() - t0
        trace.add("decompose", run.start, decompose_s, parent=run,
                  kind="estimate")
        op = root.op
        layers = {
            "imaging.decode_s": trace.seconds(op, "decode"),
            "imaging.voxels": image.labels.size,
            "shard.decompose_s": decompose_s,
            "api.serialise_s": trace.seconds(op, "serialise"),
        }
        layers.update(shard_layers(result))
        layers.update(kernel_layers(result))
        self._last_result = result
        return Sample(root.seconds, payload=payload, layers=layers)

    @staticmethod
    def _shard_spans(trace: Trace, run, result: MeshResult) -> None:
        """Lay the stages ``mesh_sharded`` reports out inside ``run``.

        The stages are sequential, so their start times follow from
        their durations.  Blocks refine side by side in the workers:
        ``blocks`` holds the fan-out's wall, and each ``block[k]`` is
        shown on one of two lanes (greedily, in index order, as the
        pool hands them out) without being counted again."""
        t = result.timings
        if "stitch_seconds" not in t:
            return                       # one occupied block: unsharded
        at = run.start + t["decompose_seconds"]
        blocks = trace.add("blocks", at, t["shard_seconds"], parent=run)
        lanes = [at, at]
        for k, st in enumerate(result.stats.get("shard_stats", [])):
            lane = lanes.index(min(lanes))
            seconds = st.get("refine_seconds", 0.0)
            trace.add(f"block[{k}]", lanes[lane], seconds, parent=blocks,
                      kind="parallel")
            lanes[lane] += seconds
        at += t["shard_seconds"]
        trace.add("stitch", at, t["stitch_seconds"], parent=run)

    def run_layers(self, samples: List[Sample]) -> Dict[str, float]:
        layers = service_layers(self._metrics_before, self.client.metrics())
        # The same kind of image, unsharded, through the same service:
        # the sharded path's counterpart.  Its job's run time minus the
        # wall the mesher measured around itself inside the worker is
        # what dispatch costs (cache probe and store, pipe, arena
        # publish) — one operation's own stamps, so no run-to-run noise.
        inp = self.next_input()
        request = MeshRequest(image=decode_image_b64(inp.image_b64),
                              **dict(inp.params, shards=None))
        t0 = clock()
        job = self.client.service.submit(request)
        job.wait()
        unsharded = clock() - t0
        if job.result is None:
            raise RuntimeError(f"{job.id} finished {job.state.value}: "
                               f"{job.error}")
        sharded = median([s.latency for s in samples if not s.error])
        layers["service.dispatch_overhead_s"] = (
            job.finished_at - job.started_at
            - job.result.timings["wall_seconds"])
        layers["shard.speedup_over_unsharded"] = (
            unsharded / sharded if sharded else 0.0)
        layers.update(cache_layers(job.result, request))
        return layers


def shard_layers(result: MeshResult) -> Dict[str, float]:
    """``shard.*`` and ``core.refine_*`` from a sharded result's own
    ``timings`` / ``stats`` (blocks and stitch run the same refiner, so
    the refine counts are totals over both)."""
    s, t = result.stats, result.timings
    stitch = s.get("stitch")
    if stitch is None:
        return {}
    blocks = s.get("shard_stats", [])
    cache = s.get("block_cache", {})
    refines = [b.get("refine_seconds", 0.0) for b in blocks
               if "refine_seconds" in b]
    mean = sum(refines) / len(refines) if refines else 0.0
    ins = (sum(b.get("insertions", 0) for b in blocks)
           + s.get("insertions", 0) - stitch.get("points_loaded", 0))
    rem = sum(b.get("removals", 0) for b in blocks) + s.get("removals", 0)
    ops = (sum(b.get("operations", 0) for b in blocks)
           + stitch.get("refine_operations", 0))
    out = {
        "shard.block_refine_sum_s": sum(refines),
        "shard.block_refine_max_s": max(refines, default=0.0),
        "shard.block_imbalance": (max(refines) / mean if mean else 0.0),
        "shard.stitch_s": t.get("stitch_seconds", 0.0),
        "shard.stitch_refine_operations": stitch.get("refine_operations", 0),
        "shard.points_loaded": stitch.get("points_loaded", 0),
        "shard.reused_points": stitch.get("reused_points", 0),
        "shard.block_hits": cache.get("hits", 0),
        "shard.block_misses": cache.get("misses", len(blocks)),
        "shard.stitch_escalations": float(
            stitch.get("mode") == "seam_local+repair"),
        "core.refine_s": sum(refines) + stitch.get("refine_seconds", 0.0),
    }
    out.update(refine_layers(ops, ins, rem, s.get("skipped", 0)))
    return out


class NearDuplicateSeries(ColdSharded):
    name = "near_duplicate_series"

    def boot(self) -> None:
        n = self.scale.grid_n

        def frame(shift: float):
            return near_duplicate_phantom(n, inclusion_shift=shift)

        mapping = label_map(frame(0.0), self.rng)
        self._base = relabelled(frame(0.0), mapping, self.params)
        self._inputs = walk_frames(frame, mapping, self.rng, self.params)
        self._start_service()

    def prime(self) -> None:
        """The series' first frame, meshed cold: what every timed frame
        is a near-duplicate of."""
        self.op(self._base)

    def run_layers(self, samples: List[Sample]) -> Dict[str, float]:
        layers = service_layers(self._metrics_before, self.client.metrics())
        if self._last_result is not None:
            image = decode_image_b64(self._base.image_b64)
            layers.update(cache_layers(
                self._last_result, MeshRequest(image=image, **self.params)))
        return layers


# ----------------------------------------------------------------------
# the HTTP gateway
# ----------------------------------------------------------------------
class TracingHttpClient(HttpClient):
    """An :class:`HttpClient` that records one span and the byte counts
    of every round trip while a trace is attached."""

    trace: Optional[Trace] = None
    round_trips = 0
    upload_bytes = 0
    response_bytes = 0

    def _request(self, method, path, body=None):
        if self.trace is None:
            return super()._request(method, path, body)
        if method == "POST":
            name = "post"
        else:
            name = "result" if "result=1" in path else "wait"
        with self.trace.span(name):
            status, out, headers = super()._request(method, path, body)
        self.round_trips += 1
        if body is not None:
            self.upload_bytes += len(json.dumps(body))
        self.response_bytes += int(headers.get("content-length", 0))
        return status, out, headers


class GatewayMix(Workload):
    name = "gateway_mix"
    loop = "closed loop, 2 HttpClient threads"
    #: a hit is ~0.12 s of wall for ~0.03 s of CPU: the host's speed is
    #: not what sets it, and the raw numbers repeat within 5 to 6 %
    at_reference_speed = False
    n_images = 8
    n_clients = 2
    delta = 2.0
    memory_cache_bytes = 1_200_000
    #: The first request for each image, as ranks per client: both
    #: clients ask for images 0 and 1 at once (a mesh run and a coalesced
    #: follower each), then split the other six (two runs at a time).
    #: These run as the priming step of set-up, the same on every seed.
    #: Left to the seeded stream, the eight cold meshes took 4 to 7 of
    #: the section's 16 s depending on where the first misses fell, and
    #: throughput measured refinement and the seed more than transport.
    opening = ((0, 1, 2, 4, 6), (0, 1, 3, 5, 7))

    def __init__(self, scale: Scale, seed: int):
        super().__init__(scale, seed)
        self.cache_dir = ""
        self.server: Optional[subprocess.Popen] = None
        self.clients: List[HttpClient] = []
        self._images: List[OpInput] = []
        self._ranks: Iterator[int] = iter(())
        self._metrics_before: Dict[str, Any] = {}
        self._last_result: Optional[MeshResult] = None

    def boot(self) -> None:
        params = {"mesher": "sequential", "delta": self.delta}
        gen = variants(abdominal_phantom(self.scale.gateway_n), self.rng,
                       params)
        self._images = [next(gen) for _ in range(self.n_images)]
        self._ranks = iter(zipf_ranks(self.rng, self.n_images, 8192))
        self.cache_dir = env.make_tmp(f"{self.name}-")
        log = f"{self.cache_dir}/server.log"
        with open(log, "w") as sink:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--http", "127.0.0.1:0", "--executor", "process",
                 "--workers", "2", "--cache-dir", f"{self.cache_dir}/cache",
                 "--memory-cache-bytes", str(self.memory_cache_bytes)],
                stdin=subprocess.DEVNULL, stdout=sink, stderr=sink,
                cwd=env.ROOT,
            )
        host, port = self._await_banner(log)
        self.clients = [TracingHttpClient(host, port, timeout=120.0)
                        for _ in range(self.n_clients)]
        # Two different small requests at once: both workers spawn now.
        gen = variants(sphere_phantom(16), random.Random(0),
                       dict(params, delta=_WARMUP_DELTA))
        warm = [next(gen) for _ in range(self.n_clients)]
        self._concurrently(
            lambda i: self._request(self.clients[i], warm[i]))

    def _await_banner(self, log: str, timeout: float = 60.0):
        marker = "serving http on http://"
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            with open(log) as fh:
                text = fh.read()
            if marker in text:
                url = text.split(marker, 1)[1].split()[0]
                host, _, port = url.rpartition(":")
                return host, int(port)
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"gateway did not come up: {text.strip()!r}")

    def _concurrently(self, fn) -> None:
        errors: List[BaseException] = []

        def guarded(i: int) -> None:
            try:
                fn(i)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(i,))
                   for i in range(self.n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def shutdown(self) -> List[str]:
        problems: List[str] = []
        for c in self.clients:
            c.close()
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
                problems.append("gateway ignored SIGINT and was killed")
            if self.server.returncode != 0:
                problems.append(
                    f"gateway exited with code {self.server.returncode}")
        env.remove_tmp(self.cache_dir)
        return problems

    @staticmethod
    def _request(client: HttpClient, inp: OpInput) -> MeshResult:
        image = decode_image_b64(inp.image_b64)
        return client.mesh(MeshRequest(image=image, **inp.params),
                           timeout=120.0)

    def _traced_request(self, client: TracingHttpClient, inp: OpInput,
                        trace: Trace, sample: Sample) -> MeshResult:
        trips, up, down = (client.round_trips, client.upload_bytes,
                           client.response_bytes)
        with trace.operation() as root:
            with trace.span("decode"):
                image = decode_image_b64(inp.image_b64)
            result = client.mesh(MeshRequest(image=image, **inp.params),
                                 timeout=120.0)
            fetched = trace.spans[-1]            # the "result" round trip
            trace.add("deserialise", fetched.end, clock() - fetched.end,
                      parent=root, kind="timed")
        sample.layers = {
            "imaging.decode_s": trace.seconds(root.op, "decode"),
            "imaging.voxels": image.labels.size,
            "api.deserialise_s": trace.seconds(root.op, "deserialise"),
            "http.round_trips_per_request": client.round_trips - trips,
            "http.upload_bytes": client.upload_bytes - up,
            "http.response_bytes": client.response_bytes - down,
        }
        return result

    def prime(self) -> None:
        """Every image meshed once over the real transport: afterwards
        the gateway holds the whole working set on disk and about half
        of it in memory.  The per-layer service counts start here, so
        they cover these requests too."""
        self._metrics_before = self.clients[0].metrics()
        self._concurrently(lambda i: [
            self._request(self.clients[i], self._images[rank])
            for rank in self.opening[i]])

    def measure(self, seconds: float, trace: Optional[Trace],
                examine: Callable[[Sample], None]) -> List[Sample]:
        """Both clients draw the next zipfian rank as soon as their last
        request completes, until ``seconds`` have passed.  In a traced
        run client 0 is traced and client 1 is the plain reference.
        Outputs are checked after the section (the clients must not
        pause between requests), which costs one held mesh per distinct
        image."""
        samples: List[Sample] = []
        lock = threading.Lock()
        limit = self.scale.gateway_requests
        issued = [0]
        held: set = set()
        t_end = clock() + seconds
        cpu0 = procstat.cpu_seconds()

        def next_input() -> Optional[OpInput]:
            with lock:
                if limit is not None:
                    if issued[0] >= limit:
                        return None
                elif clock() >= t_end:
                    return None
                issued[0] += 1
                return self._images[next(self._ranks)]

        def drain(i: int) -> None:
            client = self.clients[i]
            traced = trace is not None and i == 0
            if traced:
                client.trace = trace
            while True:
                inp = next_input()
                if inp is None:
                    return
                s = Sample(0.0, traced=traced, labels=inp.labels)
                result = None
                t0 = clock()
                try:
                    if traced:
                        result = self._traced_request(client, inp, trace, s)
                    else:
                        result = self._request(client, inp)
                except Exception as exc:
                    s.error = f"{type(exc).__name__}: {exc}"
                s.latency = clock() - t0
                if result is not None:
                    s.take(result)
                with lock:
                    # A mesh served again from a cache is checked once:
                    # hold the first copy, let the repeats go.
                    if s.digest in held:
                        s.result = None
                    held.add(s.digest)
                    samples.append(s)

        t0 = clock()
        self._concurrently(drain)
        self.wall = clock() - t0
        # One CPU reading for the whole section (the clients overlap),
        # spread evenly so the per-operation arithmetic stays the same.
        cpu = (procstat.cpu_seconds() - cpu0) / max(1, len(samples))
        for c in self.clients:
            c.trace = None
        for s in samples:
            s.cpu = cpu
            if s.result is not None:
                self._last_result = s.result
            examine(s)
        return samples

    def run_layers(self, samples: List[Sample]) -> Dict[str, float]:
        layers = service_layers(self._metrics_before,
                                self.clients[0].metrics())
        if self._last_result is None:
            return layers
        inp = self._images[0]
        request = MeshRequest(image=decode_image_b64(inp.image_b64),
                              **inp.params)
        layers.update(cache_layers(self._last_result, request))
        t0 = clock()
        _serialise(self._last_result)
        layers["api.serialise_s"] = clock() - t0
        layers.update(self._handler_layers(inp))
        return layers

    @staticmethod
    def _handler_layers(inp: OpInput, reps: int = 5) -> Dict[str, float]:
        """Time the transport-free ``MeshGateway.handle`` on memory hits:
        what the three round trips cost the server with no socket, no
        JSON framing and no second process involved."""
        service = MeshingService(
            ServiceConfig(n_workers=1, executor="thread")).start()
        try:
            gateway = MeshGateway(service)
            body = {"image_b64": inp.image_b64, "params": inp.params,
                    "wait": True}
            status, out, _ = gateway.handle("POST", "/v1/mesh", body=body)
            if status != 200:
                raise RuntimeError(f"handler probe failed: {out}")
            key = gateway.images.put(decode_image_b64(inp.image_b64))
            post_s, wait_s, result_s = [], [], []
            for _ in range(reps):
                t0 = clock()
                _, out, _ = gateway.handle("POST", "/v1/mesh", body={
                    "image_key": key, "params": inp.params, "wait": False})
                t1 = clock()
                path = f"/v1/jobs/{out['id']}"
                gateway.handle("GET", path, query={"wait": "60"})
                t2 = clock()
                gateway.handle("GET", path, query={"result": "1"})
                t3 = clock()
                post_s.append(t1 - t0)
                wait_s.append(t2 - t1)
                result_s.append(t3 - t2)
        finally:
            service.shutdown()
        return {"http.handle_post_s": median(post_s),
                "http.handle_wait_s": median(wait_s),
                "http.handle_result_s": median(result_s)}


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    ColdSingle, ColdThreaded, ColdSharded, NearDuplicateSeries, GatewayMix)}
