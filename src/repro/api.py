"""Unified mesher API: one request shape, one result shape, any mesher.

Every mesher in this repository — the PI2M sequential refiner, the
real-thread speculative refiner, the simulated cc-NUMA runs and the two
baselines (CGAL-like, TetGen-like) — is reachable through the same
three-step protocol::

    from repro.api import MeshRequest, mesh

    request = MeshRequest(image=image, delta=2.0, mesher="sequential")
    result = mesh(request)          # -> MeshResult
    result.mesh.n_tets, result.timings["wall_seconds"], result.metrics

A :class:`MeshRequest` bundles the image, the paper's quality knobs,
the parallel configuration (thread count, contention manager, load
balancer) and the run's
:class:`~repro.observability.ObservabilityConfig`; a
:class:`MeshResult` bundles the extracted mesh, flat statistics, the
metrics-registry snapshot and timings, plus non-serialisable extras
(domain, thread stats, the live ``Observability`` bundle) for callers
that need them.  ``MeshResult.to_dict`` / ``from_dict`` round-trip the
serialisable portion.

This module is the only supported entry point: the classic PR-1
functions (``repro.core.mesh_image``, ``repro.parallel.
parallel_mesh_image``, ``repro.simnuma.simulate_parallel_refinement``)
have been removed; their implementations live on as the underscore
functions this facade calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.extract import ExtractedMesh
from repro.imaging.image import SegmentedImage
from repro.observability import Observability, ObservabilityConfig
from repro.runtime import CM_NAMES, LB_NAMES

#: Mesher names accepted by :class:`MeshRequest` / :func:`get_mesher`.
MESHER_NAMES = (
    "sequential", "threaded", "simulated", "cgal_like", "tetgen_like",
)


@dataclass
class MeshRequest:
    """Everything one meshing run needs, independent of the mesher.

    ``mesher='auto'`` resolves to ``'sequential'`` whatever
    ``n_threads`` is (real threads measure 0.21-0.31x of it under one
    interpreter lock); ``n_threads`` configures the ``'threaded'`` and
    ``'simulated'`` meshers, which are served when named.
    """

    image: SegmentedImage
    mesher: str = "auto"
    # -- fidelity / quality targets (paper Section 3) -------------------
    delta: Optional[float] = None
    radius_edge_bound: float = 2.0
    planar_angle_bound_deg: float = 30.0
    size_function: Optional[Any] = None
    # -- parallel configuration (paper Sections 4-6) --------------------
    n_threads: int = 1
    cm: str = "local"
    lb: str = "hws"
    hyperthreading: bool = False
    seed: int = 0
    #: domain sharding: ``None``/1 = off, ``"auto"`` = one shard per
    #: CPU (capped), N = split the image into up to N blocks meshed in
    #: parallel workers and stitched (:mod:`repro.delaunay.shard`).
    shards: Optional[Any] = None
    #: incremental meshing for sharded requests: content-address each
    #: block's refined point set and warm-start the stitch from the
    #: previous run's delta, so near-duplicate images only pay for the
    #: blocks whose crop bytes changed.  No effect when ``shards <= 1``.
    incremental: bool = True
    # -- guard rails ----------------------------------------------------
    #: upper bound on refinement *pops*; exceeding it raises.  Every tet
    #: a cavity creates is queued and judged once when popped, so pops
    #: that apply no rule count too (``stats["operations"]``,
    #: ``rule_counts["none"]``): a mesh needs about 20-50 % more
    #: operations than when new tets were screened at birth.
    max_operations: Optional[int] = None
    timeout: Optional[float] = None
    # -- observability --------------------------------------------------
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )

    def resolved_mesher(self) -> str:
        if self.mesher == "auto":
            return "sequential"
        return self.mesher

    def resolved_shards(self) -> int:
        """The effective shard count (``"auto"`` → one per CPU, ≤ 8)."""
        s = self.shards
        if s is None:
            return 1
        if s == "auto":
            import os
            return max(1, min(os.cpu_count() or 1, 8))
        return int(s)

    def canonical_params(self) -> Dict[str, Any]:
        """The request knobs that determine the output mesh, in a flat,
        JSON-stable form (the second half of the service's cache key).

        ``mesher`` is resolved (``auto`` never appears), floats pass
        through ``repr`` untouched, and observability / timeout — which
        change what gets *recorded*, not what gets *meshed* — are
        excluded.  Requests carrying a live ``size_function`` have no
        canonical form and raise ``ValueError`` (the service treats
        them as uncacheable).
        """
        if self.size_function is not None:
            raise ValueError(
                "requests with a size_function are not canonicalizable"
            )
        return {
            "mesher": self.resolved_mesher(),
            "delta": self.delta,
            "radius_edge_bound": float(self.radius_edge_bound),
            "planar_angle_bound_deg": float(self.planar_angle_bound_deg),
            "n_threads": int(self.n_threads),
            "cm": self.cm,
            "lb": self.lb,
            "hyperthreading": bool(self.hyperthreading),
            "seed": int(self.seed),
            "max_operations": self.max_operations,
            "shards": int(self.resolved_shards()),
            "incremental": bool(self.incremental)
            and self.resolved_shards() > 1,
        }

    def validate(self) -> None:
        """Raise ``ValueError`` on an unsatisfiable request."""
        name = self.mesher
        if name != "auto" and name not in MESHER_NAMES:
            raise ValueError(
                f"unknown mesher {name!r}; pick from "
                f"{('auto',) + MESHER_NAMES}"
            )
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.delta is not None and self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        for knob, names in (("cm", CM_NAMES), ("lb", LB_NAMES)):
            value = getattr(self, knob)
            if not isinstance(value, str) or value.lower() not in names:
                raise ValueError(
                    f"{knob} must be one of {names}, got {value!r}")
        s = self.shards
        if s is not None:
            if s != "auto" and (not isinstance(s, int)
                                or isinstance(s, bool) or s < 1):
                raise ValueError(
                    f"shards must be a positive int or 'auto', got {s!r}"
                )
            if (s == "auto" or s > 1):
                if self.resolved_mesher() != "sequential":
                    raise ValueError(
                        "sharded meshing requires the sequential mesher "
                        f"(got {self.resolved_mesher()!r}); shards "
                        "parallelise across worker processes, not threads"
                    )
                if self.size_function is not None:
                    raise ValueError(
                        "sharded meshing does not support size_function"
                    )


@dataclass
class MeshResult:
    """Uniform outcome of any mesher run.

    ``stats`` holds flat, JSON-safe counters specific to the mesher
    (operations, rollbacks, rule counts, livelock, ...); ``metrics`` is
    the run's metrics-registry snapshot; ``timings`` always contains
    ``wall_seconds`` and, for simulated runs, ``virtual_seconds``.
    ``extras`` carries live objects (domain, thread stats, the
    ``Observability`` bundle) on what :func:`mesh` returns; it is
    dropped by :meth:`to_dict`, and a result a
    :class:`~repro.service.MeshingService` hands out or stores has none.
    """

    mesh: ExtractedMesh
    mesher: str
    stats: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def n_tets(self) -> int:
        return self.mesh.n_tets

    @property
    def n_vertices(self) -> int:
        return self.mesh.n_vertices

    @property
    def ok(self) -> bool:
        """A usable (non-empty, non-livelocked) mesh came out."""
        return self.mesh.n_tets > 0 and not self.stats.get("livelock", False)

    @property
    def observability(self) -> Optional[Observability]:
        return self.extras.get("obs")

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (mesh arrays as nested lists, extras dropped)."""
        return {
            "mesher": self.mesher,
            "mesh": {
                "vertices": self.mesh.vertices.tolist(),
                "tets": self.mesh.tets.tolist(),
                "tet_labels": self.mesh.tet_labels.tolist(),
                "boundary_faces": self.mesh.boundary_faces.tolist(),
                "boundary_labels": self.mesh.boundary_labels.tolist(),
            },
            "stats": dict(self.stats),
            "metrics": dict(self.metrics),
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "MeshResult":
        m = doc["mesh"]
        mesh = ExtractedMesh(
            vertices=np.asarray(m["vertices"], dtype=np.float64).reshape(-1, 3),
            tets=np.asarray(m["tets"], dtype=np.int64).reshape(-1, 4),
            tet_labels=np.asarray(m["tet_labels"], dtype=np.int32),
            boundary_faces=np.asarray(
                m["boundary_faces"], dtype=np.int64
            ).reshape(-1, 3),
            boundary_labels=np.asarray(
                m["boundary_labels"], dtype=np.int32
            ).reshape(-1, 2),
        )
        return cls(
            mesh=mesh,
            mesher=doc["mesher"],
            stats=dict(doc.get("stats", {})),
            metrics=dict(doc.get("metrics", {})),
            timings=dict(doc.get("timings", {})),
        )


@runtime_checkable
class Mesher(Protocol):
    """The protocol every mesher implementation satisfies."""

    name: str

    def mesh(self, request: MeshRequest) -> MeshResult:
        """Run one conversion described by ``request``."""
        ...


# ---------------------------------------------------------------------------
# implementations
# ---------------------------------------------------------------------------

class SequentialMesher:
    """PI2M single-threaded refinement (paper Section 3)."""

    name = "sequential"

    def mesh(self, request: MeshRequest) -> MeshResult:
        from repro.core import _mesh_image

        obs = Observability.from_config(request.observability)
        t0 = time.perf_counter()
        res = _mesh_image(
            request.image,
            delta=request.delta,
            size_function=request.size_function,
            radius_edge_bound=request.radius_edge_bound,
            planar_angle_bound_deg=request.planar_angle_bound_deg,
            max_operations=request.max_operations,
            obs=obs,
        )
        wall = time.perf_counter() - t0
        s = res.stats
        return MeshResult(
            mesh=res.mesh,
            mesher=self.name,
            stats={
                "operations": s.n_operations,
                "insertions": s.n_insertions,
                "removals": s.n_removals,
                "skipped": s.n_skipped,
                "rule_counts": dict(s.rule_counts),
                "elements_per_second": s.tets_per_second,
            },
            metrics=obs.snapshot(),
            timings={"wall_seconds": wall, "refine_seconds": s.wall_time},
            extras={"obs": obs, "domain": res.domain, "raw": res},
        )


class ThreadedMesher:
    """PI2M speculative refinement on real OS threads (Section 4)."""

    name = "threaded"

    def mesh(self, request: MeshRequest) -> MeshResult:
        from repro.parallel.threaded import _parallel_mesh_image

        obs = Observability.from_config(request.observability)
        t0 = time.perf_counter()
        res = _parallel_mesh_image(
            request.image,
            n_threads=request.n_threads,
            delta=request.delta,
            size_function=request.size_function,
            radius_edge_bound=request.radius_edge_bound,
            planar_angle_bound_deg=request.planar_angle_bound_deg,
            cm=request.cm,
            lb=request.lb,
            seed=request.seed,
            timeout=request.timeout,
            obs=obs,
        )
        wall = time.perf_counter() - t0
        stats = dict(res.totals)
        stats["n_threads"] = res.n_threads
        stats["elements_per_second"] = (
            res.mesh.n_tets / res.wall_time if res.wall_time > 0 else 0.0
        )
        return MeshResult(
            mesh=res.mesh,
            mesher=self.name,
            stats=stats,
            metrics=obs.snapshot(),
            timings={"wall_seconds": wall, "refine_seconds": res.wall_time},
            extras={
                "obs": obs,
                "domain": res.domain,
                "thread_stats": res.thread_stats,
                "raw": res,
            },
        )


class SimulatedMesher:
    """PI2M refinement on the simulated cc-NUMA machine (Sections 5-6).

    Unlike the classic ``_simulate_parallel_refinement`` (which reports
    counts only), the unified path also extracts the final mesh so the
    result shape matches every other mesher.
    """

    name = "simulated"

    def mesh(self, request: MeshRequest) -> MeshResult:
        from repro.core.domain import RefineDomain
        from repro.core.extract import extract_mesh
        from repro.simnuma.simrefiner import _simulate_parallel_refinement

        obs = Observability.from_config(request.observability)
        t0 = time.perf_counter()
        domain = RefineDomain(
            request.image,
            delta=request.delta,
            size_function=request.size_function,
            radius_edge_bound=request.radius_edge_bound,
            planar_angle_bound_deg=request.planar_angle_bound_deg,
        )
        sim = _simulate_parallel_refinement(
            request.image,
            request.n_threads,
            cm=request.cm,
            lb=request.lb,
            hyperthreading=request.hyperthreading,
            seed=request.seed,
            domain=domain,
            obs=obs,
        )
        mesh = extract_mesh(domain)
        wall = time.perf_counter() - t0
        stats = dict(sim.totals)
        stats.update(
            n_threads=sim.n_threads,
            cm=sim.cm_name,
            lb=sim.lb_name,
            hyperthreading=sim.hyperthreading,
            livelock=sim.livelock,
            elements_per_second=sim.elements_per_second,
        )
        return MeshResult(
            mesh=mesh,
            mesher=self.name,
            stats=stats,
            metrics=obs.snapshot(),
            timings={
                "wall_seconds": wall,
                "virtual_seconds": sim.virtual_time,
            },
            extras={
                "obs": obs,
                "domain": domain,
                "thread_stats": sim.thread_stats,
                "raw": sim,
            },
        )


def _run_baseline(name: str, obs: Observability, mesher, t0: float) -> MeshResult:
    """Refine ``mesher`` and build its ``MeshResult``: rate over the
    mesher's own ``stats.wall_time``, ``wall_seconds`` since ``t0``."""
    with obs.tracer.span(f"{name}.refine"):
        extracted = mesher.refine()
    wall = time.perf_counter() - t0
    s = mesher.stats
    rate = extracted.n_tets / s.wall_time if s.wall_time > 0 else 0.0
    reg = obs.registry
    reg.counter("refine.operations").inc(s.n_operations)
    reg.counter("refine.insertions").inc(s.n_insertions)
    reg.gauge("run.elements").set(extracted.n_tets)
    reg.gauge("run.wall_seconds").set(wall)
    reg.gauge("run.elements_per_second").set(rate)
    return MeshResult(
        mesh=extracted,
        mesher=name,
        stats={"operations": s.n_operations, "insertions": s.n_insertions,
               "elements_per_second": rate},
        metrics=obs.snapshot(),
        timings={"wall_seconds": wall, "refine_seconds": s.wall_time},
        extras={"obs": obs, "raw": mesher},
    )


class CGALLikeAdapter:
    """The isosurface-based CGAL-Mesh_3-style baseline (Table 6)."""

    name = "cgal_like"

    def mesh(self, request: MeshRequest) -> MeshResult:
        from repro.baselines.cgal_like import CGALLikeMesher

        obs = Observability.from_config(request.observability)
        t0 = time.perf_counter()
        return _run_baseline(self.name, obs, CGALLikeMesher(
            request.image,
            facet_angle_deg=request.planar_angle_bound_deg,
            cell_radius_edge=request.radius_edge_bound,
        ), t0)


class TetGenLikeAdapter:
    """The PLC-based TetGen-style baseline (Table 6).

    TetGen receives *the surface PI2M recovers* as its PLC (the paper's
    exact setup), so this adapter first runs a sequential PI2M pass to
    produce the boundary triangulation (``timings["plc_seconds"]``, not
    charged to the filler's rate), then fills and refines the volume.
    Region seeds are label centroids of the input image.
    """

    name = "tetgen_like"

    def mesh(self, request: MeshRequest) -> MeshResult:
        from repro.baselines.tetgen_like import TetGenLikeMesher
        from repro.core import _mesh_image

        obs = Observability.from_config(request.observability)
        t0 = time.perf_counter()
        with obs.tracer.span("tetgen_like.plc"):
            plc = _mesh_image(
                request.image,
                delta=request.delta,
                size_function=request.size_function,
                radius_edge_bound=request.radius_edge_bound,
                planar_angle_bound_deg=request.planar_angle_bound_deg,
                max_operations=request.max_operations,
            )
        plc_seconds = time.perf_counter() - t0
        seeds = _region_seeds(request.image)
        if plc.mesh.n_tets == 0 or not seeds:
            return MeshResult(
                mesh=plc.mesh,
                mesher=self.name,
                stats={"operations": 0, "insertions": 0,
                       "plc_elements": plc.mesh.n_tets},
                metrics=obs.snapshot(),
                timings={"wall_seconds": plc_seconds, "plc_seconds": plc_seconds},
                extras={"obs": obs},
            )
        result = _run_baseline(self.name, obs, TetGenLikeMesher(
            plc.mesh.vertices,
            plc.mesh.boundary_faces,
            seeds,
            radius_edge_bound=request.radius_edge_bound,
        ), t0)
        result.stats["plc_vertices"] = int(len(plc.mesh.vertices))
        result.timings["plc_seconds"] = plc_seconds
        result.extras["plc"] = plc
        return result


def _region_seeds(image: SegmentedImage
                  ) -> List[Tuple[Tuple[float, float, float], int]]:
    """One interior seed point per tissue label: the centroid voxel of
    the label's mask, snapped to the nearest voxel actually carrying the
    label (centroids of non-convex tissues can fall outside)."""
    seeds: List[Tuple[Tuple[float, float, float], int]] = []
    for lab in np.unique(image.labels):
        if lab == 0:
            continue
        idx = np.argwhere(image.labels == lab)
        centroid = idx.mean(axis=0)
        nearest = idx[np.argmin(((idx - centroid) ** 2).sum(axis=1))]
        seeds.append((image.voxel_center(nearest), int(lab)))
    return seeds


# ---------------------------------------------------------------------------
# registry + dispatch
# ---------------------------------------------------------------------------

_MESHERS: Dict[str, Mesher] = {
    "sequential": SequentialMesher(),
    "threaded": ThreadedMesher(),
    "simulated": SimulatedMesher(),
    "cgal_like": CGALLikeAdapter(),
    "tetgen_like": TetGenLikeAdapter(),
}


def get_mesher(name: str) -> Mesher:
    """Look a mesher up by name (see :data:`MESHER_NAMES`)."""
    try:
        return _MESHERS[name]
    except KeyError:
        raise ValueError(
            f"unknown mesher {name!r}; pick from {MESHER_NAMES}"
        ) from None


def mesh(request: MeshRequest) -> MeshResult:
    """The unified entry point: validate, dispatch, run.

    Requests with ``shards`` > 1 route through the domain-sharded path
    (:mod:`repro.delaunay.shard`); when the image decomposes into a
    single occupied block — or ``shards`` resolves to 1 — the plain
    mesher runs, bit-identical to an unsharded request.
    """
    request.validate()
    if request.resolved_shards() > 1:
        from repro.service.shards import run_local

        result = run_local(request)
        if result is not None:
            return result
    return get_mesher(request.resolved_mesher()).mesh(request)


__all__ = [
    "MESHER_NAMES",
    "MeshRequest",
    "MeshResult",
    "Mesher",
    "SequentialMesher",
    "ThreadedMesher",
    "SimulatedMesher",
    "CGALLikeAdapter",
    "TetGenLikeAdapter",
    "get_mesher",
    "mesh",
]
