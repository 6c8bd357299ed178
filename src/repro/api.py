"""Unified mesher API: one request shape, one result shape.

The PI2M sequential refiner and the real-thread speculative refiner
are reachable through the same three-step protocol::

    from repro.api import MeshRequest, mesh

    request = MeshRequest(image=image, delta=2.0, mesher="sequential")
    result = mesh(request)          # -> MeshResult
    result.mesh.n_tets, result.timings["wall_seconds"], result.metrics

A :class:`MeshRequest` bundles the image, the sampling parameter
``delta`` and size function, the shard count, a guard rail, the
threaded mesher's thread count and contention manager and the run's
:class:`~repro.observability.ObservabilityConfig`; the paper's quality
bounds are constants of the rule engine
(:data:`repro.core.domain.RADIUS_EDGE_BOUND`,
:data:`~repro.core.domain.PLANAR_ANGLE_BOUND_DEG`), not settings.  A
:class:`MeshResult` bundles the extracted mesh, flat statistics, the
metrics-registry snapshot and timings, plus non-serialisable extras
(the domain and the live ``Observability`` bundle) for callers that
need them.  ``MeshResult.to_dict`` / ``from_dict`` are the one result
codec (disk artifact, HTTP body): a JSON document whose mesh arrays
are base64 of their raw little-endian bytes (:data:`MESH_ARRAYS`).

The simulated cc-NUMA runs (paper Sections 5-6) and the Table 6
baselines are experiments, not served meshers: call
``repro.simnuma._simulate_parallel_refinement`` and
``repro.baselines.{CGALLike,TetGenLike}Mesher`` directly, as the paper
tables do.
"""

from __future__ import annotations

import base64
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.extract import ExtractedMesh
from repro.core.sizing import SizeSpec, finite_number
from repro.imaging.image import SegmentedImage
from repro.observability import Observability, ObservabilityConfig
from repro.runtime import CM_NAMES

#: Mesher names :func:`mesh` runs (:func:`get_mesher`); a
#: default :class:`~repro.service.MeshingService` serves ``sequential``
#: alone.
MESHER_NAMES = ("sequential", "threaded")

_NUMBER = (float, int)
_NULL = type(None)

#: The request codec's one field table: each :class:`MeshRequest` field
#: the service serves, with the JSON types its value may take (the
#: first is its canonical form; ``size_function`` travels as
#: :meth:`SizeSpec.to_json`).  The cache key, the HTTP body and the
#: worker payloads all read it.  The image, the observability config
#: and the threaded mesher's knobs only :func:`mesh` reads are not in
#: it.
REQUEST_FIELDS: Dict[str, Tuple[type, ...]] = {
    "mesher": (str,),
    "delta": _NUMBER + (_NULL,),
    "size_function": (dict, _NULL),
    "shards": (int, str, _NULL),
    "max_operations": (int, _NULL),
}


def _encode(name: str, value: Any) -> Any:
    """One field's value in its canonical JSON form."""
    if value is None or isinstance(value, str):
        return value
    if name == "size_function":
        return value.to_json()
    return REQUEST_FIELDS[name][0](value)


def _decode(name: str, value: Any) -> Any:
    """One JSON value checked against the field table and brought to its
    canonical form; ``ValueError`` naming the field otherwise."""
    types = REQUEST_FIELDS.get(name)
    if types is None:
        raise ValueError(f"unknown param {name!r}")
    if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types):
        raise ValueError(f"param {name!r} has the wrong type: {value!r}")
    if name == "size_function" and value is not None:
        try:
            return SizeSpec.from_json(value)
        except ValueError as exc:
            raise ValueError(f"param {name!r}: {exc}") from None
    if float in types and value is not None:
        return finite_number(f"param {name!r}", value)
    return _encode(name, value)


@dataclass
class MeshRequest:
    """Everything one meshing run needs, independent of the mesher.

    ``mesher='auto'`` resolves to ``'sequential'`` whatever
    ``n_threads`` is (real threads measure 0.21-0.31x of it under one
    interpreter lock).  ``n_threads`` and ``cm`` configure the
    ``'threaded'`` mesher, which only :func:`mesh` runs: they are
    library fields, outside the codec (:data:`REQUEST_FIELDS`), so no
    cache key, wire body or worker payload carries them.
    """

    image: SegmentedImage
    mesher: str = "auto"
    # -- fidelity target (paper Section 3) -------------------------------
    delta: Optional[float] = None
    #: rule R5's size function (:mod:`repro.core.sizing`), or ``None``
    size_function: Optional[SizeSpec] = None
    # -- threaded mesher (paper Section 4; library only) -----------------
    n_threads: int = 1
    cm: str = "local"
    #: domain sharding: ``None``/1 = off, ``"auto"`` = one shard per
    #: CPU (capped), N = split the image into up to N blocks, meshed
    #: one after another by :func:`mesh` or over a service's worker
    #: processes, and stitched (:mod:`repro.delaunay.shard`).
    shards: Optional[Any] = None
    # -- guard rails ----------------------------------------------------
    #: upper bound on refinement *pops*; exceeding it raises.  Every tet
    #: a cavity creates is queued and judged once when popped, so pops
    #: that apply no rule count too (``stats["operations"]``,
    #: ``rule_counts["none"]``): a mesh needs about 20-50 % more
    #: operations than when new tets were screened at birth.
    max_operations: Optional[int] = None
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

    def domain_args(self) -> Dict[str, Any]:
        """The request's :class:`~repro.core.domain.RefineDomain` args."""
        return dict(delta=self.delta, size_function=self.size_function)

    def to_params(self, omit_defaults: bool = False) -> Dict[str, Any]:
        """The request's :data:`REQUEST_FIELDS`, each in its canonical
        JSON form; ``omit_defaults`` keeps only the non-default entries
        (what an HTTP body's ``params`` carries)."""
        params = {name: _encode(name, getattr(self, name))
                  for name in REQUEST_FIELDS}
        if omit_defaults:
            fields = self.__dataclass_fields__
            params = {name: value for name, value in params.items()
                      if value != fields[name].default}
        return params

    @classmethod
    def from_params(cls, image: Any, params: Dict[str, Any]
                    ) -> "MeshRequest":
        """Inverse of :meth:`to_params`.  ``ValueError`` naming the field
        on an unknown name, a wrong JSON type (a boolean is not a
        number), a non-finite number or a malformed size spec."""
        return cls(image=image, **{name: _decode(name, value)
                                   for name, value in params.items()})

    def canonical_params(self) -> Dict[str, Any]:
        """What determines the output mesh (the second half of the
        service's cache key): :meth:`to_params` with ``mesher`` and
        ``shards`` resolved."""
        params = self.to_params()
        params.update(mesher=self.resolved_mesher(),
                      shards=self.resolved_shards())
        return params

    def validate(self) -> None:
        """Raise ``ValueError`` on an unsatisfiable request.  The mesher
        name is checked by whoever runs it: :func:`get_mesher` for
        :func:`mesh`, the service's table for a service."""
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        sf = self.size_function
        if sf is not None and not isinstance(sf, SizeSpec):
            raise ValueError("size_function must be a SizeSpec "
                             f"(repro.core.sizing), got {sf!r}")
        self.from_params(self.image, self.to_params())  # types, finiteness
        if self.delta is not None and self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not isinstance(self.cm, str) or self.cm.lower() not in CM_NAMES:
            raise ValueError(
                f"cm must be one of {CM_NAMES}, got {self.cm!r}")
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
                if sf is not None:
                    raise ValueError(
                        "sharded meshing does not support size_function: "
                        "a block's crop has its own surface distance, and "
                        "the stitch re-judges only the seams")


@dataclass
class MeshResult:
    """Uniform outcome of any mesher run.

    ``stats`` holds flat, JSON-safe counters specific to the mesher
    (operations, rollbacks, rule counts, ...); ``metrics`` is the run's
    metrics-registry snapshot; ``timings`` always contains
    ``wall_seconds``.  ``extras`` carries live objects (``domain`` and
    the ``obs`` bundle) on what :func:`mesh` returns; it is
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
        """A usable (non-empty) mesh came out."""
        return self.mesh.n_tets > 0

    @property
    def observability(self) -> Optional[Observability]:
        return self.extras.get("obs")

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict, extras dropped; each mesh array is
        ``{"dtype", "shape", "b64"}`` (:data:`MESH_ARRAYS`)."""
        return {
            "mesher": self.mesher,
            "mesh": {name: _encode_array(name, getattr(self.mesh, name))
                     for name in MESH_ARRAYS},
            "stats": dict(self.stats),
            "metrics": dict(self.metrics),
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "MeshResult":
        """Inverse of :meth:`to_dict`: every array comes back writable
        with its dtype, shape and bytes.  ``ValueError`` naming the
        field on a malformed document."""
        arrays = _member(doc, "mesh", dict)
        return cls(
            mesh=ExtractedMesh(**{
                name: _decode_array(name, _member(arrays, name, dict))
                for name in MESH_ARRAYS}),
            mesher=_member(doc, "mesher", str),
            stats=dict(_member(doc, "stats", dict)),
            metrics=dict(_member(doc, "metrics", dict)),
            timings=dict(_member(doc, "timings", dict)),
        )


#: The result codec's array table: each :class:`ExtractedMesh` field
#: with the little-endian dtype it travels as, its shape after the row
#: count, and the field's own dtype, which :meth:`MeshResult.from_dict`
#: hands back.  :meth:`MeshResult.to_dict` writes a field as base64 of
#: its raw bytes beside the travelling dtype and its full shape; vertex
#: indices travel as int32, half the bytes of the int64 they are held in.
MESH_ARRAYS: Dict[str, Tuple[str, Tuple[int, ...], type]] = {
    "vertices": ("<f8", (3,), np.float64),
    "tets": ("<i4", (4,), np.int64),
    "tet_labels": ("<i4", (), np.int32),
    "boundary_faces": ("<i4", (3,), np.int64),
    "boundary_labels": ("<i4", (2,), np.int32),
}


def _encode_array(name: str, array: np.ndarray) -> Dict[str, Any]:
    dtype, tail, _ = MESH_ARRAYS[name]
    array = np.asarray(array)
    wire = np.ascontiguousarray(array, dtype=dtype).reshape((-1,) + tail)
    if wire.dtype.kind == "i" and array.size:
        info = np.iinfo(wire.dtype)
        if array.min() < info.min or array.max() > info.max:
            raise ValueError(f"mesh field {name!r}: a value does not fit "
                             f"{dtype}")
    return {"dtype": dtype, "shape": list(wire.shape),
            "b64": base64.b64encode(wire.data).decode("ascii")}


def _decode_array(name: str, doc: Dict[str, Any]) -> np.ndarray:
    dtype, tail, held = MESH_ARRAYS[name]
    try:
        if doc["dtype"] != dtype:
            raise ValueError(f"dtype {doc['dtype']!r:.40} is not {dtype!r}")
        shape = doc["shape"]
        if (not isinstance(shape, list) or len(shape) != 1 + len(tail)
                or tuple(shape[1:]) != tail
                or not all(type(n) is int and n >= 0 for n in shape)):
            want = str(["n", *tail]).replace("'", "")
            raise ValueError(f"shape {shape!r:.40} is not {want}")
        raw = base64.b64decode(doc["b64"], validate=True)
        return np.frombuffer(raw, dtype).reshape(shape).astype(held)
    except KeyError as exc:
        raise ValueError(f"mesh field {name!r} lacks {exc}") from None
    except (TypeError, ValueError) as exc:  # binascii.Error included
        raise ValueError(f"mesh field {name!r}: {exc}") from None


def _member(doc: Any, name: str, kind: type) -> Any:
    """``doc[name]``, which must be a ``kind``; ``ValueError`` otherwise."""
    value = doc.get(name) if isinstance(doc, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"result field {name!r} is not a {kind.__name__}: "
                         f"{value!r:.40}")
    return value


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
        res = _mesh_image(request.image, **request.domain_args(),
                          max_operations=request.max_operations, obs=obs)
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
            extras={"obs": obs, "domain": res.domain},
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
            **request.domain_args(),
            cm=request.cm,
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
            extras={"obs": obs, "domain": res.domain},
        )


# ---------------------------------------------------------------------------
# registry + dispatch
# ---------------------------------------------------------------------------

_MESHERS: Dict[str, Mesher] = {
    "sequential": SequentialMesher(),
    "threaded": ThreadedMesher(),
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
    (:func:`repro.delaunay.shard.mesh_sharded`), whose blocks are meshed
    in this process — no worker process is ever started here — with
    no block cache, so the same request always meshes the same bytes.
    Incremental reuse is a service's (its artifact cache) or the
    caller's (``mesh_sharded(request, block_cache=...)``).  When the
    image decomposes into a single occupied block — or ``shards``
    resolves to 1 — the plain mesher runs, bit-identical to an
    unsharded request.
    """
    mesher = get_mesher(request.resolved_mesher())
    request.validate()
    if request.resolved_shards() > 1:
        from repro.delaunay.shard import ShardingUnavailable, mesh_sharded

        try:
            return mesh_sharded(request)
        except ShardingUnavailable:
            pass
    return mesher.mesh(request)


__all__ = [
    "MESHER_NAMES",
    "MESH_ARRAYS",
    "REQUEST_FIELDS",
    "MeshRequest",
    "MeshResult",
    "Mesher",
    "SequentialMesher",
    "ThreadedMesher",
    "get_mesher",
    "mesh",
]
