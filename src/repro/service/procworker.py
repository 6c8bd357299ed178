"""Worker-process side of the process executor.

:func:`worker_main` is the entry point a spawned worker runs: a loop
over a duplex pipe, one ``("run", body)`` message per job.  For each
job the worker rebuilds the :class:`~repro.api.MeshRequest` (or the
block crop) from the picklable payload, meshes on its own heap, and
answers ``("ok", {"meta", "arrays"})`` over the same pipe: ``meta`` is
the JSON-safe part of the result (mesher, stats, metrics, timings),
``arrays`` the result's ndarrays, pickled — 0.8 ms for a 0.26 MB mesh,
linear in its size like the meshing itself.  Live objects (the domain,
the ``Observability`` bundle) never leave the worker.

Extra meshers come from the ``REPRO_WORKER_PLUGINS`` environment
variable: a comma-separated list of ``module:callable`` specs, each
callable returning ``{name: mesher}``.  Tests use this to install
crashing/sleeping meshers *inside* the worker process.

Failure taxonomy on the wire: ``("transient", str)`` for
:class:`~repro.service.jobs.TransientMeshError` (the parent re-raises
it so the service's bounded-retry path applies), ``("error", tb)`` for
anything else.
"""

from __future__ import annotations

import importlib
import traceback
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: the :class:`~repro.core.extract.ExtractedMesh` arrays a mesh reply
#: carries.
RESULT_FIELDS = (
    "vertices", "tets", "tet_labels", "boundary_faces", "boundary_labels",
)

PLUGIN_ENV = "REPRO_WORKER_PLUGINS"


def load_plugins(specs) -> Dict[str, Any]:
    """Import each ``module:callable`` spec → merged ``{name: mesher}``.

    Bad specs are skipped (a worker must come up even if a plugin is
    broken; the job routed at the missing mesher fails cleanly).
    """
    meshers: Dict[str, Any] = {}
    for spec in specs or ():
        spec = spec.strip()
        if not spec or ":" not in spec:
            continue
        mod_name, _, fn_name = spec.partition(":")
        try:
            registry = getattr(importlib.import_module(mod_name), fn_name)()
            meshers.update(registry)
        except Exception:
            continue
    return meshers


def plugin_specs_from_env(environ=None) -> Tuple[str, ...]:
    import os

    raw = (environ or os.environ).get(PLUGIN_ENV, "")
    return tuple(s for s in (p.strip() for p in raw.split(",")) if s)


def build_payload(request) -> Dict[str, Any]:
    """Parent side: the picklable job body for one request.

    Only remotable requests reach this (no ``size_function``, no
    parent-local overlay mesher), so everything here round-trips
    through pickle by construction.
    """
    image = request.image
    return {
        "labels": np.ascontiguousarray(image.labels),
        "spacing": tuple(image.spacing),
        "origin": tuple(image.origin),
        "params": {
            "mesher": request.resolved_mesher(),
            "delta": request.delta,
            "radius_edge_bound": request.radius_edge_bound,
            "planar_angle_bound_deg": request.planar_angle_bound_deg,
            "n_threads": request.n_threads,
            "cm": request.cm,
            "lb": request.lb,
            "hyperthreading": request.hyperthreading,
            "seed": request.seed,
            "max_operations": request.max_operations,
            "timeout": request.timeout,
        },
    }


def build_shard_payload(request, plan, block,
                        content_key: Optional[str] = None
                        ) -> Dict[str, Any]:
    """Parent side: the picklable body for one decomposition block.

    The label crop happens here (only the block's sub-volume crosses
    the pipe) and every parameter the shard needs arrives resolved —
    ``delta`` in particular, so all shards and the stitch domain agree
    even when the request left it defaulted.  ``content_key`` (the
    block's content address, when a block cache is in play) rides as a
    top-level field — ``params`` must stay exactly ``refine_block``'s
    keyword arguments — and is echoed back in the shard's stats so the
    parent can publish the fresh export under it.
    """
    image = request.image
    lo, hi = block.crop_lo, block.crop_hi
    origin = tuple(
        image.origin[d] + lo[d] * image.spacing[d] for d in range(3)
    )
    return {
        "kind": "shard",
        "labels": np.ascontiguousarray(
            image.labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
        ),
        "spacing": tuple(image.spacing),
        "origin": origin,
        "own_lo": tuple(block.own_lo),
        "own_hi": tuple(block.own_hi),
        "content_key": content_key,
        "params": {
            "delta": plan.delta,
            "radius_edge_bound": request.radius_edge_bound,
            "planar_angle_bound_deg": request.planar_angle_bound_deg,
            "max_operations": request.max_operations,
        },
    }


def _image(body: Dict[str, Any]):
    from repro.imaging.image import SegmentedImage

    return SegmentedImage(
        body["labels"],
        spacing=tuple(body["spacing"]),
        origin=tuple(body["origin"]),
    )


def rebuild_request(body: Dict[str, Any]):
    from repro.api import MeshRequest

    return MeshRequest(image=_image(body), **body["params"])


def _run_shard(body: Dict[str, Any]) -> Dict[str, Any]:
    """One shard job: the crop arrives pre-cut; refine, export points."""
    from repro.delaunay.shard import refine_block

    if body.get("fault") == "exit":  # deterministic crash-test seam
        import os
        os._exit(3)
    arrays, stats = refine_block(
        _image(body), body["own_lo"], body["own_hi"], **body["params"]
    )
    if body.get("content_key"):
        stats["content_key"] = body["content_key"]
    return {"meta": {"kind": "shard", "stats": stats}, "arrays": arrays}


def _run_mesh(body: Dict[str, Any], meshers: Dict[str, Any]
              ) -> Dict[str, Any]:
    from repro.api import get_mesher

    request = rebuild_request(body)
    name = request.resolved_mesher()
    mesher = meshers.get(name)
    if mesher is None:
        mesher = get_mesher(name)
    result = mesher.mesh(request)
    return {
        "meta": {
            "mesher": result.mesher,
            "stats": dict(result.stats),
            "metrics": dict(result.metrics),
            "timings": dict(result.timings),
        },
        "arrays": {f: np.ascontiguousarray(getattr(result.mesh, f))
                   for f in RESULT_FIELDS},
    }


def _run_one(body: Dict[str, Any], meshers: Dict[str, Any]) -> tuple:
    from repro.service.jobs import TransientMeshError

    try:
        if body.get("kind") == "shard":
            return ("ok", _run_shard(body))
        return ("ok", _run_mesh(body, meshers))
    except TransientMeshError as exc:
        return ("transient", str(exc))
    except BaseException:
        return ("error", traceback.format_exc())


def worker_main(conn, init: Dict[str, Any]) -> None:
    """Run jobs from ``conn`` until ``("exit",)`` or pipe EOF."""
    meshers = load_plugins(init.get("plugins"))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if not isinstance(msg, tuple) or not msg or msg[0] == "exit":
            return
        try:
            reply = _run_one(msg[1], meshers)
        except BaseException:  # belt and braces: never die silently
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


__all__ = [
    "PLUGIN_ENV",
    "RESULT_FIELDS",
    "build_payload",
    "build_shard_payload",
    "load_plugins",
    "plugin_specs_from_env",
    "rebuild_request",
    "worker_main",
]
