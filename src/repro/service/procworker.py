"""Worker-process side of the process executor.

:func:`worker_main` is the entry point a spawned worker runs: a loop
over a duplex pipe, one ``("run", body)`` message per job.  The worker
is spawned with the service's table of served meshers (pickled once, at
spawn); a mesh job names its mesher in that table, and a shard job
runs the sequential block refiner.  For each job the worker decodes
the :class:`~repro.api.MeshRequest` — the block's, for a shard job —
from the payload's image arrays and codec params
(:meth:`MeshRequest.from_params <repro.api.MeshRequest.from_params>`),
meshes on its own heap, and answers over the same pipe: a mesh job
with its :class:`~repro.api.MeshResult` minus ``extras`` (both ends are
the same build, and pickle carries the ndarrays as raw bytes), a shard
job with ``{"arrays", "stats"}``.  Live objects (the domain, the
``Observability`` bundle) never leave the worker.

Failure taxonomy on the wire: ``("transient", str)`` for
:class:`~repro.service.jobs.TransientMeshError` (the parent re-raises
it so the service's bounded-retry path applies), ``("error", tb)`` for
anything else.
"""

from __future__ import annotations

import traceback
from dataclasses import replace
from typing import Any, Dict

import numpy as np


def build_payload(request) -> Dict[str, Any]:
    """Parent side: the picklable job body for one request — the image
    arrays beside the request codec's params (:meth:`MeshRequest
    .to_params <repro.api.MeshRequest.to_params>`), whose ``mesher``
    names an entry of the worker's table.
    """
    image = request.image
    return {
        "labels": np.ascontiguousarray(image.labels),
        "spacing": tuple(image.spacing),
        "origin": tuple(image.origin),
        "params": request.to_params(),
    }


def build_shard_payload(request, plan, block) -> Dict[str, Any]:
    """Parent side: the picklable body for one decomposition block —
    :func:`build_payload` of the block's request
    (:func:`repro.delaunay.shard.block_request`: the crop as the image,
    so only the block's sub-volume crosses the pipe, and ``delta``
    resolved by the plan, so all shards and the stitch domain agree even
    when the request left it defaulted) plus its ownership box.
    """
    from repro.delaunay.shard import block_request

    body = build_payload(block_request(request, plan, block))
    body.update(kind="shard", own_lo=tuple(block.own_lo),
                own_hi=tuple(block.own_hi))
    return body


def _request(body: Dict[str, Any]):
    from repro.api import MeshRequest
    from repro.imaging.image import SegmentedImage

    image = SegmentedImage(body["labels"], spacing=tuple(body["spacing"]),
                           origin=tuple(body["origin"]))
    return MeshRequest.from_params(image, body["params"])


def _run_shard(body: Dict[str, Any]) -> Dict[str, Any]:
    """One shard job: the crop arrives pre-cut; refine, export points."""
    from repro.delaunay.shard import refine_block

    if body.get("fault") == "exit":  # deterministic crash-test seam
        import os
        os._exit(3)
    arrays, stats = refine_block(
        _request(body), body["own_lo"], body["own_hi"]
    )
    return {"arrays": arrays, "stats": stats}


def _run_mesh(body: Dict[str, Any], meshers: Dict[str, Any]):
    request = _request(body)
    result = meshers[request.resolved_mesher()].mesh(request)
    return replace(result, extras={})


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


def worker_main(conn, meshers: Dict[str, Any]) -> None:
    """Run jobs from ``conn`` on the served ``meshers`` until
    ``("exit",)`` or pipe EOF."""
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
    "build_payload",
    "build_shard_payload",
    "worker_main",
]
