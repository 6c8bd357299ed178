"""Async meshing service: job queue, worker pools, artifact cache.

This package turns the one-shot meshers of :mod:`repro.api` into a
long-running service (the layer the paper's real-time pitch implies and
follow-on work — I2M inside clinical pipelines — makes explicit):

* :mod:`repro.service.jobs` — job model and the QUEUED → … state
  machine, with CAS transitions that make cancellation race-free;
* :mod:`repro.service.queue` — bounded FIFO admission queue
  (backpressure → ``REJECTED``, never silent drops);
* :mod:`repro.service.pool` — claiming worker threads with deadline,
  bounded retry and crash containment, plus the **process executor**:
  spawned worker processes that take a payload and answer with the
  result over one pipe, with crash detection and deadline kills;
* :mod:`repro.service.procworker` — the worker-process side (payload
  rebuild, the served table it was spawned with, the reply);
* :mod:`repro.service.cache` / :mod:`repro.service.keys` —
  content-addressed artifact store (meshes by
  ``hash(image, canonical params)``, block exports and stitch deltas
  by content) with an in-memory LRU over an atomic-write disk layout;
* :mod:`repro.service.service` — :class:`MeshingService`, the
  orchestrator, feeding ``service.*`` metrics and per-job trace spans;
  ``ServiceConfig(executor="thread"|"process")`` is the one way to pick
  the executor (default ``"thread"``);
* :mod:`repro.service.coalesce` — in-flight request coalescing: K
  identical concurrent submissions share one mesh run, with leader
  promotion on cancel and failure fan-out;
* :mod:`repro.service.slo` — per-cache-tier SLO accounting (hit rate,
  p50/p95/p99 latency for memory-hit / disk-hit / coalesced /
  full-mesh);
* :mod:`repro.service.client` — :func:`connect`, the one client entry
  point (in-process or HTTP), returning a uniform :class:`Client`;
* :mod:`repro.service.http` — the one wire: the HTTP gateway behind
  ``repro serve`` (``POST /v1/mesh``, ``GET /v1/jobs/<id>``,
  ``/healthz``, ``/metricsz``), the versioned request schema, and
  :class:`HttpClient`, what ``connect("http://host:port")`` returns.

Quickstart::

    from repro.api import MeshRequest
    from repro.service import ServiceConfig, connect

    with connect(config=ServiceConfig(n_workers=4,
                                      executor="process",
                                      cache_dir=".mesh-cache")) as client:
        result = client.mesh(MeshRequest(image=image, delta=2.0))
        again = client.mesh(MeshRequest(image=image, delta=2.0))  # cache hit

The same two calls work against a ``repro serve`` process: replace the
``connect(config=...)`` with ``connect("http://127.0.0.1:8080")``.
"""

from repro.service.cache import ArtifactCache
from repro.service.client import (
    Client,
    InProcessClient,
    connect,
)
from repro.service.coalesce import CoalesceRegistry
from repro.service.http import (
    HttpClient,
    ImageStore,
    MeshHTTPServer,
    PROTOCOL_VERSION,
    decode_image_b64,
    encode_image_b64,
)
from repro.service.jobs import (
    TERMINAL_STATES,
    Job,
    JobState,
    ServiceError,
    TransientMeshError,
)
from repro.service.keys import cache_keys, image_content_key, request_key
from repro.service.pool import (
    DeadlineKilled,
    ProcessWorkerPool,
    RemoteMeshError,
    WorkerCrashed,
    WorkerPool,
)
from repro.service.queue import JobQueue
from repro.service.service import EXECUTORS, MeshingService, ServiceConfig
from repro.service.slo import SLOTracker

__all__ = [
    "ArtifactCache",
    "Client",
    "CoalesceRegistry",
    "DeadlineKilled",
    "EXECUTORS",
    "HttpClient",
    "ImageStore",
    "InProcessClient",
    "Job",
    "JobQueue",
    "JobState",
    "MeshHTTPServer",
    "MeshingService",
    "PROTOCOL_VERSION",
    "ProcessWorkerPool",
    "RemoteMeshError",
    "SLOTracker",
    "ServiceConfig",
    "ServiceError",
    "TERMINAL_STATES",
    "TransientMeshError",
    "WorkerCrashed",
    "WorkerPool",
    "cache_keys",
    "connect",
    "decode_image_b64",
    "encode_image_b64",
    "image_content_key",
    "request_key",
]
