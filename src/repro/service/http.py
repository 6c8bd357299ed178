"""HTTP gateway for the meshing service: stdlib server + client.

The gateway exposes the service/:func:`~repro.service.connect` layer
over plain HTTP/1.1 so any language with an HTTP client can submit
meshing work.  Stdlib only (:class:`http.server.ThreadingHTTPServer`);
one thread per in-flight request, which the service's own admission
control keeps bounded.

Routes
======

=============================== =====================================
``POST /v1/mesh``                 submit a request; body is JSON with
                                  ``params`` plus the image as
                                  ``image_b64`` (base64 of the
                                  compressed ``.npz`` container),
                                  inline ``image`` labels, or
                                  ``image_key`` against the gateway's
                                  image store; ``wait``/
                                  ``wait_timeout`` long-poll,
                                  ``return_mesh`` inlines the result
                                  (both together answer a cache hit in
                                  this one request — what
                                  :meth:`HttpClient.mesh` sends)
``GET /v1/jobs/<id>``             job status; ``?wait=S`` long-polls,
                                  ``?result=1`` inlines a DONE mesh
                                  (the response carries an ``ETag`` —
                                  the request's content key — and
                                  ``If-None-Match`` answers 304 with
                                  no body when it still matches)
``DELETE /v1/jobs/<id>``          cancel a queued job
``GET /healthz``                  liveness + negotiated protocol
``GET /metricsz``                 metrics snapshot incl. the SLO
                                  section (hit rate, per-tier p50/
                                  p95/p99 — see :mod:`.slo`)
=============================== =====================================

Status mapping: job state → HTTP status (:data:`STATE_STATUS`):
``DONE`` 200, ``QUEUED``/``RUNNING`` 202, ``CANCELLED`` 409,
``REJECTED`` 429 + ``Retry-After`` (503 once the service is shutting
down), ``FAILED`` 500, ``TIMED_OUT`` 504.  Bodies are always JSON and
always carry ``ok``.

Versioning: every response carries ``X-Repro-Protocol``
(:data:`PROTOCOL_VERSION`); a request may send the same header and is
rejected with 400 on a mismatch.  :class:`HttpClient` checks it once,
on connect.

The request schema lives here and nowhere else: the params a body may
set and their JSON types (:data:`REQUEST_PARAMS`), the three ways to
name the image, the version check.  Whatever a client got wrong —
unknown or wrong-typed param, a value :meth:`MeshRequest.validate
<repro.api.MeshRequest.validate>` refuses, a malformed image, a
non-numeric ``deadline`` — raises :class:`ProtocolError` and answers
400 with the field named; 500 is kept for server faults and for a job
that ran and ``FAILED``.

A response that carries a mesh does not serialise it again: the disk
artifact is already the ``"result"`` member byte for byte
(:func:`~repro.service.cache.mesh_json_bytes` produces both), so the
socket handler splices the cached file into the envelope
(:meth:`MeshGateway.handle_wire`) and writes status line, headers and
body to a ``TCP_NODELAY`` socket in one ``send``.

The **image store** makes repeat traffic cheap: every uploaded image
is retained in a byte-bounded LRU under its content key
(:func:`~repro.service.keys.image_content_key`), and later requests
may send only ``image_key``.  The key is a content hash the client
computes locally, so the fast path needs no server round-trip first;
an unknown key answers 404 with ``unknown_image_key`` and the client
falls back to uploading.
"""

from __future__ import annotations

import base64
import http.client as httpclient
import io
import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.api import MeshRequest, MeshResult
from repro.imaging.image import SegmentedImage
from repro.observability.metrics import REQUEST_LATENCY_BUCKETS
from repro.service.cache import mesh_json_bytes
from repro.service.client import Client
from repro.service.jobs import Job, JobState, ServiceError, TERMINAL_STATES
from repro.service.keys import image_content_key
from repro.service.service import MeshingService

#: Version of the request/response schema this build speaks.
PROTOCOL_VERSION = 1

#: Request/response header carrying the protocol version.
PROTOCOL_HEADER = "X-Repro-Protocol"

_NUMBER = (int, float)
_NULL = type(None)

#: The :class:`~repro.api.MeshRequest` knobs a body's ``params`` may
#: set, each with the JSON types it accepts (``null`` where the knob's
#: default is ``None``).
REQUEST_PARAMS = {
    "mesher": str,
    "delta": _NUMBER + (_NULL,),
    "radius_edge_bound": _NUMBER,
    "planar_angle_bound_deg": _NUMBER,
    "n_threads": int,
    "cm": str,
    "lb": str,
    "hyperthreading": bool,
    "seed": int,
    "max_operations": (int, _NULL),
    "timeout": _NUMBER + (_NULL,),
    "shards": (int, str, _NULL),
    "incremental": bool,
}

#: HTTP status answering each job state.
STATE_STATUS = {
    JobState.QUEUED: 202,
    JobState.RUNNING: 202,
    JobState.DONE: 200,
    JobState.FAILED: 500,
    JobState.CANCELLED: 409,
    JobState.TIMED_OUT: 504,
    JobState.REJECTED: 429,
}

#: Wire names of the states a job can never leave.
TERMINAL_NAMES = frozenset(s.value for s in TERMINAL_STATES)

#: Cap on one long-poll block (seconds); clients loop for longer waits.
MAX_WAIT = 60.0

#: Largest accepted request body (a 128 MB npz is a ~500^3 volume).
MAX_BODY_BYTES = 128 * 1024 * 1024

#: Default byte budget of the gateway image store.
IMAGE_STORE_BYTES = 256 * 1024 * 1024


class ProtocolError(ValueError):
    """A request the client got wrong; answered 400, never 500."""


def request_wire_params(request: MeshRequest) -> Dict[str, Any]:
    """The request's non-default :data:`REQUEST_PARAMS` as a body's
    ``params`` object.

    Raises :class:`ServiceError` for requests that cannot cross a
    process boundary (live ``size_function`` callables).
    """
    if request.size_function is not None:
        raise ServiceError(
            "size_function requests cannot cross the wire"
        )
    params: Dict[str, Any] = {}
    defaults = MeshRequest.__dataclass_fields__
    for key in REQUEST_PARAMS:
        value = getattr(request, key)
        if value != defaults[key].default:
            params[key] = value
    return params


def _seconds(fields: Dict[str, Any], name: str) -> Optional[float]:
    """The optional ``name`` field as float seconds (absent → None)."""
    value = fields.get(name)
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"{name!r} must be a number of seconds, got {value!r}"
        ) from None


# -- image transport ---------------------------------------------------
def encode_image_b64(image: SegmentedImage) -> str:
    """Base64 of the compressed ``.npz`` container (same layout as
    :func:`repro.io.save_image_npz`, but in memory)."""
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        labels=image.labels,
        spacing=np.asarray(image.spacing, dtype=np.float64),
        origin=np.asarray(image.origin, dtype=np.float64),
    )
    return base64.b64encode(buf.getvalue()).decode("ascii")


def decode_image_b64(data: str) -> SegmentedImage:
    """Inverse of :func:`encode_image_b64`; :class:`ProtocolError` on
    any malformed payload."""
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
        with np.load(io.BytesIO(raw)) as doc:
            return SegmentedImage(
                doc["labels"],
                spacing=tuple(doc["spacing"]),
                origin=tuple(doc["origin"]),
            )
    except Exception as exc:
        raise ProtocolError(f"bad image_b64 payload: {exc}") from None


class ImageStore:
    """Byte-bounded LRU of uploaded images, keyed by content key.

    Purely an upload-dedup optimisation: eviction is always safe (the
    client retries with the bytes), so the budget can be small.
    """

    def __init__(self, max_bytes: int = IMAGE_STORE_BYTES):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._images: "OrderedDict[str, SegmentedImage]" = OrderedDict()
        self._bytes = 0
        self.stats = {"hits": 0, "misses": 0, "stored": 0, "evicted": 0}

    def get(self, key: str) -> Optional[SegmentedImage]:
        with self._lock:
            image = self._images.get(key)
            if image is None:
                self.stats["misses"] += 1
                return None
            self._images.move_to_end(key)
            self.stats["hits"] += 1
            return image

    def put(self, image: SegmentedImage) -> str:
        key = image_content_key(image)
        size = int(image.labels.nbytes)
        with self._lock:
            if key not in self._images:
                self._images[key] = image
                self._bytes += size
                self.stats["stored"] += 1
            self._images.move_to_end(key)
            while self._bytes > self.max_bytes and len(self._images) > 1:
                victim, dropped = self._images.popitem(last=False)
                self._bytes -= int(dropped.labels.nbytes)
                self.stats["evicted"] += 1
        return key

    def stats_snapshot(self) -> Dict[str, int]:
        with self._lock:
            snap = dict(self.stats)
            snap["entries"] = len(self._images)
            snap["bytes_held"] = self._bytes
            return snap


def etag_matches(header: str, etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` against one entity-tag value.

    ``*`` matches anything; otherwise the header is a comma-separated
    list of (possibly ``W/``-prefixed, possibly quoted) entity-tags,
    compared by opaque value — a weak validator is good enough for a
    cache answer, which is exactly what ``If-None-Match`` asks about.
    """
    header = header.strip()
    if header == "*":
        return True
    for token in header.split(","):
        token = token.strip()
        if token.startswith("W/"):
            token = token[2:].strip()
        if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
            token = token[1:-1]
        if token == etag:
            return True
    return False


# -- gateway (transport-free request handling) -------------------------
#: What a route answers: status, JSON-safe body, extra headers and — when
#: the body is to carry a mesh — the ``DONE`` job whose result the
#: caller attaches as ``"result"``: a dict from :meth:`MeshGateway.handle`,
#: the cached wire bytes from :meth:`MeshGateway.handle_wire`.
Answer = Tuple[int, Dict[str, Any], Dict[str, str], Optional[Job]]


class MeshGateway:
    """Routing/translation between HTTP semantics and a service.

    Deliberately transport-free — ``handle`` maps (method, path,
    query, body) to (status, body, headers) — so tests exercise every
    route and status code without opening a socket.  ``handle_wire``
    is the same call with the body already encoded, for the socket.
    """

    def __init__(self, service: MeshingService,
                 image_store: Optional[ImageStore] = None):
        self.service = service
        self.images = image_store or ImageStore()

    # -- entry points --------------------------------------------------
    def handle(self, method: str, path: str,
               query: Optional[Dict[str, str]] = None,
               body: Optional[Dict[str, Any]] = None,
               version: Optional[str] = None,
               if_none_match: Optional[str] = None,
               ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        return self._answer(self._as_dict, method, path, query, body,
                            version, if_none_match)

    def handle_wire(self, method: str, path: str,
                    query: Optional[Dict[str, str]] = None,
                    body: Optional[Dict[str, Any]] = None,
                    version: Optional[str] = None,
                    if_none_match: Optional[str] = None,
                    ) -> Tuple[int, bytes, Dict[str, str]]:
        """:meth:`handle`, with the body as the UTF-8 JSON to send."""
        return self._answer(self._as_bytes, method, path, query, body,
                            version, if_none_match)

    @staticmethod
    def _as_dict(out: Dict[str, Any],
                 mesh_job: Optional[Job]) -> Dict[str, Any]:
        if mesh_job is not None:
            out["result"] = mesh_job.result.to_dict()
        return out

    def _as_bytes(self, out: Dict[str, Any],
                  mesh_job: Optional[Job]) -> bytes:
        payload = json.dumps(out).encode("utf-8")
        if mesh_job is None:
            return payload
        # ``out`` is never empty here, so the envelope ends in "}".
        if mesh_job.keys is None:  # uncacheable, or coalescing is off
            mesh = mesh_json_bytes(mesh_job.result)
        else:
            mesh = self.service.cache.mesh_wire_bytes(
                mesh_job.keys[1], mesh_job.result)
        return b'%s, "result": %s}' % (payload[:-1], mesh)

    def _answer(self, render, method: str, path: str,
                query: Optional[Dict[str, str]],
                body: Optional[Dict[str, Any]],
                version: Optional[str], if_none_match: Optional[str]):
        reg = self.service.registry
        reg.counter("service.http.requests").inc()
        t0 = time.perf_counter()
        try:
            status, out, headers, mesh_job = self._route(
                method, path, query or {}, body or {}, version,
                if_none_match,
            )
            rendered = render(out, mesh_job)
        except ProtocolError as exc:
            status, headers = 400, {}
            rendered = render({"ok": False, "error": str(exc)}, None)
        except Exception as exc:  # never kill the connection thread
            status, headers = 500, {}
            rendered = render(
                {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                None)
        reg.histogram("service.http.request_seconds",
                      REQUEST_LATENCY_BUCKETS).observe(
            time.perf_counter() - t0
        )
        if status >= 400:
            reg.counter("service.http.errors").inc()
        return status, rendered, headers

    def _route(self, method: str, path: str, query: Dict[str, str],
               body: Dict[str, Any], version: Optional[str],
               if_none_match: Optional[str] = None) -> Answer:
        if version is not None and version != str(PROTOCOL_VERSION):
            return 400, {
                "ok": False, "v": PROTOCOL_VERSION,
                "error": (f"unsupported protocol version {version!r}; "
                          f"server speaks {PROTOCOL_VERSION}"),
            }, {}, None
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metricsz" and method == "GET":
            return 200, self.service.metrics_snapshot(), {}, None
        if path == "/v1/mesh" and method == "POST":
            return self._mesh(body)
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if method == "GET":
                return self._job_get(job_id, query, if_none_match)
            if method == "DELETE":
                return self._job_cancel(job_id)
        return 404, {"ok": False,
                     "error": f"no route {method} {path}"}, {}, None

    # -- routes --------------------------------------------------------
    def _healthz(self) -> Answer:
        closed = self.service._closed
        return (503 if closed else 200), {
            "ok": not closed,
            "v": PROTOCOL_VERSION,
            "executor": self.service.executor,
            "coalesce": self.service._coalesce is not None,
            "image_store": self.images.stats_snapshot(),
        }, {}, None

    def _mesh(self, body: Dict[str, Any]) -> Answer:
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        unknown = set(params) - set(REQUEST_PARAMS)
        if unknown:
            raise ProtocolError(
                f"unknown params: {', '.join(sorted(unknown))}"
            )
        for name, value in params.items():
            if not isinstance(value, REQUEST_PARAMS[name]):
                raise ProtocolError(
                    f"param {name!r} has the wrong type: {value!r}"
                )
        # 0 is a value here, not an absence: a zero deadline has already
        # passed and a zero wait_timeout does not block.
        deadline = _seconds(body, "deadline")
        timeout = _seconds(body, "wait_timeout")
        image = self._image_from(body)
        if image is None:
            return 404, {
                "ok": False,
                "error": f"unknown image key {body.get('image_key')!r}",
                "unknown_image_key": True,
            }, {}, None
        try:
            job = self.service.submit(MeshRequest(image=image, **params),
                                      deadline=deadline)
        except ValueError as exc:  # MeshRequest.validate said no
            raise ProtocolError(f"bad params: {exc}") from None
        if body.get("wait", True) and not job.done:
            job.wait(MAX_WAIT if timeout is None
                     else min(max(timeout, 0.0), MAX_WAIT))
        return self._job_answer(job, bool(body.get("return_mesh")))

    def _image_from(self, body: Dict[str, Any]) -> Optional[SegmentedImage]:
        """Materialise the request's image; None = unknown image_key."""
        if "image_b64" in body:
            image = decode_image_b64(body["image_b64"])
            self.images.put(image)
            return image
        inline = body.get("image")
        if inline is not None:
            if not isinstance(inline, dict) or "labels" not in inline:
                raise ProtocolError("inline image needs a 'labels' array")
            try:
                image = SegmentedImage(
                    inline["labels"],
                    spacing=tuple(inline.get("spacing", (1.0, 1.0, 1.0))),
                    origin=tuple(inline.get("origin", (0.0, 0.0, 0.0))),
                )
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"bad inline 'image': {exc}") from None
            self.images.put(image)
            return image
        key = body.get("image_key")
        if not key or not isinstance(key, str):
            raise ProtocolError(
                "body needs one of image_b64 / image / image_key (a string)"
            )
        return self.images.get(key)

    def _job_get(self, job_id: str, query: Dict[str, str],
                 if_none_match: Optional[str] = None) -> Answer:
        job = self.service.job(job_id)
        if job is None:
            return 404, {"ok": False,
                         "error": f"unknown job {job_id!r}"}, {}, None
        wait = _seconds(query, "wait")
        if wait is not None and not job.done:
            job.wait(min(max(wait, 0.0), MAX_WAIT))
        want_result = query.get("result") in ("1", "true", "yes")
        return self._job_answer(job, want_result,
                                if_none_match=if_none_match)

    def _job_cancel(self, job_id: str) -> Answer:
        job = self.service.job(job_id)
        if job is None:
            return 404, {"ok": False,
                         "error": f"unknown job {job_id!r}"}, {}, None
        cancelled = self.service.cancel(job_id)
        return 200, {"ok": cancelled, "id": job_id,
                     "state": job.state.value}, {}, None

    def _job_answer(self, job: Job, return_mesh: bool,
                    if_none_match: Optional[str] = None) -> Answer:
        out = job.summary()
        out["ok"] = job.state in (JobState.QUEUED, JobState.RUNNING,
                                  JobState.DONE)
        headers: Dict[str, str] = {}
        mesh_job: Optional[Job] = None
        if (return_mesh and job.state is JobState.DONE
                and job.result is not None):
            etag = job.keys[1] if job.keys is not None else None
            if etag is not None:
                # The request key already names the exact (image,
                # params) pair, and a DONE job's result never changes:
                # the key is a perfect validator for the result body.
                headers["ETag"] = f'"{etag}"'
                if if_none_match and etag_matches(if_none_match, etag):
                    self.service.registry.counter(
                        "service.http.not_modified").inc()
                    return 304, {}, headers, None
            mesh_job = job
        status = STATE_STATUS[job.state]
        if job.state is JobState.REJECTED:
            if self.service._closed:
                status = 503  # shutting down: back off for good
            else:
                headers["Retry-After"] = "1"
        return status, out, headers, mesh_job


# -- the server --------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-mesh"
    #: TCP_NODELAY on every accepted connection.  A response is one
    #: write (see :meth:`_send`), so there is nothing for Nagle to
    #: merge — it could only hold a short tail segment back until the
    #: client's delayed ACK (~40 ms) released it.
    disable_nagle_algorithm = True

    def log_message(self, *args) -> None:  # quiet by default
        pass

    def _dispatch(self, method: str) -> None:
        gateway: MeshGateway = self.server.gateway  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        body: Dict[str, Any] = {}
        refusal: Optional[Tuple[int, str]] = None
        if method == "POST":
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                refusal = (400, f"bad Content-Length {declared!r}")
            elif length > MAX_BODY_BYTES:
                refusal = (413, f"body over {MAX_BODY_BYTES} bytes")
            if refusal is not None:
                # Drain nothing: answer and drop the connection.
                self.close_connection = True
            else:
                raw = self.rfile.read(length) if length else b""
                try:
                    body = json.loads(raw.decode("utf-8")) if raw else {}
                    if not isinstance(body, dict):
                        raise ValueError("body must be a JSON object")
                except ValueError as exc:
                    refusal = (400, f"bad JSON body: {exc}")
        if refusal is not None:
            status, error = refusal
            payload = json.dumps({"ok": False, "error": error}).encode()
            headers: Dict[str, str] = {}
        else:
            status, payload, headers = gateway.handle_wire(
                method, parsed.path, query, body,
                version=self.headers.get(PROTOCOL_HEADER),
                if_none_match=self.headers.get("If-None-Match"),
            )
        # A 304 must not carry a body (RFC 7232); everything else is
        # JSON.
        self._send(status, b"" if status == 304 else payload, headers)

    def _send(self, status: int, payload: bytes,
              headers: Dict[str, str]) -> None:
        """Status line, headers and body in a single socket write."""
        self.send_response(status)
        self.send_header(PROTOCOL_HEADER, str(PROTOCOL_VERSION))
        if payload:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        # end_headers() writes the header block to ``wfile``; catch it
        # in memory so head and body reach the socket together.
        sock_writer, self.wfile = self.wfile, io.BytesIO()
        try:
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = sock_writer
        try:
            self.wfile.write(head + payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-write

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class MeshHTTPServer:
    """The HTTP front-end: a :class:`ThreadingHTTPServer` on its own
    thread over a :class:`MeshGateway`.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`address` / :attr:`url`.  The server borrows the service —
    closing the server never shuts the service down.
    """

    def __init__(self, service: MeshingService,
                 host: str = "127.0.0.1", port: int = 0,
                 image_store: Optional[ImageStore] = None):
        self.gateway = MeshGateway(service, image_store=image_store)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.gateway = self.gateway  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MeshHTTPServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-http", daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the CLI's foreground mode)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MeshHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


# -- the client --------------------------------------------------------
class HttpClient(Client):
    """:class:`~repro.service.client.Client` over the HTTP gateway.

    Stdlib ``http.client`` on one keep-alive connection (re-opened
    transparently if the server drops it).  Images travel by content
    key when the gateway already holds them, else as base64 ``.npz`` —
    the client computes the key locally, so the fast path costs no
    extra round-trip when it misses.
    """

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = None,
                 negotiate: bool = True):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._conn = httpclient.HTTPConnection(host, port,
                                               timeout=timeout)
        self._lock = threading.Lock()
        if negotiate:
            status, out, headers = self._request("GET", "/healthz")
            spoken = headers.get(PROTOCOL_HEADER.lower())
            if status != 200 or spoken != str(PROTOCOL_VERSION):
                self.close()
                raise ServiceError(
                    f"protocol version mismatch: client speaks "
                    f"{PROTOCOL_VERSION}, server answered "
                    f"status={status} {PROTOCOL_HEADER}={spoken!r}"
                )

    # -- raw access ----------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        payload = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        request_headers = {
            PROTOCOL_HEADER: str(PROTOCOL_VERSION),
            "Content-Type": "application/json",
        }
        with self._lock:
            for attempt in (0, 1):
                try:
                    self._conn.request(method, path, body=payload,
                                       headers=request_headers)
                    response = self._conn.getresponse()
                    raw = response.read()
                    break
                except (ConnectionError, OSError,
                        httpclient.HTTPException):
                    self._conn.close()
                    if attempt:
                        raise
            headers = {k.lower(): v for k, v in response.getheaders()}
            try:
                out = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError as exc:
                raise ServiceError(
                    f"non-JSON response ({response.status}): {exc}"
                ) from None
            return response.status, out, headers

    # -- Client interface ----------------------------------------------
    def mesh(self, request: MeshRequest,
             deadline: Optional[float] = None,
             timeout: Optional[float] = None) -> MeshResult:
        """One ``POST`` that submits, waits and carries the mesh back:
        a cache hit is a single round trip.  Only a job still running
        when the gateway's long-poll cap (or ``timeout``) cuts the POST
        short falls back to the :meth:`wait` loop and a result fetch.
        """
        end = (time.monotonic() + timeout
               if timeout is not None else None)
        _, out = self._post_mesh(request, deadline, wait=True,
                                 wait_timeout=timeout, return_mesh=True)
        job_id = out.get("id")
        if not job_id:
            raise ServiceError(out.get("error", "submit failed"))
        if out.get("state") not in TERMINAL_NAMES:
            out = self.wait(job_id, timeout=(
                end - time.monotonic() if end is not None else None))
        state = out.get("state")
        if state not in TERMINAL_NAMES:
            raise ServiceError(f"timed out waiting for {job_id}")
        if state != "DONE":
            detail = f": {out['error']}" if out.get("error") else ""
            raise ServiceError(f"{job_id} finished {state}{detail}")
        if "result" not in out:
            status, out, _ = self._request(
                "GET", f"/v1/jobs/{job_id}?result=1"
            )
            if status != 200 or "result" not in out:
                raise ServiceError(
                    f"{job_id} result unavailable (status {status})"
                )
        return MeshResult.from_dict(out["result"])

    def submit(self, request: MeshRequest,
               deadline: Optional[float] = None) -> str:
        _, out = self._post_mesh(request, deadline, wait=False)
        job_id = out.get("id")
        if not job_id:
            raise ServiceError(out.get("error", "submit failed"))
        return job_id

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        end = (time.monotonic() + timeout
               if timeout is not None else None)
        while True:
            budget = MAX_WAIT
            if end is not None:
                budget = min(budget, max(0.0, end - time.monotonic()))
            status, out, _ = self._request(
                "GET", f"/v1/jobs/{job_id}?wait={budget:g}"
            )
            if status == 404:
                raise ServiceError(out.get("error",
                                           f"unknown job {job_id!r}"))
            if out.get("state") in TERMINAL_NAMES:
                return out
            if end is not None and time.monotonic() >= end:
                return out

    def status(self, job_id: str) -> Dict[str, Any]:
        status, out, _ = self._request("GET", f"/v1/jobs/{job_id}")
        if status == 404:
            raise ServiceError(out.get("error",
                                       f"unknown job {job_id!r}"))
        return out

    def cancel(self, job_id: str) -> bool:
        _, out, _ = self._request("DELETE", f"/v1/jobs/{job_id}")
        return bool(out.get("ok"))

    def metrics(self) -> Dict[str, Any]:
        status, out, _ = self._request("GET", "/metricsz")
        if status != 200:
            raise ServiceError(out.get("error", "metrics unavailable"))
        return out

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- plumbing ------------------------------------------------------
    def _post_mesh(self, request: MeshRequest,
                   deadline: Optional[float], wait: bool,
                   wait_timeout: Optional[float] = None,
                   return_mesh: bool = False,
                   ) -> Tuple[int, Dict[str, Any]]:
        params = request_wire_params(request)
        body: Dict[str, Any] = {
            "image_key": image_content_key(request.image),
            "wait": wait,
        }
        if params:
            body["params"] = params
        if deadline is not None:
            body["deadline"] = deadline
        if wait_timeout is not None:
            body["wait_timeout"] = wait_timeout
        if return_mesh:
            body["return_mesh"] = True
        status, out, _ = self._request("POST", "/v1/mesh", body)
        if status == 404 and out.get("unknown_image_key"):
            body["image_b64"] = encode_image_b64(request.image)
            status, out, _ = self._request("POST", "/v1/mesh", body)
        return status, out


__all__ = [
    "HttpClient",
    "ImageStore",
    "MeshGateway",
    "MeshHTTPServer",
    "PROTOCOL_HEADER",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEST_PARAMS",
    "STATE_STATUS",
    "decode_image_b64",
    "encode_image_b64",
    "etag_matches",
    "request_wire_params",
]
