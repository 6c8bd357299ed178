"""HTTP gateway: routes, status mapping, negotiation, client, CLI.

Gateway-level tests drive :class:`MeshGateway.handle` directly (no
sockets — every route and status code, fast); server-level tests run
a real :class:`ThreadingHTTPServer` + :class:`HttpClient`; the CLI
test boots ``repro serve --http`` as a subprocess and talks to it
from the outside, like a deployment would.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import MeshRequest, MeshResult, SequentialMesher
from repro.core.extract import ExtractedMesh
from repro.imaging import sphere_phantom
from repro.service import (
    EXECUTORS,
    HttpClient,
    JobState,
    MeshHTTPServer,
    MeshingService,
    PROTOCOL_VERSION,
    ServiceConfig,
    ServiceError,
    connect,
)
from repro.service.http import (
    ImageStore,
    MeshGateway,
    PROTOCOL_HEADER,
    ProtocolError,
    _Handler,
    decode_image_b64,
    encode_image_b64,
)
from tests.executors import on_process


@pytest.fixture(scope="module")
def image():
    return sphere_phantom(12)


@pytest.fixture()
def service(executor):
    svc = MeshingService(ServiceConfig(
        n_workers=2, executor=executor)).start()
    yield svc
    svc.shutdown()


@pytest.fixture()
def serving():
    """Start services that serve ``sequential`` beside the given fakes.
    The fakes close over events, which do not pickle into a worker
    process, so each runs the thread executor; all are shut down after
    the test."""
    started = []

    def start(fakes, **cfg):
        cfg.setdefault("n_workers", 2)
        cfg.setdefault("executor", "thread")
        svc = MeshingService(ServiceConfig(**cfg), meshers=dict(
            sequential=SequentialMesher(), **fakes)).start()
        started.append(svc)
        return svc

    yield start
    for svc in started:
        svc.shutdown()


@pytest.fixture()
def gateway(service):
    return MeshGateway(service)


def npz_b64(labels, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    """An ``image_b64`` payload around any label array and geometry —
    what a client that never built a :class:`SegmentedImage` can send."""
    import base64
    import io

    buf = io.BytesIO()
    np.savez_compressed(buf, labels=labels, spacing=np.asarray(spacing),
                        origin=np.asarray(origin))
    return base64.b64encode(buf.getvalue()).decode("ascii")


def mesh_body(image, wait=True, **extra):
    body = {"image_b64": encode_image_b64(image), "wait": wait}
    body.update(extra)
    return body


# ---------------------------------------------------------------------------
# image transport
# ---------------------------------------------------------------------------

class TestImageCodec:
    def test_b64_round_trip(self, image):
        clone = decode_image_b64(encode_image_b64(image))
        np.testing.assert_array_equal(clone.labels, image.labels)
        assert clone.spacing == image.spacing
        assert clone.origin == image.origin

    def test_bad_payload_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_image_b64("not base64 at all!!!")

    def test_store_lru_evicts_by_bytes(self, image):
        one = int(image.labels.nbytes)
        store = ImageStore(max_bytes=2 * one)
        keys = []
        for shift in range(4):
            img = sphere_phantom(12, radius_frac=0.25 + 0.03 * shift)
            keys.append(store.put(img))
        snap = store.stats_snapshot()
        assert snap["bytes_held"] <= 2 * one
        assert snap["evicted"] >= 2
        assert store.get(keys[0]) is None
        assert store.get(keys[-1]) is not None


# ---------------------------------------------------------------------------
# gateway routes and status mapping
# ---------------------------------------------------------------------------

class TestGatewayRoutes:
    def test_healthz(self, gateway):
        status, out, _ = gateway.handle("GET", "/healthz")
        assert status == 200 and out["ok"] is True
        assert out["v"] == PROTOCOL_VERSION

    def test_healthz_reports_shutdown(self, image, executor):
        svc = MeshingService(ServiceConfig(
            n_workers=1, executor=executor)).start()
        gw = MeshGateway(svc)
        svc.shutdown()
        status, out, _ = gw.handle("GET", "/healthz")
        assert status == 503 and out["ok"] is False

    def test_unknown_route_404(self, gateway):
        status, out, _ = gateway.handle("GET", "/nope")
        assert status == 404 and out["ok"] is False

    def test_version_mismatch_400(self, gateway):
        status, out, _ = gateway.handle("GET", "/healthz", version="99")
        assert status == 400
        assert str(PROTOCOL_VERSION) in out["error"]

    def test_matching_version_passes(self, gateway):
        status, _, _ = gateway.handle(
            "GET", "/healthz", version=str(PROTOCOL_VERSION))
        assert status == 200

    def test_mesh_done_200(self, gateway, image):
        status, out, _ = gateway.handle(
            "POST", "/v1/mesh",
            body=mesh_body(image, return_mesh=True))
        assert status == 200
        assert out["state"] == "DONE" and out["ok"] is True
        assert out["result"]["mesh"]["tets"]

    @pytest.mark.parametrize("field,body", [
        # "image" rows: the error names the image_b64 payload.  Ragged
        # labels reach an npz only as an object array, which does not
        # load.
        ("image", {"image_b64": npz_b64(
            np.array([[[0, 1], [1]]], dtype=object))}),
        ("delta", {"params": {"delta": "x"}}),
        ("delta", {"params": {"delta": -1.0}}),
        ("deadline", {"deadline": "soon"}),
        ("wait_timeout", {"wait_timeout": "x"}),
        ("image_key", {"image_key": [1]}),
        # A label int16 cannot hold is refused, never wrapped into
        # another tissue (70000 -> 4464, uint16 40000 -> -25536).
        ("image", {"image_b64": npz_b64(np.array([[[0, 70000]]]))}),
        ("image", {"image_b64": npz_b64(np.array([[[0, -1]]]))}),
        ("image_b64", {"image_b64": npz_b64(
            np.full((4, 4, 4), 40000, dtype=np.uint16))}),
        # Parallel knobs are not on the wire: an unknown param, refused
        # at the door.
        ("cm", {"params": {"mesher": "threaded", "cm": "bogus"}}),
        ("lb", {"params": {"mesher": "simulated", "lb": "bogus"}}),
        # A boolean is not a number, and json reads NaN / Infinity: the
        # codec refuses both, a size spec's numbers included.
        ("delta", {"params": {"delta": True}}),
        ("max_operations", {"params": {"max_operations": False}}),
        ("delta", {"params": {"delta": float("nan")}}),
        ("delta", {"params": {"delta": float("inf")}}),
        ("size_function", {"params": {"size_function": {
            "kind": "constant", "value": float("nan")}}}),
        ("size_function", {"params": {"size_function": {
            "kind": "surface_graded", "near": 1.0, "far": 2.0}}}),
        # Past float's range, or not a kind: still the client's mistake.
        ("delta", {"params": {"delta": 10 ** 400}}),
        ("size_function", {"params": {"size_function": {
            "kind": "constant", "value": 10 ** 400}}}),
        ("size_function", {"params": {"size_function": {"kind": []}}}),
        # Sized and sharded: a block's crop would size by its own EDT.
        ("size_function", {"params": {"shards": 2, "size_function": {
            "kind": "constant", "value": 3.0}}}),
        # A mesher the service does not serve: refused before any job,
        # key or pin exists, not a FAILED job.
        ("mesher", {"params": {"mesher": "bogus"}}),
        ("mesher", {"params": {"mesher": "threaded"}}),
        # Settings no caller sets are not params: refused as unknown.
        ("incremental", {"params": {"incremental": False}}),
        ("timeout", {"params": {"timeout": 30.0}}),
        ("radius_edge_bound", {"params": {"radius_edge_bound": 1.5}}),
        ("planar_angle_bound_deg", {"params": {
            "planar_angle_bound_deg": 25.0}}),
    ])
    def test_malformed_request_is_400_not_500(
            self, service, image, field, body):
        """The client's mistake, named — through the gateway and over
        a real socket; 500 stays for server faults and FAILED jobs."""
        if not field.startswith("image"):  # the rest need a good image
            body = mesh_body(image, **body)
        status, out, _ = MeshGateway(service).handle(
            "POST", "/v1/mesh", body=body)
        assert status == 400 and out["ok"] is False
        assert field in out["error"]
        with MeshHTTPServer(service) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(server.url, body)
        assert err.value.code == 400
        assert json.loads(err.value.read())["ok"] is False
        assert service.job("job-000001") is None  # nothing was queued

    @pytest.mark.parametrize("field", ["spacing", "origin"])
    def test_non_finite_inline_geometry_is_400(self, service, field):
        """An npz carries NaN geometry as easily as JSON does; it is
        refused at the door, not failed in the kernel."""
        geometry = {field: (np.nan, 1.0, 1.0)}
        body = {"image_b64": npz_b64(np.array([[[0, 1]]]), **geometry),
                "params": {"mesher": "sequential"}}
        with MeshHTTPServer(service) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(server.url, body)
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert error.startswith("bad image_b64 payload: " + field)
        assert "nan" in error
        assert service.job("job-000001") is None  # nothing was queued

    def test_mesh_unknown_params_400(self, gateway, image):
        status, out, _ = gateway.handle(
            "POST", "/v1/mesh",
            body=mesh_body(image, params={"bogus_knob": 1}))
        assert status == 400 and "bogus_knob" in out["error"]

    def test_mesh_no_image_400(self, gateway):
        status, out, _ = gateway.handle("POST", "/v1/mesh", body={})
        assert status == 400

    def test_unknown_image_key_404_with_flag(self, gateway):
        status, out, _ = gateway.handle(
            "POST", "/v1/mesh", body={"image_key": "deadbeef"})
        assert status == 404 and out["unknown_image_key"] is True

    def test_image_by_key_after_upload(self, gateway, image):
        gateway.handle("POST", "/v1/mesh", body=mesh_body(image))
        from repro.service.keys import image_content_key
        status, out, _ = gateway.handle(
            "POST", "/v1/mesh",
            body={"image_key": image_content_key(image), "wait": True})
        assert status == 200 and out["state"] == "DONE"
        # Second identical request: a cache tier served it.
        assert out["tier"] in ("memory_hit", "disk_hit", "coalesced")

    def test_job_lifecycle_and_codes(self, gateway, image):
        status, out, _ = gateway.handle(
            "POST", "/v1/mesh", body=mesh_body(image, wait=False))
        assert status == 202  # QUEUED/RUNNING straight after submit
        job_id = out["id"]
        status, out, _ = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"wait": "30"})
        assert status == 200 and out["state"] == "DONE"
        status, out, _ = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"result": "1"})
        assert "result" in out
        # cancel after DONE: refused, job state intact
        status, out, _ = gateway.handle("DELETE", f"/v1/jobs/{job_id}")
        assert status == 200 and out["ok"] is False

    def test_unknown_job_404(self, gateway):
        status, out, _ = gateway.handle("GET", "/v1/jobs/nope")
        assert status == 404
        status, out, _ = gateway.handle("DELETE", "/v1/jobs/nope")
        assert status == 404

    def test_cancelled_job_reports_409(self, image, template_block):
        service, gate = template_block
        gw = MeshGateway(service)
        # Wedge the single worker so the victim stays QUEUED.
        status, out, _ = gw.handle(
            "POST", "/v1/mesh",
            body=mesh_body(image, wait=False,
                           params={"mesher": "fake", "delta": 3.001}))
        wedge = service.job(out["id"])
        # The victim must land in the 1-slot queue, not be rejected
        # from it — wait until the worker has claimed the wedge.
        end = time.monotonic() + 5.0
        while (wedge.state is not JobState.RUNNING
               and time.monotonic() < end):
            time.sleep(0.005)
        assert wedge.state is JobState.RUNNING
        status, out, _ = gw.handle(
            "POST", "/v1/mesh",
            body=mesh_body(image, wait=False,
                           params={"mesher": "fake", "delta": 3.002}))
        victim = out["id"]
        status, out, _ = gw.handle("DELETE", f"/v1/jobs/{victim}")
        assert status == 200 and out["ok"] is True
        status, out, _ = gw.handle("GET", f"/v1/jobs/{victim}")
        assert status == 409 and out["state"] == "CANCELLED"
        gate.set()

    def test_rejected_429_with_retry_after(self, image, template_block):
        service, gate = template_block
        gw = MeshGateway(service)
        bodies = [mesh_body(image, wait=False,
                            params={"mesher": "fake",
                                    "delta": 3.0 + 0.001 * s})
                  for s in range(1, 5)]
        results = [gw.handle("POST", "/v1/mesh", body=b) for b in bodies]
        gate.set()
        statuses = [r[0] for r in results]
        assert 429 in statuses
        rejected = next(r for r in results if r[0] == 429)
        assert rejected[1]["state"] == "REJECTED"
        assert rejected[2].get("Retry-After") == "1"

    def test_zero_wait_timeout_does_not_block(self, image, template_block):
        service, gate = template_block
        gw = MeshGateway(service)
        t0 = time.monotonic()
        status, out, _ = gw.handle(
            "POST", "/v1/mesh",
            body=mesh_body(image, wait_timeout=0,
                           params={"mesher": "fake"}))
        # 0 used to read as "unset" and wait out the gated mesher.
        assert time.monotonic() - t0 < 5.0
        assert status == 202 and out["state"] in ("QUEUED", "RUNNING")

    def test_zero_deadline_has_already_passed(self, gateway, image):
        status, out, _ = gateway.handle(
            "POST", "/v1/mesh", body=mesh_body(image, deadline=0))
        # 0 used to read as "no deadline" and answer 200 DONE.
        assert status == 504 and out["state"] == "TIMED_OUT"

    def test_metricsz_has_slo_section(self, gateway, image):
        gateway.handle("POST", "/v1/mesh", body=mesh_body(image))
        gateway.handle("POST", "/v1/mesh", body=mesh_body(image))
        status, out, _ = gateway.handle("GET", "/metricsz")
        assert status == 200
        slo = out["slo"]
        assert set(slo["tiers"]) == {"memory_hit", "disk_hit",
                                     "coalesced", "block_hit",
                                     "full_mesh"}
        assert slo["requests"] == 2
        assert 0.0 < slo["hit_rate"] <= 1.0
        tier = slo["tiers"]["full_mesh"]
        for k in ("p50_seconds", "p95_seconds", "p99_seconds",
                  "mean_seconds", "share"):
            assert k in tier
        # Raw histograms carry derived percentiles too.
        hist = out["histograms"]["service.slo.full_mesh.latency_seconds"]
        assert {"p50", "p95", "p99", "mean"} <= set(hist)
        assert json.dumps(out)  # whole document is JSON-safe


@pytest.fixture()
def template_block(image, serving):
    """A 1-worker/1-slot service wedged on a gated fake mesher."""
    from repro.api import mesh as run_mesh
    template = run_mesh(MeshRequest(image=image, delta=3.0,
                                    mesher="sequential"))
    gate = threading.Event()

    class Gated:
        def mesh(self, request):
            gate.wait(10.0)
            return template

    svc = serving({"fake": Gated()}, n_workers=1, queue_capacity=1)
    yield svc, gate
    gate.set()


# ---------------------------------------------------------------------------
# real server + HttpClient
# ---------------------------------------------------------------------------

class TestHttpServerAndClient:
    def test_connect_returns_http_client(self, service, image):
        with MeshHTTPServer(service) as server:
            with connect(server.url) as client:
                assert isinstance(client, HttpClient)
                result = client.mesh(MeshRequest(
                    image=image, delta=3.0, mesher="sequential"))
                assert result.mesh.n_tets > 0

    def test_image_travels_by_key_on_repeat(self, service, image):
        with MeshHTTPServer(service) as server:
            with connect(server.url) as client:
                client.mesh(MeshRequest(image=image, delta=3.0,
                                        mesher="sequential"))
                client.mesh(MeshRequest(image=image, delta=4.0,
                                        mesher="sequential"))
                store = server.gateway.images.stats_snapshot()
                # First request uploaded (after one known-miss probe);
                # the second found the image already resident.
                assert store["stored"] == 1
                assert store["hits"] >= 1

    def test_submit_wait_status_cancel(self, service, image):
        with MeshHTTPServer(service) as server:
            with connect(server.url) as client:
                job_id = client.submit(MeshRequest(
                    image=image, delta=3.0, mesher="sequential"))
                summary = client.wait(job_id, timeout=60.0)
                assert summary["state"] == "DONE"
                assert client.status(job_id)["state"] == "DONE"
                assert client.cancel(job_id) is False  # already DONE
                with pytest.raises(ServiceError):
                    client.status("job-does-not-exist")
                metrics = client.metrics()
                assert "slo" in metrics

    def test_mesh_failure_raises_service_error(self, serving, image):
        class Broken:
            def mesh(self, request):
                raise ValueError("kaput")

        service = serving({"fake": Broken()})
        with MeshHTTPServer(service) as server:
            with connect(server.url) as client:
                with pytest.raises(ServiceError, match="FAILED"):
                    client.mesh(MeshRequest(image=image, mesher="fake"))

    def test_protocol_header_on_every_response(self, service):
        with MeshHTTPServer(service) as server:
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=10) as resp:
                assert resp.headers[PROTOCOL_HEADER] == str(
                    PROTOCOL_VERSION)

    def test_wrong_version_header_rejected(self, service):
        with MeshHTTPServer(service) as server:
            req = urllib.request.Request(
                server.url + "/healthz",
                headers={PROTOCOL_HEADER: "99"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400

    def test_bad_json_body_400(self, service):
        with MeshHTTPServer(service) as server:
            req = urllib.request.Request(
                server.url + "/v1/mesh", data=b"{not json",
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_bad_content_length_refused_not_raised(
            self, service, length, capfd):
        with MeshHTTPServer(service) as server:
            with socket.create_connection(server.address, 10) as sock:
                sock.sendall(b"POST /v1/mesh HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: " + length.encode()
                             + b"\r\n\r\n")
                reply = sock.makefile("rb").read()  # server closes
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b'"ok": false' in reply
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=10) as resp:
                assert resp.status == 200
        assert "Traceback" not in capfd.readouterr().err

    def test_bad_body_leaves_the_connection_usable(self, service, image):
        with MeshHTTPServer(service) as server:
            with HttpClient(*server.address) as client:
                sock = client._conn.sock
                client._conn.request("POST", "/v1/mesh", body=b"{not json")
                reply = client._conn.getresponse()
                assert reply.status == 400
                assert json.loads(reply.read())["ok"] is False
                result = client.mesh(MeshRequest(
                    image=image, delta=3.0, mesher="sequential"))
                assert result.mesh.n_tets > 0
                assert client._conn.sock is sock  # never re-opened

    def test_second_client_is_a_cache_hit_with_the_same_mesh(
            self, service, image):
        request = MeshRequest(image=image, delta=3.0, mesher="sequential")
        with MeshHTTPServer(service) as server:
            with connect(server.url) as one, connect(server.url) as two:
                cold = one.mesh(request)
                summary = two.wait(two.submit(request), timeout=60.0)
                assert summary["cache_hit"] is True
                assert summary["n_tets"] == cold.n_tets
                warm = two.mesh(request)
                counters = two.metrics()["counters"]
        np.testing.assert_array_equal(warm.mesh.tets, cold.mesh.tets)
        np.testing.assert_array_equal(warm.mesh.vertices,
                                      cold.mesh.vertices)
        assert counters["service.cache.hit"] == 2
        assert counters["service.cache.miss"] == 1

    def test_concurrent_http_duplicates_coalesce(self, serving, image):
        """The burst crosses the real transport: identical concurrent
        POSTs still share one run."""
        gate = threading.Event()
        calls = []

        class Gated:
            def mesh(self, request):
                calls.append(1)
                gate.wait(10.0)
                from repro.api import mesh as run_mesh
                return run_mesh(MeshRequest(image=request.image,
                                            delta=3.0,
                                            mesher="sequential"))

        service = serving({"fake": Gated()})
        with MeshHTTPServer(service) as server:
            clients = [HttpClient(*server.address) for _ in range(4)]
            try:
                ids = [c.submit(MeshRequest(image=image, mesher="fake"))
                       for c in clients]
                time.sleep(0.1)
                gate.set()
                states = [c.wait(i, timeout=60.0)["state"]
                          for c, i in zip(clients, ids)]
                assert states == ["DONE"] * 4
                assert len(calls) == 1
                counters = service.metrics_snapshot()["counters"]
                assert counters["service.coalesce.followers"] == 3
            finally:
                gate.set()
                for c in clients:
                    c.close()


# ---------------------------------------------------------------------------
# transport: one write per response, one request per hit
# ---------------------------------------------------------------------------

def post(url, body, timeout=60.0):
    """Raw ``POST /v1/mesh``: (status, body bytes, headers)."""
    req = urllib.request.Request(
        url + "/v1/mesh", data=json.dumps(body).encode(), method="POST")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, resp.read(), resp.headers


def big_result(n_vertices=5000):
    """A MeshResult whose JSON is over 200 KB (content is arbitrary)."""
    rng = np.random.default_rng(0)
    n_tets = n_vertices // 2
    mesh = ExtractedMesh(
        vertices=rng.random((n_vertices, 3)),
        tets=rng.integers(0, n_vertices, (n_tets, 4)),
        tet_labels=np.ones(n_tets, dtype=np.int32),
        boundary_faces=rng.integers(0, n_vertices, (100, 3)),
        boundary_labels=np.ones((100, 2), dtype=np.int32),
    )
    return MeshResult(mesh=mesh, mesher="big",
                      timings={"wall_seconds": 0.0})


class Canned:
    """Fake mesher returning one prepared result, maybe late."""

    def __init__(self, result, delay=0.0):
        self.result = result
        self.delay = delay

    def mesh(self, request):
        time.sleep(self.delay)
        return self.result


@pytest.fixture()
def wire_log(monkeypatch):
    """What each accepted connection looks like from the server side:
    its ``TCP_NODELAY`` flag and the size of every socket write."""
    log = {"nodelay": [], "writes": []}

    class CountingWriter:
        def __init__(self, inner):
            self.inner = inner

        def write(self, data):
            log["writes"].append(len(data))
            return self.inner.write(data)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    plain_setup = _Handler.setup

    def setup(handler):
        plain_setup(handler)
        log["nodelay"].append(handler.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY))
        handler.wfile = CountingWriter(handler.wfile)

    monkeypatch.setattr(_Handler, "setup", setup)
    return log


class CountingClient(HttpClient):
    def __init__(self, *args, **kwargs):
        self.calls = []
        super().__init__(*args, **kwargs)

    def _request(self, method, path, body=None):
        self.calls.append((method, path))
        return super()._request(method, path, body)


class TestTransport:
    def test_nodelay_and_a_single_write_per_response(
            self, serving, image, wire_log):
        service = serving({"big": Canned(big_result())})
        with MeshHTTPServer(service) as server:
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=10) as resp:
                small = resp.read()
            _, big, _ = post(server.url, mesh_body(
                image, return_mesh=True, params={"mesher": "big"}))
        assert len(small) < 1000 and len(big) > 200_000
        # urllib opens one connection per request.
        assert len(wire_log["nodelay"]) == 2 and all(wire_log["nodelay"])
        # Head and body together, whatever the size.
        assert len(wire_log["writes"]) == 2
        assert wire_log["writes"][0] > len(small)
        assert wire_log["writes"][1] > len(big)

    def test_memory_hit_is_one_request(self, service, image):
        request = MeshRequest(image=image, delta=3.0, mesher="sequential")
        with MeshHTTPServer(service) as server:
            with CountingClient(*server.address) as client:
                cold = client.mesh(request)
                del client.calls[:]
                warm = client.mesh(request)
                assert client.calls == [("POST", "/v1/mesh")]
        np.testing.assert_array_equal(warm.mesh.tets, cold.mesh.tets)

    def test_zero_timeout_times_out_promptly(self, image, template_block):
        service, gate = template_block
        with MeshHTTPServer(service) as server:
            with connect(server.url) as client:
                t0 = time.monotonic()
                with pytest.raises(ServiceError,
                                   match="timed out waiting"):
                    client.mesh(MeshRequest(image=image, mesher="fake"),
                                timeout=0)
                assert time.monotonic() - t0 < 5.0

    def test_slow_job_falls_back_to_the_wait_loop(
            self, serving, image, monkeypatch):
        """A POST cut short by the long-poll cap hands over to
        ``wait()`` + ``?result=1``; the mesh still arrives."""
        from repro.api import mesh as run_mesh
        from repro.service import http as http_mod

        template = run_mesh(MeshRequest(image=image, delta=3.0,
                                        mesher="sequential"))
        monkeypatch.setattr(http_mod, "MAX_WAIT", 0.1)
        service = serving({"fake": Canned(template, delay=0.5)})
        with MeshHTTPServer(service) as server:
            with CountingClient(*server.address) as client:
                result = client.mesh(
                    MeshRequest(image=image, mesher="fake"), timeout=30.0)
                paths = [path for _, path in client.calls]
        assert result.n_tets == template.n_tets
        assert any("?wait=" in p for p in paths)
        assert paths[-1].endswith("?result=1")


# ---------------------------------------------------------------------------
# result bodies: every tier answers the job's own result
# ---------------------------------------------------------------------------

def assert_body_is_job_result(service, raw):
    out = json.loads(raw)
    job = service.job(out["id"])
    assert out["state"] == "DONE" and out["ok"] is True
    assert out["result"] == job.result.to_dict()
    return job


class TestWireBytes:
    def test_every_tier_answers_the_jobs_own_result(self, image, tmp_path,
                                                    executor):
        body = mesh_body(image, return_mesh=True, params={"delta": 3.0})
        config = ServiceConfig(n_workers=2, cache_dir=str(tmp_path),
                               executor=executor)
        with MeshingService(config) as service:
            with MeshHTTPServer(service) as server:
                fresh = assert_body_is_job_result(
                    service, post(server.url, body)[1])
                memory = assert_body_is_job_result(
                    service, post(server.url, body)[1])
        assert (fresh.tier, memory.tier) == ("full_mesh", "memory_hit")
        with MeshingService(config) as service:  # cold memory, warm disk
            with MeshHTTPServer(service) as server:
                disk = assert_body_is_job_result(
                    service, post(server.url, body)[1])
                again = assert_body_is_job_result(
                    service, post(server.url, body)[1])
        assert (disk.tier, again.tier) == ("disk_hit", "memory_hit")
        assert disk.result.to_dict() == fresh.result.to_dict()

    def test_coalesced_follower_answers_the_leaders_result(
            self, image, tmp_path, serving):
        started, gate = threading.Event(), threading.Event()

        class Gated:
            def mesh(self, request):
                started.set()
                gate.wait(10.0)
                from repro.api import mesh as run_mesh
                return run_mesh(MeshRequest(image=request.image,
                                            delta=3.0,
                                            mesher="sequential"))

        service = serving({"fake": Gated()}, cache_dir=str(tmp_path))
        body = mesh_body(image, return_mesh=True,
                         params={"mesher": "fake"})
        bodies = []
        try:
            with MeshHTTPServer(service) as server:
                threads = [threading.Thread(
                    target=lambda: bodies.append(post(server.url, body)[1]))
                    for _ in range(2)]
                threads[0].start()
                assert started.wait(10.0)
                threads[1].start()
                end = time.monotonic() + 10.0
                while (time.monotonic() < end and service.registry.counter(
                        "service.coalesce.followers").value < 1):
                    time.sleep(0.005)
                gate.set()
                for t in threads:
                    t.join(30.0)
                assert len(bodies) == 2
                jobs = [assert_body_is_job_result(service, raw)
                        for raw in bodies]
            assert sorted(j.tier for j in jobs) == ["coalesced",
                                                    "full_mesh"]
            assert jobs[0].result is jobs[1].result
        finally:
            gate.set()
            service.shutdown()

    @pytest.mark.parametrize("damage", ["truncate", "overwrite"])
    def test_damaged_artifact_is_caught_not_served(
            self, image, tmp_path, damage, executor):
        """A mesh file that no longer decodes is counted corrupt,
        unlinked and meshed again; the re-mesh's put restores it."""
        body = mesh_body(image, return_mesh=True, params={"delta": 3.0})
        config = ServiceConfig(n_workers=2, cache_dir=str(tmp_path),
                               executor=executor)
        with MeshingService(config) as service:
            with MeshHTTPServer(service) as server:
                job = assert_body_is_job_result(
                    service, post(server.url, body)[1])
        path = service.cache._path("mesh", job.keys[1], ".json")
        good = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(good[:len(good) // 2])
        else:  # same length, still JSON, not a mesh document
            path.write_bytes(good.replace(b'"<f8"', b'"<f4"'))
        with MeshingService(config) as service:  # cold memory, bad disk
            with MeshHTTPServer(service) as server:
                again = assert_body_is_job_result(
                    service, post(server.url, body)[1])
                assert again.tier == "full_mesh"
                assert service.cache.stats["corrupt"] == 1
        restored = MeshResult.from_dict(json.loads(path.read_bytes()))
        assert restored.to_dict()["mesh"] == job.result.to_dict()["mesh"]

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:len(raw) // 2],
        lambda raw: raw.replace(b'"b64": "', b'"b64": "*', 1),
    ], ids=["truncated", "garbled"])
    def test_malformed_result_body_is_a_service_error(
            self, service, image, monkeypatch, damage):
        """A result body cut short, or one whose arrays do not decode,
        surfaces from ``HttpClient.mesh`` as :class:`ServiceError`."""
        plain = _Handler._send

        def send(handler, status, payload, headers):
            if b'"result"' in payload:
                payload = damage(payload)
            plain(handler, status, payload, headers)

        monkeypatch.setattr(_Handler, "_send", send)
        with MeshHTTPServer(service) as server:
            with HttpClient(*server.address) as client:
                with pytest.raises(ServiceError):
                    client.mesh(MeshRequest(image=image, delta=3.0))

    def test_unencodable_result_answers_500(self, serving, image):
        """A served result JSON cannot hold is a server fault: a 500
        with a JSON body, and the server answers the next request."""
        odd = MeshResult(mesh=big_result(8).mesh, mesher="fake",
                         stats={"odd": object()})
        service = serving({"fake": Canned(odd)})
        with MeshHTTPServer(service) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(server.url, mesh_body(image, return_mesh=True,
                                           params={"mesher": "fake"}))
            assert err.value.code == 500
            assert json.loads(err.value.read())["ok"] is False
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=10) as resp:
                assert resp.status == 200

    def test_memory_only_cache_serves_correctly(self, service, image):
        assert service.cache.root is None
        body = mesh_body(image, return_mesh=True, params={"delta": 3.0})
        with MeshHTTPServer(service) as server:
            for tier in ("full_mesh", "memory_hit"):
                job = assert_body_is_job_result(
                    service, post(server.url, body)[1])
                assert job.tier == tier


# ---------------------------------------------------------------------------
# the CLI entry point
# ---------------------------------------------------------------------------

class TestCliServeHttp:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_serve_http_subprocess(self, image, tmp_path, executor):
        import os
        import socket
        import subprocess
        import sys

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--http", f"127.0.0.1:{port}", "--workers", "2",
             "--executor", executor],
            env=env, stderr=subprocess.PIPE, text=True,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        try:
            banner = proc.stderr.readline()
            assert f"http://127.0.0.1:{port}" in banner
            assert f"{executor} workers" in banner
            with connect(f"http://127.0.0.1:{port}",
                         timeout=60.0) as client:
                result = client.mesh(MeshRequest(
                    image=image, delta=3.0, mesher="sequential"))
                assert result.mesh.n_tets > 0
                assert client.metrics()["slo"]["requests"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=10)

TestOnProcessExecutor = on_process(
    TestGatewayRoutes.test_healthz,
    TestGatewayRoutes.test_healthz_reports_shutdown,
    TestGatewayRoutes.test_unknown_route_404,
    TestGatewayRoutes.test_version_mismatch_400,
    TestGatewayRoutes.test_matching_version_passes,
    TestGatewayRoutes.test_mesh_done_200,
    TestGatewayRoutes.test_malformed_request_is_400_not_500,
    TestGatewayRoutes.test_non_finite_inline_geometry_is_400,
    TestGatewayRoutes.test_mesh_unknown_params_400,
    TestGatewayRoutes.test_mesh_no_image_400,
    TestGatewayRoutes.test_unknown_image_key_404_with_flag,
    TestGatewayRoutes.test_image_by_key_after_upload,
    TestGatewayRoutes.test_job_lifecycle_and_codes,
    TestGatewayRoutes.test_unknown_job_404,
    TestGatewayRoutes.test_zero_deadline_has_already_passed,
    TestGatewayRoutes.test_metricsz_has_slo_section,
    TestHttpServerAndClient.test_connect_returns_http_client,
    TestHttpServerAndClient.test_image_travels_by_key_on_repeat,
    TestHttpServerAndClient.test_submit_wait_status_cancel,
    TestHttpServerAndClient.test_protocol_header_on_every_response,
    TestHttpServerAndClient.test_wrong_version_header_rejected,
    TestHttpServerAndClient.test_bad_json_body_400,
    TestHttpServerAndClient.test_bad_content_length_refused_not_raised,
    TestHttpServerAndClient.test_bad_body_leaves_the_connection_usable,
    TestHttpServerAndClient.test_second_client_is_a_cache_hit_with_the_same_mesh,
    TestTransport.test_memory_hit_is_one_request,
    TestWireBytes.test_every_tier_answers_the_jobs_own_result,
    TestWireBytes.test_damaged_artifact_is_caught_not_served,
    TestWireBytes.test_malformed_result_body_is_a_service_error,
    TestWireBytes.test_memory_only_cache_serves_correctly,
)
