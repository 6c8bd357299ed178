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

from repro.api import MeshRequest, MeshResult
from repro.core.extract import ExtractedMesh
from repro.imaging import sphere_phantom
from repro.service import (
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
    etag_matches,
)


@pytest.fixture(scope="module")
def image():
    return sphere_phantom(12)


@pytest.fixture()
def service():
    svc = MeshingService(ServiceConfig(n_workers=2)).start()
    yield svc
    svc.shutdown()


@pytest.fixture()
def gateway(service):
    return MeshGateway(service)


def npz_b64(labels):
    """An ``image_b64`` payload around any label array — what a client
    that never built a :class:`SegmentedImage` can send."""
    import base64
    import io

    buf = io.BytesIO()
    np.savez_compressed(buf, labels=labels, spacing=np.ones(3),
                        origin=np.zeros(3))
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
        assert out["coalesce"] is True

    def test_healthz_reports_shutdown(self, image):
        svc = MeshingService(ServiceConfig(n_workers=1)).start()
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

    def test_mesh_inline_image_200(self, gateway, image):
        status, out, _ = gateway.handle("POST", "/v1/mesh", body={
            "image": {"labels": image.labels.tolist(),
                      "spacing": list(image.spacing)},
            "params": {"mesher": "sequential", "delta": 3.0}})
        assert status == 200 and out["ok"] is True
        assert out["state"] == "DONE" and out["n_tets"] > 0

    @pytest.mark.parametrize("field,body", [
        ("image", {"image": {"labels": [[[0, 1], [1]]]}}),
        ("delta", {"params": {"delta": "x"}}),
        ("delta", {"params": {"delta": -1.0}}),
        ("deadline", {"deadline": "soon"}),
        ("wait_timeout", {"wait_timeout": "x"}),
        ("image_key", {"image_key": [1]}),
        # A label int16 cannot hold is refused, never wrapped into
        # another tissue (70000 -> 4464, uint16 40000 -> -25536).
        ("image", {"image": {"labels": [[[0, 70000]]]}}),
        ("image", {"image": {"labels": [[[0, -1]]]}}),
        ("image_b64", {"image_b64": npz_b64(
            np.full((4, 4, 4), 40000, dtype=np.uint16))}),
        # Names the runtime does not know: refused at the door, not a
        # FAILED job on the simulator and a silent ``rws`` on threads.
        ("cm", {"params": {"mesher": "threaded", "cm": "bogus"}}),
        ("lb", {"params": {"mesher": "simulated", "lb": "bogus"}}),
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
        """``json.loads`` reads the bare NaN a client's ``json.dumps``
        writes; it is refused at the door, not failed in the kernel."""
        raw = (b'{"image": {"labels": [[[0, 1]]], "%s": [NaN, 1, 1]},'
               b' "params": {"mesher": "sequential"}}' % field.encode())
        with MeshHTTPServer(service) as server:
            req = urllib.request.Request(
                server.url + "/v1/mesh", data=raw, method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert error.startswith("bad inline 'image': " + field)
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
                           params={"mesher": "fake", "seed": 1}))
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
                           params={"mesher": "fake", "seed": 2}))
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
                            params={"mesher": "fake", "seed": s})
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


# ---------------------------------------------------------------------------
# ETag / If-None-Match on job results
# ---------------------------------------------------------------------------

class TestResultETag:
    def _done_job(self, gateway, image):
        status, out, _ = gateway.handle(
            "POST", "/v1/mesh", body=mesh_body(image, wait=False))
        job_id = out["id"]
        status, out, _ = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"wait": "30"})
        assert status == 200 and out["state"] == "DONE"
        return job_id

    def test_result_carries_stable_quoted_etag(self, gateway, image):
        job_id = self._done_job(gateway, image)
        status, out, headers = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"result": "1"})
        assert status == 200 and "result" in out
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        # Stable across polls: the validator is the request key.
        _, _, again = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"result": "1"})
        assert again["ETag"] == etag
        # A plain status poll carries no result and no validator.
        _, out, headers = gateway.handle("GET", f"/v1/jobs/{job_id}")
        assert "result" not in out and "ETag" not in headers

    def test_if_none_match_hit_304_no_body(self, gateway, image):
        job_id = self._done_job(gateway, image)
        _, _, headers = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"result": "1"})
        etag = headers["ETag"]
        status, out, headers = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"result": "1"},
            if_none_match=etag)
        assert status == 304
        assert out == {}  # no body on a validator hit
        assert headers["ETag"] == etag
        snap = gateway.service.registry.snapshot()
        assert snap["counters"]["service.http.not_modified"] == 1

    def test_if_none_match_variants(self, gateway, image):
        job_id = self._done_job(gateway, image)
        _, _, headers = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"result": "1"})
        etag = headers["ETag"]
        for header in (etag, f"W/{etag}", f'"other", {etag}', "*"):
            status, out, _ = gateway.handle(
                "GET", f"/v1/jobs/{job_id}", query={"result": "1"},
                if_none_match=header)
            assert status == 304, header
        # Mismatch: full 200 with the result payload.
        status, out, _ = gateway.handle(
            "GET", f"/v1/jobs/{job_id}", query={"result": "1"},
            if_none_match='"nope"')
        assert status == 200 and "result" in out

    def test_etag_matches_parser(self):
        assert etag_matches("*", "abc")
        assert etag_matches('"abc"', "abc")
        assert etag_matches('W/"abc"', "abc")
        assert etag_matches('"x", "y" , "abc"', "abc")
        assert not etag_matches('"x", "y"', "abc")
        assert not etag_matches("", "abc")


@pytest.fixture()
def template_block(image):
    """A 1-worker/1-slot service wedged on a gated fake mesher."""
    from repro.api import mesh as run_mesh
    template = run_mesh(MeshRequest(image=image, delta=3.0,
                                    mesher="sequential"))
    gate = threading.Event()

    class Gated:
        def mesh(self, request):
            gate.wait(10.0)
            return template

    svc = MeshingService(ServiceConfig(
        n_workers=1, queue_capacity=1, coalesce=False)).start()
    svc.register_mesher("fake", Gated())
    yield svc, gate
    gate.set()
    svc.shutdown()


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

    def test_mesh_failure_raises_service_error(self, service, image):
        class Broken:
            def mesh(self, request):
                raise ValueError("kaput")

        service.register_mesher("fake", Broken())
        with MeshHTTPServer(service) as server:
            with connect(server.url) as client:
                with pytest.raises(ServiceError, match="FAILED"):
                    client.mesh(MeshRequest(image=image, mesher="fake"))

    def test_if_none_match_over_the_wire_304_empty_body(
            self, service, image):
        with MeshHTTPServer(service) as server:
            body = json.dumps(mesh_body(image, wait=False)).encode()
            req = urllib.request.Request(
                server.url + "/v1/mesh", data=body, method="POST")
            with urllib.request.urlopen(req, timeout=10) as resp:
                job_id = json.loads(resp.read())["id"]
            url = server.url + f"/v1/jobs/{job_id}?wait=30&result=1"
            with urllib.request.urlopen(url, timeout=60) as resp:
                etag = resp.headers["ETag"]
                assert "result" in json.loads(resp.read())
            req = urllib.request.Request(
                url, headers={"If-None-Match": etag})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            # urllib surfaces 304 as an HTTPError; the body must be
            # empty and the validator echoed back.
            assert err.value.code == 304
            assert err.value.headers["ETag"] == etag
            assert err.value.read() == b""

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

    def test_concurrent_http_duplicates_coalesce(self, service, image):
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

        service.register_mesher("fake", Gated())
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


def big_result(n_vertices=4000):
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
    """Overlay mesher returning one prepared result, maybe late."""

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
            self, service, image, wire_log):
        service.register_mesher("big", Canned(big_result()))
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
            self, service, image, monkeypatch):
        """A POST cut short by the long-poll cap hands over to
        ``wait()`` + ``?result=1``; the mesh still arrives."""
        from repro.api import mesh as run_mesh
        from repro.service import http as http_mod

        template = run_mesh(MeshRequest(image=image, delta=3.0,
                                        mesher="sequential"))
        monkeypatch.setattr(http_mod, "MAX_WAIT", 0.1)
        service.register_mesher("fake", Canned(template, delay=0.5))
        with MeshHTTPServer(service) as server:
            with CountingClient(*server.address) as client:
                result = client.mesh(
                    MeshRequest(image=image, mesher="fake"), timeout=30.0)
                paths = [path for _, path in client.calls]
        assert result.n_tets == template.n_tets
        assert any("?wait=" in p for p in paths)
        assert paths[-1].endswith("?result=1")


# ---------------------------------------------------------------------------
# wire bytes: the disk artifact is the response's "result"
# ---------------------------------------------------------------------------

def assert_body_is_job_result(service, raw):
    out = json.loads(raw)
    job = service.job(out["id"])
    assert out["state"] == "DONE" and out["ok"] is True
    assert out["result"] == job.result.to_dict()
    return job


class TestWireBytes:
    @pytest.fixture()
    def serialisations(self, monkeypatch):
        """Every call of the one mesh-JSON producer, by the cache."""
        from repro.service import cache as cache_mod
        calls = []
        plain = cache_mod.mesh_json_bytes

        def counted(result):
            calls.append(result)
            return plain(result)

        monkeypatch.setattr(cache_mod, "mesh_json_bytes", counted)
        return calls

    def test_every_tier_answers_the_jobs_own_result(
            self, image, tmp_path, serialisations):
        body = mesh_body(image, return_mesh=True, params={"delta": 3.0})
        config = ServiceConfig(n_workers=2, cache_dir=str(tmp_path))
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
        # Serialised once, by the put; each hit sent the file instead.
        assert len(serialisations) == 1

    def test_coalesced_follower_answers_the_leaders_result(
            self, image, tmp_path):
        service = MeshingService(ServiceConfig(
            n_workers=2, cache_dir=str(tmp_path))).start()
        started, gate = threading.Event(), threading.Event()

        class Gated:
            def mesh(self, request):
                started.set()
                gate.wait(10.0)
                from repro.api import mesh as run_mesh
                return run_mesh(MeshRequest(image=request.image,
                                            delta=3.0,
                                            mesher="sequential"))

        service.register_mesher("fake", Gated())
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
            self, image, tmp_path, damage):
        body = mesh_body(image, return_mesh=True, params={"delta": 3.0})
        config = ServiceConfig(n_workers=2, cache_dir=str(tmp_path))
        with MeshingService(config) as service:
            with MeshHTTPServer(service) as server:
                job = assert_body_is_job_result(
                    service, post(server.url, body)[1])
                path = service.cache._path("mesh", job.keys[1], ".json")
                good = path.read_bytes()
                if damage == "truncate":
                    path.write_bytes(good[:len(good) // 2])
                else:  # same length, still JSON, another mesh
                    path.write_bytes(good.replace(b"1", b"2"))
                # The mesh is memory-resident: only the file is bad.
                hit = assert_body_is_job_result(
                    service, post(server.url, body)[1])
                assert hit.tier == "memory_hit"
                assert service.cache.stats["corrupt"] == 1
                assert not path.exists()
                # Later hits serialise; they do not count it again.
                assert_body_is_job_result(
                    service, post(server.url, body)[1])
                assert service.cache.stats["corrupt"] == 1
                # The next put restores the artifact, byte for byte.
                service.cache.put_mesh(job.keys[1], job.result)
                assert path.read_bytes() == good
                assert post(server.url, body)[1].endswith(
                    b', "result": ' + good + b"}")

    def test_memory_only_cache_serves_correctly(self, service, image):
        assert service.cache.root is None
        body = mesh_body(image, return_mesh=True, params={"delta": 3.0})
        with MeshHTTPServer(service) as server:
            for tier in ("full_mesh", "memory_hit"):
                job = assert_body_is_job_result(
                    service, post(server.url, body)[1])
                assert job.tier == tier

    def test_post_etag_revalidates_with_empty_304(self, image, tmp_path):
        config = ServiceConfig(n_workers=2, cache_dir=str(tmp_path))
        with MeshingService(config) as service:
            with MeshHTTPServer(service) as server:
                _, raw, headers = post(server.url, mesh_body(
                    image, return_mesh=True, params={"delta": 3.0}))
                etag = headers["ETag"]
                req = urllib.request.Request(
                    server.url + f"/v1/jobs/{json.loads(raw)['id']}"
                    "?result=1", headers={"If-None-Match": etag})
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(req, timeout=10)
                assert err.value.code == 304
                assert err.value.headers["ETag"] == etag
                assert err.value.headers["Content-Length"] == "0"
                assert err.value.read() == b""


# ---------------------------------------------------------------------------
# the CLI entry point
# ---------------------------------------------------------------------------

class TestCliServeHttp:
    def test_serve_http_subprocess(self, image, tmp_path):
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
             "--http", f"127.0.0.1:{port}", "--workers", "2"],
            env=env, stderr=subprocess.PIPE, text=True,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        try:
            banner = proc.stderr.readline()
            assert f"http://127.0.0.1:{port}" in banner
            with connect(f"http://127.0.0.1:{port}",
                         timeout=60.0) as client:
                result = client.mesh(MeshRequest(
                    image=image, delta=3.0, mesher="sequential"))
                assert result.mesh.n_tets > 0
                assert client.metrics()["slo"]["requests"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=10)
