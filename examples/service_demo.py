"""Meshing-service walkthrough: cache hits, async jobs, metrics.

Runs entirely in-process (no sockets, no subprocesses):

1. open a client with :func:`repro.service.connect` over a service
   with a disk-backed artifact cache;
2. mesh a phantom cold, then warm — the second call is served from the
   content-addressed cache, topology-identical and ~100x faster;
3. mesh the *same image* with different parameters — a different
   request key, so the mesh cache misses and the image is meshed again;
4. drive the async submit/wait/cancel path;
5. print the ``service.*`` metrics that observed all of it.

The out-of-process equivalent is the same client over HTTP:
``repro serve --http HOST:PORT`` in one process,
``connect("http://host:port")`` in the other.

Usage::

    PYTHONPATH=src python examples/service_demo.py
"""

import tempfile
import time

from repro.api import MeshRequest
from repro.imaging import sphere_phantom
from repro.service import ServiceConfig, connect


def main() -> None:
    image = sphere_phantom(16)
    cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
    config = ServiceConfig(n_workers=2, cache_dir=cache_dir)

    with connect(config=config) as client:
        # -- 1+2: cold vs warm ----------------------------------------
        t0 = time.perf_counter()
        cold = client.mesh(MeshRequest(image=image, delta=2.5))
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = client.mesh(MeshRequest(image=image, delta=2.5))
        warm_s = time.perf_counter() - t0

        print(f"cold: {cold.n_tets} tets in {cold_s * 1e3:8.1f} ms")
        print(f"warm: {warm.n_tets} tets in {warm_s * 1e3:8.1f} ms "
              f"(cache, {cold_s / max(warm_s, 1e-9):.0f}x faster)")

        # -- 3: same image, new params --------------------------------
        finer = client.mesh(MeshRequest(image=image, delta=2.0))
        print(f"finer delta: {finer.n_tets} tets (mesh cache miss)")

        # -- 4: async jobs --------------------------------------------
        job_ids = [client.submit(MeshRequest(image=image,
                                             delta=2.0 + 0.5 * i))
                   for i in range(4)]
        doomed = client.submit(MeshRequest(image=image, delta=9.9))
        client.cancel(doomed)
        states = {job_id: client.wait(job_id, timeout=120.0)["state"]
                  for job_id in job_ids}
        states[doomed] = client.status(doomed)["state"]
        print("async:", states)
        assert all(states[job_id] == "DONE" for job_id in job_ids)

        # -- 5: the metrics that watched it all -----------------------
        snap = client.metrics()
        picks = ("service.jobs.submitted", "service.jobs.completed",
                 "service.jobs.cancelled", "service.cache.hit",
                 "service.cache.miss")
        print("counters:", {k: snap["counters"].get(k, 0) for k in picks})


if __name__ == "__main__":
    main()
