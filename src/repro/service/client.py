"""One client API for both transports: ``repro.service.connect()``.

:func:`connect` is the single documented entry point for talking to a
meshing service.  The ``target`` picks the transport; the object that
comes back always implements the same :class:`Client` interface —
``mesh`` / ``submit`` / ``wait`` / ``status`` / ``cancel`` /
``metrics`` / ``close``, usable as a context manager::

    from repro.api import MeshRequest
    from repro.service import ServiceConfig, connect

    # in-process: spins up (and owns) a MeshingService
    with connect(config=ServiceConfig(n_workers=4)) as client:
        result = client.mesh(MeshRequest(image=image, delta=2.0))

    # same calls over the HTTP gateway (`repro serve --http HOST:PORT`)
    with connect("http://127.0.0.1:8080") as client:
        result = client.mesh(MeshRequest(image=image, delta=2.0))

Target forms:

========================= =========================================
``None``                    in-process service (from ``config``, or
                            borrow an already-running ``service``)
``"http://host:port"``      the HTTP gateway
                            (:class:`repro.service.http.HttpClient`)
anything else               ``ValueError``
========================= =========================================

On both transports ``submit`` returns the job **id** (a string) and
``wait``/``status`` return the JSON-safe job summary dict — the
lowest common denominator both can honour.  ``mesh`` always returns a
full :class:`~repro.api.MeshResult`.  The in-process client
additionally exposes ``.service`` (and ``job(id)``) for callers that
want the richer :class:`~repro.service.jobs.Job` objects.

The HTTP client checks the protocol version on connect (the
``X-Repro-Protocol`` header) and refuses to proceed against a server
speaking a different version.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.api import MeshRequest, MeshResult
from repro.service.jobs import Job, ServiceError
from repro.service.service import MeshingService, ServiceConfig


class Client:
    """The transport-agnostic client interface (see module docstring).

    Concrete transports subclass this; user code should obtain
    instances via :func:`connect` and program against these methods
    only.
    """

    def mesh(self, request: MeshRequest,
             deadline: Optional[float] = None,
             timeout: Optional[float] = None) -> MeshResult:
        """Submit and wait; raises :class:`ServiceError` unless DONE."""
        raise NotImplementedError

    def submit(self, request: MeshRequest,
               deadline: Optional[float] = None) -> str:
        """Queue a request; returns the job id immediately."""
        raise NotImplementedError

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job is terminal; returns its summary."""
        raise NotImplementedError

    def status(self, job_id: str) -> Dict[str, Any]:
        """Non-blocking job summary."""
        raise NotImplementedError

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; True iff it will never run."""
        raise NotImplementedError

    def metrics(self) -> Dict[str, Any]:
        """Service metrics snapshot."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessClient(Client):
    """:class:`Client` over a :class:`MeshingService` in this process.

    Owns the service it builds from ``config``; borrows (and leaves
    running) a ``service`` passed in.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 service: Optional[MeshingService] = None):
        self._owns_service = service is None
        self.service = service or MeshingService(config).start()

    def mesh(self, request: MeshRequest,
             deadline: Optional[float] = None,
             timeout: Optional[float] = None) -> MeshResult:
        return self.service.mesh(request, deadline=deadline,
                                 timeout=timeout)

    def submit(self, request: MeshRequest,
               deadline: Optional[float] = None) -> str:
        return self.service.submit(request, deadline=deadline).id

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        job = self._job(job_id)
        job.wait(timeout)
        return job.summary()

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._job(job_id).summary()

    def cancel(self, job_id: str) -> bool:
        return self.service.cancel(job_id)

    def metrics(self) -> Dict[str, Any]:
        return self.service.metrics_snapshot()

    def close(self) -> None:
        if self._owns_service:
            self.service.shutdown()

    # -- in-process extras ---------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        """The live :class:`Job` (in-process escape hatch)."""
        return self.service.job(job_id)

    def result(self, job_id: str) -> Optional[MeshResult]:
        """The finished job's result, if it is DONE: the five plain
        fields, no ``extras`` (``repro.api.mesh`` gives the live
        domain)."""
        job = self.service.job(job_id)
        return job.result if job is not None else None

    def _job(self, job_id: str) -> Job:
        job = self.service.job(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job


def connect(target: Union[None, str, MeshingService] = None, *,
            config: Optional[ServiceConfig] = None,
            service: Optional[MeshingService] = None,
            timeout: Optional[float] = None) -> Client:
    """Open a :class:`Client` on ``target`` (see module docstring).

    ``target=None`` builds an in-process service from ``config`` (or
    borrows ``service``); ``http://host:port`` connects to the HTTP
    gateway; anything else is rejected.
    """
    if isinstance(target, MeshingService):
        return InProcessClient(service=target)
    if target is None:
        return InProcessClient(config=config, service=service)
    scheme, _, rest = str(target).partition("://")
    host, _, port = rest.rstrip("/").rpartition(":")
    if scheme != "http" or not host or not port.isdigit():
        raise ValueError(
            f"target must be None (in-process) or http://host:port, "
            f"got {target!r}"
        )
    from repro.service.http import HttpClient

    return HttpClient(host, int(port), timeout=timeout)


__all__ = [
    "Client",
    "InProcessClient",
    "ServiceError",
    "connect",
]
