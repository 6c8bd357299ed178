"""End-to-end observability: trace events, metrics, exporters.

The paper's core evidence is overhead accounting — contention,
load-balancing and rollback time per thread over wall-clock time
(Table 1, Figs. 5-6).  This package makes that accounting a first-class
capability of *every* run instead of a per-benchmark re-implementation:

* :mod:`repro.observability.trace` — ring-buffered begin/end/instant
  span events with thread ids and caller-supplied (wall or virtual)
  timestamps, near-zero cost when disabled;
* :mod:`repro.observability.metrics` — a registry of named counters,
  gauges and fixed-bucket histograms that ``runtime.stats`` and the
  simulator feed instead of bypass;
* :mod:`repro.observability.export` — Chrome-trace JSON
  (``chrome://tracing`` / Perfetto loadable) and flat metrics
  JSON renderers used by ``benchmarks/`` and the CLI.

Usage::

    from repro.observability import Observability, ObservabilityConfig

    obs = Observability.from_config(ObservabilityConfig(tracing=True))
    ...  # pass obs into a mesher / refiner
    obs.write_trace("trace.json")
    obs.write_metrics("metrics.json")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.observability.export import (
    chrome_trace,
    metrics_json,
    write_chrome_trace,
    write_metrics_json,
)
from repro.observability.metrics import (
    LATENCY_BUCKETS,
    REQUEST_LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import NULL_TRACER, NullTracer, TraceEvent, Tracer


@dataclass(frozen=True)
class ObservabilityConfig:
    """What a run should record (carried inside a ``MeshRequest``)."""

    tracing: bool = False


class Observability:
    """Bundle of one tracer + one metrics registry for a single run."""

    __slots__ = ("tracer", "registry", "config")

    def __init__(self, tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 config: Optional[ObservabilityConfig] = None):
        self.config = config or ObservabilityConfig()
        if tracer is None:
            tracer = Tracer() if self.config.tracing else NULL_TRACER
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()

    @classmethod
    def from_config(cls, config: Optional[ObservabilityConfig]
                    ) -> "Observability":
        return cls(config=config or ObservabilityConfig())

    # -- convenience ----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return self.registry.snapshot()

    def write_trace(self, path: str, process_name: str = "repro") -> None:
        write_chrome_trace(self.tracer, path, process_name)

    def write_metrics(self, path: str,
                      extra: Optional[Dict] = None) -> None:
        write_metrics_json(self.registry, path, extra)


__all__ = [
    "Observability",
    "ObservabilityConfig",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "REQUEST_LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_json",
    "write_metrics_json",
]
