"""Exporters: Chrome-trace JSON and flat metrics JSON.

``chrome://tracing`` (and Perfetto) load the JSON object format::

    {"traceEvents": [{"name": ..., "ph": "B", "ts": <us>, "pid": 0,
                      "tid": <tid>, ...}, ...]}

Timestamps are converted from the tracer's seconds (wall or virtual) to
the microseconds the format requires, so a simulated 176-thread run and
a real 4-thread run open in the same viewer.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import PH_COMPLETE, Tracer


def chrome_trace(tracer: Tracer, process_name: str = "repro") -> Dict:
    """Render the tracer's buffer as a Chrome-trace JSON object."""
    events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for ev in tracer.events():
        rec: Dict[str, object] = {
            "name": ev.name,
            "ph": ev.ph,
            "ts": ev.ts * 1e6,
            "pid": 0,
            "tid": ev.tid,
        }
        if ev.ph == PH_COMPLETE:
            rec["dur"] = ev.dur * 1e6
        if ev.ph == "i":
            rec["s"] = "t"  # thread-scoped instant
        if ev.args:
            rec["args"] = dict(ev.args)
        events.append(rec)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str,
                       process_name: str = "repro") -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, process_name), fh)


def metrics_json(registry: MetricsRegistry,
                 extra: Optional[Dict] = None) -> Dict:
    """Flat metrics snapshot, optionally merged with run-level extras."""
    doc = registry.snapshot()
    if extra:
        doc["run"] = dict(extra)
    return doc


def write_metrics_json(registry: MetricsRegistry, path: str,
                       extra: Optional[Dict] = None) -> None:
    with open(path, "w") as fh:
        json.dump(metrics_json(registry, extra), fh, indent=2, sort_keys=True)

