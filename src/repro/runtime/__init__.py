"""Shared-memory speculative execution runtime (paper Sections 4-5).

The pieces here — per-vertex try-locks, contention managers, begging-list
load balancers, and overhead accounting — are written once against the
:class:`~repro.runtime.context.ExecutionContext` interface and reused by
both execution backends:

* :mod:`repro.parallel` drives them with real ``threading`` threads;
* :mod:`repro.simnuma` drives them under a deterministic discrete-event
  cc-NUMA simulator (the Blacklight stand-in; see DESIGN.md).
"""

from repro.runtime.begging import (
    LB_NAMES,
    BeggingList,
    HierarchicalBeggingList,
    make_begging_list,
)
from repro.runtime.contention import (
    CM_NAMES,
    AggressiveCM,
    ContentionManager,
    GlobalCM,
    LocalCM,
    RandomCM,
    make_contention_manager,
)
from repro.runtime.context import ExecutionContext
from repro.runtime.stats import OverheadKind, ThreadStats

__all__ = [
    "ExecutionContext",
    "ThreadStats",
    "OverheadKind",
    "ContentionManager",
    "AggressiveCM",
    "RandomCM",
    "GlobalCM",
    "LocalCM",
    "make_contention_manager",
    "CM_NAMES",
    "BeggingList",
    "HierarchicalBeggingList",
    "make_begging_list",
    "LB_NAMES",
]
