"""Spans recorded by the benchmark around calls into each layer.

One :class:`Trace` per traced run; spans stay in memory and are written
when the run ends.  A span is *timed* (this file's clock around a
public call) or *reported* (a duration the program returned, laid out
inside its timed parent).  Two further kinds are shown next to their
parent and never counted: an *estimate* (work re-done outside the
operation to size one of its parts) and a *parallel* span (one of
several that overlap in other processes; the parent holds their wall).
Self time is a span's duration minus the part of it its children
cover, so the counted self times of one operation sum to its wall and
the root's self time is what nothing accounts for.

Span names are the ones later in-program tracing has to reuse
(``~`` marks an estimate, ``|`` a parallel span):
``op`` > ``decode surface_mask edt domain_init refine(oracle
kernel_replay~) extract serialise``; threaded operations
``op`` > ``decode mesh(refine) serialise``; service operations
``op`` > ``decode submit queue_wait run(decompose~ blocks(block[k]|)
stitch) wake serialise``; gateway operations
``op`` > ``decode post wait result deserialise``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

#: The clock of every span.  ``Job`` timestamps are ``time.monotonic``
#: too, so reported service spans sit on the same axis as timed ones.
clock = time.monotonic


@dataclass
class Span:
    op: int
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    kind: str = "timed"           # timed | reported | estimate | parallel

    @property
    def counted(self) -> bool:
        return self.kind in ("timed", "reported")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Trace:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1

    # -- recording -----------------------------------------------------
    @contextmanager
    def operation(self) -> Iterator[Span]:
        """The root span of one operation; nested spans share its id."""
        self._op += 1
        with self.span("op") as root:
            yield root

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self._open(name, clock())
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = clock()
            self._stack.pop()

    def add(self, name: str, start: float, seconds: float,
            parent: Optional[Span] = None, kind: str = "reported") -> Span:
        """Record a span whose duration something else measured."""
        s = self._open(name, start, parent, kind)
        s.end = start + max(0.0, seconds)
        return s

    def _open(self, name: str, start: float, parent: Optional[Span] = None,
              kind: str = "timed") -> Span:
        if parent is not None:
            pid: Optional[int] = parent.id
        else:
            pid = self._stack[-1] if self._stack else None
        s = Span(self._op, len(self.spans), pid, name, start, start, kind)
        self.spans.append(s)
        return s

    # -- arithmetic ----------------------------------------------------
    def self_times(self, op: int) -> Dict[str, float]:
        """Self seconds per span name for one operation, over the
        counted spans."""
        spans = [s for s in self.spans if s.op == op and s.counted]
        out: Dict[str, float] = {}
        for s in spans:
            kids = sorted(
                (max(k.start, s.start), min(k.end, s.end))
                for k in spans if k.parent == s.id
            )
            covered, edge = 0.0, s.start
            for lo, hi in kids:
                lo = max(lo, edge)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.name] = out.get(s.name, 0.0) + s.seconds - covered
        return out

    def seconds(self, op: int, name: str) -> float:
        """Total duration of the spans called ``name`` in one operation."""
        return sum(s.seconds for s in self.spans
                   if s.op == op and s.name == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
