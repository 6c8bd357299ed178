"""CPU time and peak memory of this process and everything below it.

The server subprocess and the pool's worker processes burn the cores
the end-to-end numbers pay for, and ``resource.getrusage`` only sees
children after they are reaped, so both figures come from ``/proc``
while the tree is still alive (Linux only).
"""

from __future__ import annotations

import os
import time
from typing import List

_TICK = os.sysconf("SC_CLK_TCK")


def tree(root: int) -> List[int]:
    """``root`` and its live descendants."""
    seen = [root]
    for pid in seen:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    seen.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
    return seen


def cpu_seconds() -> float:
    """user+sys CPU consumed so far by this process and its live
    descendants (``/proc`` ticks are 10 ms, so this process reads its
    own finer clock)."""
    ticks = 0
    for pid in tree(os.getpid())[1:]:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # comm may hold spaces; fields are counted after ')'
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        ticks += int(fields[11]) + int(fields[12])   # utime + stime
    return time.process_time() + ticks / _TICK


def peak_rss_mib() -> float:
    """Sum of the high-water RSS of this process and each live
    descendant, in MiB."""
    kib = 0
    for pid in tree(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return kib / 1024.0
