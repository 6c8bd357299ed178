"""What is left of the shared-memory result transport: a leak check.

Workers answer over their pipe and nothing in ``src`` creates a
shared-memory segment.  This module exists only because
``benchmarks/e2e/runner.py`` imports it and calls :func:`orphaned`
around every run, and a change that touches the service may not edit
the benchmark it is judged by; the ``benchmark`` PR that drops that
call deletes this file.
"""

import os

#: Prefix of every segment name the removed transport created.
ARENA_PREFIX = "repro-arena-"


def orphaned(prefix: str = ARENA_PREFIX) -> list:
    """Names under ``/dev/shm`` starting with ``prefix`` (``[]`` where
    there is no ``/dev/shm``)."""
    try:
        return sorted(e for e in os.listdir("/dev/shm")
                      if e.startswith(prefix))
    except OSError:
        return []
