"""``python3 benchmarks/e2e/run.py ...``: the command ``BENCHMARK.json`` names.

Runs ``python3 -m benchmarks.e2e`` with the same arguments as a child,
from the root of a checkout that is not installed anywhere, and does
not exit before every process below it has ended.

The process executor's ``multiprocessing`` resource tracker outlives
the interpreter that started it by a few milliseconds (it exits when
that interpreter's end of a pipe closes), and so does the one inside
the ``repro serve`` subprocess; a caller that looks the moment the
benchmark returns would still find them.  This process therefore makes
itself the *child subreaper* (Linux ``prctl``): whatever the run leaves
behind is re-parented here, waited for, and killed if it has not gone
after :data:`REAP_GRACE_S` — on every path out, a failed or interrupted
run included.  It sleeps in ``wait`` while the run measures.
"""

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PR_SET_CHILD_SUBREAPER = 36
#: what a process the run left behind gets to end by itself
REAP_GRACE_S = 10.0


def _adopt_orphans() -> bool:
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False               # not Linux: orphans go to init


def _children() -> list:
    pids = []
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def _reap_all(grace: float) -> None:
    """Wait until this process has no child left, adopted ones included;
    past ``grace`` seconds the survivors are killed (their own children
    land here in turn)."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def main(argv: list) -> int:
    _adopt_orphans()
    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", *argv], cwd=ROOT)
    interrupted = []

    def forward(signum, _frame):
        interrupted.append(signum)
        child.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_all(0.0 if interrupted else REAP_GRACE_S)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
