"""Where the benchmark runs: paths, the environment record, hygiene.

Everything the benchmark writes — the accelerator's compile cache,
service cache directories, traces, default result files — lives under
``.bench_build/`` at the checkout root, which ``.gitignore`` names.
Nothing here imports :mod:`repro`: :func:`prepare` has to run first so
that the import finds the checkout's sources and accelerator cache.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
ACCEL_CACHE = BUILD / "repro-accel"
TMP = BUILD / "tmp"


def prepare() -> bool:
    """Point this process and its children at the checkout's sources
    and at a checkout-local accelerator cache.

    Returns whether a compiled accelerator was already cached (the
    ``accel_cache_prewarmed`` flag of the run record).  When it was not,
    a throwaway interpreter imports — and so compiles — it here, before
    the set-up clock starts: ``setup_s`` is what every later run of the
    checkout pays, not what the first one pays to build.
    """
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    # Worker processes and the ``repro serve`` subprocess start from
    # the environment, not from this process's sys.path.
    parts = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != src]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)
    os.environ["REPRO_ACCEL_CACHE"] = str(ACCEL_CACHE)
    # Runs of a checkout follow one another; what is in there now was
    # left by a run that was killed.
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True, exist_ok=True)
    prewarmed = any(ACCEL_CACHE.glob("bw_kernel-*.so"))
    if not prewarmed and SRC.is_dir():
        subprocess.run([sys.executable, "-c", "import repro._accel"],
                       cwd=ROOT, check=False)
    return prewarmed


def fresh_import() -> None:
    """Import everything a run uses — numpy, scipy, ``repro``, the
    accelerator's shared object — in a fresh interpreter.  A process
    imports once, so the repetitions ``setup_s`` takes its median over
    have to be processes of their own."""
    done = subprocess.run(
        [sys.executable, "-c", "import benchmarks.e2e.workloads"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise ImportError(done.stderr.strip().splitlines()[-1])


_made: List[str] = []


def make_tmp(prefix: str) -> str:
    _made.append(tempfile.mkdtemp(prefix=prefix, dir=TMP))
    return _made[-1]


def remove_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def leftover_tmp() -> List[str]:
    """The directories of this run that are still there."""
    return sorted(Path(p).name for p in _made if os.path.exists(p))


def _git(*args: str) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _git_sha() -> str:
    """``HEAD``, marked when the tree holds changes it does not."""
    sha = _git("rev-parse", "HEAD")
    if not sha:
        return "unknown"           # a driver checkout is not a repository
    return sha + ("-dirty" if _git("status", "--porcelain") else "")


def record(seed: int, accel_prewarmed: bool) -> Dict[str, Any]:
    """The machine line of a result file (call after importing repro)."""
    import numpy
    import scipy

    from repro import _accel

    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "accelerator": _accel.bw_insert is not None,
        "accel_cache_prewarmed": accel_prewarmed,
        "repro_accel_env": os.environ.get("REPRO_ACCEL", ""),
        "load_avg_1m_at_start": load1,
    }
