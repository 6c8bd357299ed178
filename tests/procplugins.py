"""Picklable fake meshers for the process-executor tests.

They reach spawned workers through the service's table of served
meshers (:data:`MESHERS`, passed as ``MeshingService(config,
meshers=MESHERS)``), which every worker is spawned with — so a
misbehaving mesher runs in a process the test does not own.
``crashy`` kills the worker without cleanup (the hardest failure the
pool must survive); ``sleepy`` blocks long enough to trip any deadline;
``big`` answers with a mesh many pipe buffers long; ``replybomb``
meshes fine and kills the worker while its reply is being pickled.
"""

import os
import time

import numpy as np

from repro.api import SequentialMesher


class _CrashyMesher:
    name = "crashy"

    def mesh(self, request):
        os._exit(17)  # no atexit, no finally: a real crash


class _SleepyMesher:
    name = "sleepy"

    def mesh(self, request):
        time.sleep(60.0)
        raise AssertionError("sleepy mesher was not killed in time")


def big_mesh(n_vertices=1_000_000, n_tets=500_000):
    """A deterministic ~40 MB "mesh" (24 MB of vertices, 16 MB of
    tets); the test builds the same arrays to compare against."""
    from repro.core.extract import ExtractedMesh

    return ExtractedMesh(
        vertices=np.arange(3 * n_vertices, dtype=np.float64).reshape(-1, 3),
        tets=np.arange(4 * n_tets, dtype=np.int64).reshape(-1, 4)
        % n_vertices,
        tet_labels=np.ones(n_tets, dtype=np.int32),
        boundary_faces=np.zeros((0, 3), dtype=np.int64),
        boundary_labels=np.zeros((0, 2), dtype=np.int32),
    )


class _BigMesher:
    name = "big"

    def mesh(self, request):
        from repro.api import MeshResult

        return MeshResult(mesh=big_mesh(), mesher=self.name,
                          timings={"wall_seconds": 0.0})


class _ExitWhenPickled:
    def __reduce__(self):
        os._exit(19)


class _ReplyBombMesher:
    name = "replybomb"

    def mesh(self, request):
        from repro.api import MeshResult

        return MeshResult(mesh=big_mesh(8, 2), mesher=self.name,
                          stats={"bomb": _ExitWhenPickled()},
                          timings={"wall_seconds": 0.0})


#: The fault tests' served table: the real mesher beside the fakes.
MESHERS = {"sequential": SequentialMesher(), "crashy": _CrashyMesher(),
           "sleepy": _SleepyMesher(), "big": _BigMesher(),
           "replybomb": _ReplyBombMesher()}
