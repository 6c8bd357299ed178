"""Output checks: every timed mesh must also be a *right* mesh.

Run outside the timed interval, on the mesh that came out of the
operation's output bytes.  A failed check counts the operation as
failed; it never aborts the run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List

import numpy as np

from repro.api import MeshResult
from repro.core.extract import ExtractedMesh
from repro.metrics import quality_report
from repro.metrics.validate import validate_extracted_mesh

#: ``validate_extracted_mesh`` counts faces per boundary edge over the
#: whole mesh, which flags every edge where three materials meet (two
#: tissues and the background each contribute a face).  The abdominal
#: phantoms have such junction lines, so that one line is replaced by
#: :func:`open_region_edges`, the same test applied per material.
_GLOBAL_WATERTIGHT = "odd face count"


def open_region_edges(mesh: ExtractedMesh) -> int:
    """Boundary edges on an odd number of faces of some material's
    surface (0 = every material region, background included, is closed).
    """
    faces = np.sort(np.asarray(mesh.boundary_faces), axis=1)
    sides = np.asarray(mesh.boundary_labels)
    bad = 0
    for label in np.unique(sides):
        own = faces[(sides == label).any(axis=1)]
        edges = np.concatenate([own[:, [0, 1]], own[:, [0, 2]],
                                own[:, [1, 2]]])
        _, counts = np.unique(edges, axis=0, return_counts=True)
        bad += int((counts % 2).sum())
    return bad


def mesh_digest(mesh: ExtractedMesh) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (mesh.vertices, mesh.tets, mesh.tet_labels,
                mesh.boundary_faces, mesh.boundary_labels):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class OutputChecker:
    """Verdicts by mesh content, so a mesh served two hundred times
    from a cache is validated once."""

    def __init__(self) -> None:
        self._verdicts: Dict[str, List[str]] = {}

    def examine(self, digest: str, result: MeshResult,
                radius_edge_bound: float = 2.0) -> None:
        if digest in self._verdicts:
            return
        if not result.ok:
            self._verdicts[digest] = [
                "result.ok is false (empty or livelocked mesh)"]
            return
        mesh = result.mesh
        out = [i for i in validate_extracted_mesh(mesh)
               if _GLOBAL_WATERTIGHT not in i]
        n_open = open_region_edges(mesh)
        if n_open:
            out.append(f"{n_open} open edges on a material surface")
        worst = quality_report(mesh).max_radius_edge
        if not worst <= radius_edge_bound + 1e-9:
            out.append(f"max radius-edge {worst:.4f} over the bound "
                       f"{radius_edge_bound}")
        self._verdicts[digest] = out

    def problems(self, digest: str, mesh_labels: FrozenSet[int],
                 labels: FrozenSet[int]) -> List[str]:
        """Why an operation that returned this mesh fails (``[]`` = it
        passes): the mesh's verdict plus the label check, which depends
        on the request and not only on the mesh."""
        out = list(self._verdicts[digest])
        if not mesh_labels <= labels:
            out.append(f"labels {sorted(mesh_labels - labels)} are not the "
                       "request's relabelling")
        return out
