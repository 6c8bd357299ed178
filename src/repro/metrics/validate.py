"""Structural validation of extracted meshes (FE pre-flight checks).

A solver consuming PI2M output wants to know the mesh is *conforming*:
indices in range, no degenerate or inverted elements, every boundary
face actually a face of exactly one kept tetrahedron per side, and a
watertight boundary around every material.
:func:`validate_extracted_mesh` returns a list of human-readable issues
(empty = valid); tests and examples assert on it.
"""

from __future__ import annotations

from collections import Counter
from typing import List

import numpy as np

from repro.core.extract import ExtractedMesh
from repro.geometry.quality import tet_volume


def validate_extracted_mesh(mesh: ExtractedMesh,
                            volume_tol: float = 0.0) -> List[str]:
    """Run all structural checks; returns a list of issue strings."""
    issues: List[str] = []
    nv = mesh.n_vertices

    # index ranges — fatal: geometry checks below would crash
    if mesh.n_tets and (mesh.tets.min() < 0 or mesh.tets.max() >= nv):
        issues.append("tet vertex index out of range")
    if len(mesh.boundary_faces) and (
        mesh.boundary_faces.min() < 0 or mesh.boundary_faces.max() >= nv
    ):
        issues.append("boundary face vertex index out of range")
    if issues:
        return issues

    # label arrays sized consistently
    if len(mesh.tet_labels) != mesh.n_tets:
        issues.append("tet_labels length mismatch")
    if len(mesh.boundary_labels) != len(mesh.boundary_faces):
        issues.append("boundary_labels length mismatch")

    # no repeated vertex inside one tet / face
    for i, tet in enumerate(mesh.tets):
        if len(set(tet.tolist())) != 4:
            issues.append(f"tet {i} repeats a vertex")
            break
    for i, face in enumerate(mesh.boundary_faces):
        if len(set(face.tolist())) != 3:
            issues.append(f"boundary face {i} repeats a vertex")
            break

    # degenerate elements
    n_degenerate = 0
    for tet in mesh.tets:
        pts = [tuple(mesh.vertices[v]) for v in tet]
        if abs(tet_volume(*pts)) <= volume_tol:
            n_degenerate += 1
    if n_degenerate:
        issues.append(f"{n_degenerate} degenerate (zero-volume) tets")

    # duplicate vertices (exact duplicates break adjacency assumptions)
    seen = {}
    n_dupes = 0
    for i, p in enumerate(mesh.vertices):
        key = (float(p[0]), float(p[1]), float(p[2]))
        if key in seen:
            n_dupes += 1
        seen[key] = i
    if n_dupes:
        issues.append(f"{n_dupes} duplicate vertex coordinates")

    # every boundary face must be a face of some tet
    tet_faces = set()
    for tet in mesh.tets:
        t = tet.tolist()
        for i in range(4):
            tet_faces.add(tuple(sorted(t[:i] + t[i + 1:])))
    missing = sum(
        1 for face in mesh.boundary_faces
        if tuple(sorted(face.tolist())) not in tet_faces
    )
    if missing:
        issues.append(f"{missing} boundary faces are not faces of any tet")

    # watertight boundary, per material: on the surface of every region
    # (background included) each edge lies on an even number of faces.
    # Counted over the whole mesh, an edge where two tissues and the
    # background meet carries three faces and would read as open.
    if len(mesh.boundary_labels) == len(mesh.boundary_faces):
        faces = np.sort(np.asarray(mesh.boundary_faces), axis=1)
        sides = np.asarray(mesh.boundary_labels)
        odd = 0
        for label in np.unique(sides):
            own = faces[(sides == label).any(axis=1)]
            edges = np.concatenate([own[:, [0, 1]], own[:, [0, 2]],
                                    own[:, [1, 2]]])
            _, counts = np.unique(edges, axis=0, return_counts=True)
            odd += int((counts % 2).sum())
        if odd:
            issues.append(f"{odd} boundary edges with odd face count on "
                          "a material's surface (boundary not watertight)")

    # interior conformity: every internal face shared by exactly 2 tets
    face_count = Counter()
    for tet in mesh.tets:
        t = tet.tolist()
        for i in range(4):
            face_count[tuple(sorted(t[:i] + t[i + 1:]))] += 1
    over = sum(1 for c in face_count.values() if c > 2)
    if over:
        issues.append(f"{over} faces shared by more than two tets")

    return issues
