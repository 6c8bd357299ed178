"""Final mesh extraction (paper Figure 1c / Algorithm 1 line 49).

The final mesh ``M`` is the set of tetrahedra whose circumcenter lies
inside the object ``O``; the boundary of ``M`` is the set of facets
between kept and discarded tetrahedra, which by the restricted-Delaunay
construction approximates the isosurface with the Theorem 1 guarantees.
Multi-label images keep a tissue label per element (the label at the
circumcenter) so FE solvers can assign per-tissue material properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.delaunay.mesh import FACE_OPPOSITE


@dataclass
class ExtractedMesh:
    """Array-of-structs output mesh.

    ``vertices`` is float64 ``(nv, 3)``; ``tets`` int64 ``(nt, 4)`` into
    ``vertices``; ``tet_labels`` int32 ``(nt,)``; ``boundary_faces``
    int64 ``(nf, 3)``; ``boundary_labels`` int32 ``(nf, 2)`` giving the
    labels on the kept / discarded side of each boundary facet.
    """

    vertices: np.ndarray
    tets: np.ndarray
    tet_labels: np.ndarray
    boundary_faces: np.ndarray
    boundary_labels: np.ndarray

    @property
    def n_tets(self) -> int:
        return len(self.tets)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def tet_points(self, i: int):
        return [tuple(self.vertices[v]) for v in self.tets[i]]

    def face_points(self, i: int):
        return [tuple(self.vertices[v]) for v in self.boundary_faces[i]]


def extract_mesh(domain) -> ExtractedMesh:
    """Collect the tetrahedra whose circumcenter lies inside the object,
    labelled by the tissue there.  ``domain`` is anything with a
    ``tri``, an ``image`` and the circumball store's ``circumballs``
    (PI2M's :class:`RefineDomain`, the CGAL-like rule set)."""
    live = domain.tri.mesh.live_tet_ids()
    labels = domain.image.labels_at_many(domain.circumballs(live)[live, :3])
    inside = labels != 0
    return assemble_mesh(domain.tri.mesh, live[inside], labels[inside])


def assemble_mesh(mesh, kept: np.ndarray,
                  tet_labels: np.ndarray) -> ExtractedMesh:
    """The output mesh of the tet slots ``kept`` (ascending) of ``mesh``
    with their non-zero ``tet_labels``.

    Tets come out in ``kept`` order, vertices numbered by first use,
    each tet's boundary faces in local-face order — an interface
    between two tissues once, from the lower tet id.
    """
    verts = mesh.tet_verts_arr[kept].astype(np.int64)

    used, first_use = np.unique(verts.ravel(), return_index=True)
    used = used[np.argsort(first_use)]
    renumber = np.zeros(mesh.coords.shape[0], dtype=np.int64)
    renumber[used] = np.arange(len(used))

    # label per slot, 0 for discarded tets; HULL (-1) reads the spare
    # last entry, so the hull counts as background.
    slot_label = np.zeros(mesh.tet_top + 1, dtype=np.int32)
    slot_label[kept] = tet_labels
    adj = mesh.tet_adj[kept]
    nbr_label = slot_label[adj]
    own_label = tet_labels[:, None]
    emit = (nbr_label != own_label) & ~(
        (nbr_label != 0) & (adj < kept[:, None]))
    ti, fi = np.nonzero(emit)
    faces = verts[ti[:, None], FACE_OPPOSITE[fi]]

    return ExtractedMesh(
        vertices=mesh.coords[used],
        tets=renumber[verts],
        tet_labels=tet_labels,
        boundary_faces=renumber[faces],
        boundary_labels=np.stack([tet_labels[ti], nbr_label[ti, fi]], axis=1),
    )
