"""3D Delaunay triangulation kernel with dynamic insertions *and* removals.

This is the substrate the paper's refinement runs on: an incremental
Bowyer-Watson triangulation of a virtual bounding box, supporting

* point insertion (cavity carving + star re-triangulation), and
* vertex removal (the ball refilled by boundary-conforming Delaunay
  gift-wrapping, verified to tile the hole before anything mutates;
  the paper's Section 4.2 uses a local Delaunay triangulation of the
  link instead — DESIGN.md §4 says why this one fill replaces it).

The kernel exposes *touch hooks* so that the speculative parallel refiner
can lock every vertex an operation reads or writes and roll back on
conflict, exactly as Section 4.2 of the paper describes.
"""

from repro.delaunay.mesh import DEAD, HULL, MeshArrays
from repro.delaunay.triangulation import (
    InsertionError,
    PointLocationError,
    RemovalError,
    RollbackSignal,
    Triangulation3D,
)

__all__ = [
    "Triangulation3D",
    "MeshArrays",
    "HULL",
    "DEAD",
    "RollbackSignal",
    "InsertionError",
    "RemovalError",
    "PointLocationError",
]
