"""Baseline meshers for the paper's Table 6 comparison, as rule sets.

* :mod:`repro.baselines.cgal_like` — an isosurface-based restricted
  Delaunay refiner in the style of CGAL's Mesh_3;
* :mod:`repro.baselines.tetgen_like` — a PLC-based mesher in the style
  of TetGen, fed the triangulated isosurface PI2M recovers (exactly the
  paper's setup).

**Shared with PI2M**, one owner each: the Delaunay kernel, the
generation walk (:class:`~repro.core.refiner.SequentialRefiner` drives
a baseline through ``screen`` / ``refine_tet`` and three counters,
exactly as it drives a ``RefineDomain``), the circumball store
(:class:`~repro.core.domain.CircumballStore`), the label-only ray traversal
(:class:`~repro.imaging.isosurface.LabelRays`) and the extractor's
assembly (:func:`~repro.core.extract.assemble_mesh`).  **Each mesher's
own:** its rules, its use of the image (CGAL-like marches dual segments
and builds no distance transform; TetGen-like never sees the image) and
its removals (none: both insert only).  So the comparison measures
*algorithm structure*, the same spirit as the paper's observation that
all three meshers share the Bowyer-Watson insertion kernel.
"""

from repro.baselines.cgal_like import CGALLikeMesher
from repro.baselines.tetgen_like import TetGenLikeMesher

__all__ = ["CGALLikeMesher", "TetGenLikeMesher"]
