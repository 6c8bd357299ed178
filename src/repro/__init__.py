"""PI2M: parallel Delaunay image-to-mesh conversion (reproduction).

Reproduces Foteinos & Chrisochoides, "High Quality Real-Time
Image-to-Mesh Conversion for Finite Element Simulations" (SC 2012).

Quick tour
----------
>>> from repro.api import MeshRequest, mesh
>>> from repro.imaging import sphere_phantom
>>> result = mesh(MeshRequest(image=sphere_phantom(24), delta=2.5))
>>> result.mesh.n_tets > 0
True

Packages: :mod:`repro.geometry` (predicates), :mod:`repro.delaunay`
(kernel with insertions and removals), :mod:`repro.imaging` (images,
EDT, isosurface oracle), :mod:`repro.core` (rules R1-R6 and the
sequential refiner), :mod:`repro.runtime` (contention managers, begging
lists), :mod:`repro.parallel` (real threads), :mod:`repro.simnuma`
(cc-NUMA simulator), :mod:`repro.baselines`, :mod:`repro.metrics`,
:mod:`repro.io`, :mod:`repro.reporting`.
"""

__version__ = "1.0.0"
