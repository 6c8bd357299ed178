"""PI2M core: the paper's primary contribution.

High-level entry point: :func:`repro.api.mesh` ::

    from repro.api import MeshRequest, mesh
    from repro.imaging import sphere_phantom

    result = mesh(MeshRequest(image=sphere_phantom(32), delta=2.0,
                              mesher="sequential"))
    print(result.mesh.n_tets, result.stats["elements_per_second"])

Lower-level pieces — :class:`RefineDomain` (rules R1-R6),
:class:`SequentialRefiner`, :func:`extract_mesh` — compose the same way
the parallel refiners use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.domain import OperationResult, RefineDomain, VertexKind
from repro.core.extract import ExtractedMesh, extract_mesh
from repro.core.pel import PoorElementList
from repro.core.pointgrid import PointGrid
from repro.core.refiner import RefineStats, SequentialRefiner
from repro.core.sizing import (
    SizeSpec,
    constant,
    radial,
    surface_graded,
    unconstrained,
)
from repro.imaging.image import SegmentedImage
from repro.observability import NULL_TRACER


@dataclass
class MeshingResult:
    """Bundle returned by :func:`_mesh_image` / :func:`repro.api.mesh`."""

    mesh: ExtractedMesh
    stats: RefineStats
    domain: RefineDomain


def _mesh_image(
    image: SegmentedImage,
    delta: Optional[float] = None,
    size_function: Optional[SizeSpec] = None,
    max_operations: Optional[int] = None,
    obs=None,
) -> MeshingResult:
    """Sequential meshing implementation behind ``repro.api.mesh``.

    ``obs`` is an optional :class:`repro.observability.Observability`
    bundle; when given, the domain build / refinement / extraction
    phases are traced and the refiner feeds the metrics registry.
    """
    tracer = obs.tracer if obs is not None else NULL_TRACER
    with tracer.span("domain_init"):
        domain = RefineDomain(image, delta=delta,
                              size_function=size_function)
    refiner = SequentialRefiner(domain, max_operations=max_operations,
                                obs=obs)
    stats = refiner.refine()
    with tracer.span("extract"):
        mesh = extract_mesh(domain)
    return MeshingResult(mesh=mesh, stats=stats, domain=domain)


__all__ = [
    "RefineDomain",
    "VertexKind",
    "OperationResult",
    "SequentialRefiner",
    "RefineStats",
    "PoorElementList",
    "PointGrid",
    "ExtractedMesh",
    "extract_mesh",
    "_mesh_image",
    "MeshingResult",
    "SizeSpec",
    "constant",
    "radial",
    "surface_graded",
    "unconstrained",
]
