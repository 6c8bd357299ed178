"""User size functions for rule R5, as data.

Rule R5 refines any tetrahedron whose circumcenter lies inside the
object and whose circumradius exceeds ``sf(c(t))``.  The paper exposes
this as a user-specified field ("our method is able to satisfy both
surface and volume custom element densities, as dictated by the
user-specified size functions").

A size function is a :class:`SizeSpec` — a kind and its numbers, with a
canonical JSON form — so a sized request has a cache key, crosses HTTP
and runs in a worker process like any other.  The factories build and
validate the four kinds; :meth:`SizeSpec.bind` makes the callable R5
evaluates on a domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

SizeFunction = Callable[[Sequence[float]], float]

#: Each kind's arguments, in the order :attr:`SizeSpec.args` holds them.
KINDS: Dict[str, Tuple[str, ...]] = {
    "unconstrained": (),
    "constant": ("value",),
    "radial": ("center", "near", "far", "radius"),
    "surface_graded": ("near", "far", "growth"),
}


def finite_number(what: str, value: Any) -> float:
    """``value`` as a finite float; ``ValueError`` naming ``what`` for
    anything else (a boolean, NaN, an infinity, an int past float)."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SizeSpec:
    """One size function as data: ``kind`` (a :data:`KINDS` key) and its
    arguments as finite floats (``radial``'s center a 3-tuple).  Build
    one with the factories; :meth:`from_json` decodes the wire form."""

    kind: str
    args: Tuple[Any, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, **{
            name: list(value) if name == "center" else value
            for name, value in zip(KINDS[self.kind], self.args)}}

    @classmethod
    def from_json(cls, doc: Any) -> "SizeSpec":
        """Inverse of :meth:`to_json`; ``ValueError`` on anything else."""
        kind = doc.get("kind") if isinstance(doc, dict) else None
        names = KINDS.get(kind) if isinstance(kind, str) else None
        if names is None or set(doc) != {"kind", *names}:
            raise ValueError(f"a size spec is a kind from {tuple(KINDS)} "
                             f"with exactly its arguments, got {doc!r}")
        return _FACTORIES[kind](*(doc[name] for name in names))

    def bind(self, domain) -> SizeFunction:
        """The callable R5 evaluates on ``domain``."""
        if self.kind == "unconstrained":
            return lambda p: math.inf
        if self.kind == "constant":
            (value,) = self.args
            return lambda p: value
        if self.kind == "surface_graded":
            near, far, growth = self.args
            dist = domain.surface_distance
            return lambda p: min(far, near + growth * dist(p))
        (cx, cy, cz), near, far, radius = self.args

        def sf(p: Sequence[float]) -> float:
            d = math.dist(p, (cx, cy, cz))
            if d >= radius:
                return far
            t = d / radius
            return near + t * (far - near)

        return sf


def unconstrained() -> SizeSpec:
    """No volume size constraint: R5 never fires."""
    return SizeSpec("unconstrained")


def constant(value: float) -> SizeSpec:
    """Uniform target circumradius everywhere."""
    value = finite_number("size value", value)
    if value <= 0:
        raise ValueError("size bound must be positive")
    return SizeSpec("constant", (value,))


def surface_graded(near: float, far: float, growth: float = 1.0) -> SizeSpec:
    """Sizing graded by distance to the isosurface: ``near`` at the
    surface, growing by ``growth`` per unit distance, capped at ``far``.

    This is the paper's "parts of the isosurface ... meshed with more
    elements" control expressed through the EDT the pipeline already
    owns: the bound function reads the domain's ``surface_distance``.
    """
    near, far = finite_number("size near", near), finite_number("size far", far)
    growth = finite_number("size growth", growth)
    if near <= 0 or far < near or growth <= 0:
        raise ValueError("need 0 < near <= far and growth > 0")
    return SizeSpec("surface_graded", (near, far, growth))


def radial(center: Sequence[float], near: float, far: float,
           radius: float) -> SizeSpec:
    """Graded sizing: ``near`` at ``center`` growing linearly to ``far``
    at distance ``radius`` — the "more elements of better quality where
    curvature is high" style of control the paper motivates."""
    if not hasattr(center, "__len__") or len(center) != 3:
        raise ValueError(f"size center must be 3 numbers, got {center!r}")
    xyz = tuple(finite_number("size center", c) for c in center)
    near, far = finite_number("size near", near), finite_number("size far", far)
    radius = finite_number("size radius", radius)
    if near <= 0 or far <= 0:
        raise ValueError("size bounds must be positive")
    return SizeSpec("radial", (xyz, near, far, radius))


_FACTORIES = {f.__name__: f
              for f in (unconstrained, constant, radial, surface_graded)}
