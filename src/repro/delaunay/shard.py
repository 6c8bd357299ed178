"""Domain-sharded meshing: block decomposition + interface stitching.

The per-mesh latency floor of the sequential refiner is the largest
contiguous region one process refines.  This module turns that floor
into a scale-out knob, following the decompose / mesh-independently /
repair-the-interfaces template of Garner et al. (PAPERS.md):

1. **Decompose** — :func:`decompose` splits the image's foreground
   bounding box into axis-aligned blocks by recursive bisection
   (octree-style: always the longest axis, at the occupancy-weighted
   median plane), where *occupancy* is the foreground voxel count — the
   cheap stand-in for refinement work, which the EDT concentrates
   around foreground surfaces.  Each block has a half-open **core**
   (exclusive point ownership; cores partition all of space, the outer
   faces extending to infinity) and an **overlap crop** — the core
   dilated by the interface band, so a shard sees the same image
   context any point in its core would see in the unsharded run out to
   the ``2*delta`` influence radius of the refinement rules.
2. **Mesh blocks** — :func:`refine_block` runs the ordinary sequential
   refiner on the cropped sub-image (same ``delta``, same bounds) and
   exports the vertices its core *owns*, in insertion order, with
   their :class:`~repro.core.domain.VertexKind`.
3. **Stitch** — :func:`stitch` rebuilds one global domain, bulk-loads
   every owned point through ``Triangulation3D.insert_many`` (the
   ``bw_insert_many`` C kernel), replays rule R6 in the interface
   bands — circumcenter vertices within ``2*delta`` of a seam-band
   isosurface sample are deleted via ``remove_vertex`` (the
   ``bw_remove`` kernel) — and then runs the sequential refiner seeded
   from the ``2*delta`` shell at the ownership boundaries only.  Each
   block already refined its own interior to completion and insertions
   whose cavities are separated are independent (Spielman–Teng–Üngör,
   PAPERS.md), so those verdicts survive the merge; a global
   radius-edge screen over the finished mesh stands guard and sends
   any offender through unrestricted repair passes.

Everything here is deterministic: blocks are visited in index order,
points in per-shard insertion order, and R6 victims in sorted-id
order, so the same image + the same shard count reproduces the same
topology on every run.

:func:`mesh_sharded` is the one coordinator: it decomposes, decides the
fallback (:class:`ShardingUnavailable`), runs the blocks through a
``runner`` — :func:`in_process_runner` by default, or the service's
process-pool fan-out (:mod:`repro.service.shards`) — and stitches.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.imaging.image import SegmentedImage

Vec3i = Tuple[int, int, int]
Vec3f = Tuple[float, float, float]

#: Smallest core extent (voxels) bisection will leave on either side of
#: a cut.  Below this a block's crop is mostly band, and shard overhead
#: outweighs the win.
MIN_CORE_VOXELS = 4

#: Cut planes snap to this voxel grid so that near-duplicate images
#: decompose identically (see :func:`_median_cut`).
CUT_QUANTUM = 2

#: Cap on the stitch's retry passes (see :func:`_retry_passes`); they
#: end on their own, so the cap only guards against a pathological
#: mutate/skip ping-pong.
_MAX_QUALITY_ROUNDS = 8


class ShardingUnavailable(RuntimeError):
    """The image cannot usefully be sharded: an empty foreground, or
    fewer than two occupied blocks.  The unsharded mesher is then
    equivalent (and raises the canonical error for an empty image)."""


@dataclass(frozen=True)
class Block:
    """One shard of the decomposition, in voxel and world coordinates.

    ``core_lo``/``core_hi`` is the half-open voxel box this block owns;
    ``crop_lo``/``crop_hi`` is the core dilated by the interface band
    and clamped to the image (the sub-image the shard actually meshes).
    ``own_lo``/``own_hi`` is the world-space ownership box: half-open,
    with faces on the decomposition root's boundary pushed to ±inf so
    the ownership boxes of all blocks partition all of space (shard
    meshes place circumcenters outside the image volume too).
    """

    index: int
    core_lo: Vec3i
    core_hi: Vec3i
    crop_lo: Vec3i
    crop_hi: Vec3i
    own_lo: Vec3f
    own_hi: Vec3f
    occupancy: int

    @property
    def crop_voxels(self) -> int:
        """Size of the sub-image the shard meshes; its refine time
        follows this, not ``occupancy``."""
        return math.prod(
            hi - lo for lo, hi in zip(self.crop_lo, self.crop_hi))

    def owns(self, p: Sequence[float]) -> bool:
        return (
            self.own_lo[0] <= p[0] < self.own_hi[0]
            and self.own_lo[1] <= p[1] < self.own_hi[1]
            and self.own_lo[2] <= p[2] < self.own_hi[2]
        )


@dataclass
class ShardPlan:
    """The full decomposition: blocks + the parameters they share."""

    blocks: List[Block]
    band_voxels: Vec3i
    delta: float
    root_lo: Vec3i
    root_hi: Vec3i

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def seam_planes(self, image: SegmentedImage) -> List[Tuple[int, float]]:
        """Interior core boundaries as ``(axis, world_coordinate)``.

        Only planes strictly inside the decomposition root qualify —
        the root's own faces are not seams.
        """
        planes = set()
        for b in self.blocks:
            for axis in range(3):
                for idx in (b.core_lo[axis], b.core_hi[axis]):
                    if self.root_lo[axis] < idx < self.root_hi[axis]:
                        planes.add((axis, _world(image, axis, idx)))
        return sorted(planes)

    def to_meta(self) -> Dict[str, Any]:
        """JSON-safe summary for stats / logs."""
        return {
            "blocks": self.n_blocks,
            "band_voxels": list(self.band_voxels),
            "delta": self.delta,
            "occupancy": [b.occupancy for b in self.blocks],
        }


def _world(image: SegmentedImage, axis: int, idx: int) -> float:
    """World coordinate of voxel-grid plane ``idx`` along ``axis``.

    One expression, used for every block: adjacent blocks get the
    bit-identical float for their shared boundary.
    """
    return image.origin[axis] + idx * image.spacing[axis]


def band_width_voxels(image: SegmentedImage, delta: float) -> Vec3i:
    """Interface band width per axis, in voxels.

    The refinement rules reach ``2*delta`` around a point (R6's purge
    radius, R1/R2's circumball tests at the target density), so a
    shard must see at least that much image beyond its core for its
    core-owned points to match the unsharded run; one extra voxel
    covers the EDT's voxel-center discretisation.
    """
    return tuple(
        max(2, int(math.ceil(2.0 * delta / image.spacing[d])) + 1)
        for d in range(3)
    )


def resolve_delta(image: SegmentedImage, delta: Optional[float]) -> float:
    """The delta every shard and the stitch domain share (must match
    :class:`~repro.core.domain.RefineDomain`'s default resolution)."""
    return float(delta) if delta is not None else 2.0 * image.min_spacing


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def decompose(image: SegmentedImage, n_shards: int,
              delta: Optional[float] = None) -> ShardPlan:
    """Split the image into at most ``n_shards`` occupied blocks.

    Recursive bisection of the foreground bounding box: repeatedly
    split the block with the most foreground voxels along its longest
    physical axis, at the occupancy-weighted median plane (clamped so
    both sides keep a usable core).  Stops early when no block can be
    split further; the returned plan may hold fewer blocks than asked.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    d = resolve_delta(image, delta)
    band = band_width_voxels(image, d)
    mask = image.labels > 0
    fg = np.argwhere(mask)
    if fg.size == 0:
        raise ValueError("image has no foreground voxels")
    root_lo = tuple(int(x) for x in fg.min(axis=0))
    root_hi = tuple(int(x) + 1 for x in fg.max(axis=0))

    boxes: List[Tuple[Vec3i, Vec3i, int]] = [
        (root_lo, root_hi, int(mask.sum()))
    ]
    while len(boxes) < n_shards:
        split = _best_split(mask, boxes, image.spacing)
        if split is None:
            break
        i, axis, cut = split
        lo, hi, _ = boxes[i]
        a_hi = list(hi)
        a_hi[axis] = cut
        b_lo = list(lo)
        b_lo[axis] = cut
        a = (lo, tuple(a_hi))
        b = (tuple(b_lo), hi)
        boxes[i: i + 1] = [
            (bl, bh, _occupancy(mask, bl, bh)) for bl, bh in (a, b)
        ]

    shape = image.shape
    blocks: List[Block] = []
    for lo, hi, occ in sorted(b for b in boxes if b[2] > 0):
        crop_lo = tuple(max(0, lo[d] - band[d]) for d in range(3))
        crop_hi = tuple(min(shape[d], hi[d] + band[d]) for d in range(3))
        own_lo = tuple(
            _world(image, d, lo[d]) if lo[d] > root_lo[d] else -math.inf
            for d in range(3)
        )
        own_hi = tuple(
            _world(image, d, hi[d]) if hi[d] < root_hi[d] else math.inf
            for d in range(3)
        )
        blocks.append(Block(
            index=len(blocks), core_lo=lo, core_hi=hi,
            crop_lo=crop_lo, crop_hi=crop_hi,
            own_lo=own_lo, own_hi=own_hi, occupancy=occ,
        ))
    return ShardPlan(blocks=blocks, band_voxels=band, delta=d,
                     root_lo=root_lo, root_hi=root_hi)


def _occupancy(mask: np.ndarray, lo: Vec3i, hi: Vec3i) -> int:
    return int(mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].sum())


def _best_split(mask: np.ndarray, boxes, spacing
                ) -> Optional[Tuple[int, int, int]]:
    """``(box index, axis, cut plane)`` for the most occupied splittable
    box, or ``None`` when nothing can be split."""
    order = sorted(range(len(boxes)), key=lambda i: -boxes[i][2])
    for i in order:
        lo, hi, occ = boxes[i]
        if occ == 0:
            continue
        axes = sorted(
            (d for d in range(3) if hi[d] - lo[d] >= 2 * MIN_CORE_VOXELS),
            key=lambda d: -(hi[d] - lo[d]) * spacing[d],
        )
        for axis in axes:
            cut = _median_cut(mask, lo, hi, axis)
            if cut is not None:
                return (i, axis, cut)
    return None


def _median_cut(mask: np.ndarray, lo: Vec3i, hi: Vec3i,
                axis: int) -> Optional[int]:
    """Occupancy-median plane along ``axis``, snapped to the
    ``CUT_QUANTUM`` voxel grid and clamped to leave
    ``MIN_CORE_VOXELS`` on both sides.

    The snap trades at most a couple voxels of balance for plan
    stability: a small edit shifts the occupancy median by a fraction
    of a voxel, and without quantization that fraction rounds into a
    moved cut plane, which changes every descendant block's crop and
    defeats the incremental block cache."""
    sub = mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    counts = sub.sum(axis=tuple(d for d in range(3) if d != axis))
    total = int(counts.sum())
    if total == 0:
        return None
    cum = np.cumsum(counts)
    cut = int(np.searchsorted(cum, total / 2.0)) + 1
    snapped = (
        (lo[axis] + cut + CUT_QUANTUM // 2) // CUT_QUANTUM * CUT_QUANTUM
    )
    cut = int(snapped) - lo[axis]
    cut = min(max(cut, MIN_CORE_VOXELS), (hi[axis] - lo[axis])
              - MIN_CORE_VOXELS)
    if cut <= 0 or cut >= hi[axis] - lo[axis]:
        return None
    return lo[axis] + cut


# ---------------------------------------------------------------------------
# per-block meshing
# ---------------------------------------------------------------------------

def crop_image(image: SegmentedImage, block: Block) -> SegmentedImage:
    """The block's sub-image, origin shifted so world coords align."""
    lo, hi = block.crop_lo, block.crop_hi
    labels = np.ascontiguousarray(
        image.labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    )
    origin = tuple(_world(image, d, lo[d]) for d in range(3))
    return SegmentedImage(labels, spacing=image.spacing, origin=origin)


def block_request(request, plan: "ShardPlan", block: Block):
    """The request one block's refiner runs: ``request`` with the
    block's crop as its image and the plan's resolved ``delta``."""
    return replace(request, image=crop_image(request.image, block),
                   delta=plan.delta)


def _live_vertices(domain, own_lo: Optional[Sequence[float]] = None,
                   own_hi: Optional[Sequence[float]] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(points, kinds)`` of the domain's alive non-box vertices in
    insertion (timestamp) order — only those in the half-open ownership
    box ``[own_lo, own_hi)`` when one is given.  Vertex ids are recycled
    slots, so id order is not insertion order."""
    from repro.core.domain import VertexKind

    mesh = domain.tri.mesh
    n = len(mesh.points)
    coords = mesh.coords[:n]
    kinds = domain.kinds(n)
    keep = (kinds != VertexKind.BOX) & np.array(mesh.alive_vertex, bool)
    if own_lo is not None:
        keep &= _in_boxes(coords, [(own_lo, own_hi)])
    ids = np.flatnonzero(keep)
    ids = ids[np.argsort(np.array(mesh.timestamps)[ids], kind="stable")]
    return coords[ids], kinds[ids]


def refine_block(request, own_lo: Sequence[float], own_hi: Sequence[float]
                 ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Refine one block's request (:func:`block_request`) and export the
    points its core owns.

    Returns ``(arrays, stats)`` where ``arrays`` holds ``points``
    (float64 ``(k, 3)``, insertion order) and ``kinds`` (int8 ``(k,)``,
    :class:`~repro.core.domain.VertexKind` values).  Runs identically
    in-process and inside a worker process (the service's shard job
    kind calls straight into this).
    """
    from repro.core.domain import RefineDomain
    from repro.core.refiner import SequentialRefiner

    domain = RefineDomain(request.image, **request.domain_args())
    rstats = SequentialRefiner(
        domain, max_operations=request.max_operations
    ).refine()
    pts, kinds = _live_vertices(domain, own_lo, own_hi)
    stats = {
        "operations": rstats.n_operations,
        "insertions": rstats.n_insertions,
        "removals": rstats.n_removals,
        "tets": rstats.final_tets,
        "owned_points": len(pts),
        "refine_seconds": rstats.wall_time,
    }
    return {"points": pts, "kinds": kinds}, stats


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------

#: Version of the per-block export and stitch-delta artifact formats.
#: Bump to orphan every cached block / stitch artifact after a semantic
#: change to ``refine_block``, the export schema, or the stitch protocol.
#: 2: the surface oracle returns exact voxel-face crossings; seam-local
#: reuse matches ``removed`` points by exact bytes, so blocks and deltas
#: recorded under the sampled oracle (1) must not sit beside new ones.
#: 3: R1 is blocked only by a sample within delta of its own candidate
#: (the near-site shortcut is gone) and the stitch's R6 replay purges in
#: the domain's order, so a block or delta may hold other points.
#: 4: the quality bounds are constants and left the hashed parameters.
BLOCK_FORMAT_VERSION = 4


def _params_blob(request) -> bytes:
    return repr((
        BLOCK_FORMAT_VERSION, float(request.delta), request.max_operations,
    )).encode()


def block_content_key(request, block: Block) -> str:
    """Content address of one block's refined point set (``request``:
    the whole image, the plan's ``delta``).

    Hashes exactly what :func:`refine_block` sees: the band-dilated
    label crop (dtype, shape, bytes), its world placement (crop origin,
    spacing, ownership box) and the canonical refinement parameters.
    ``refine_block`` is deterministic in those inputs — across
    processes too (pure byte hashing, nothing derived from ``id()`` or
    randomized ``hash()``) — so equal keys imply bit-identical exports.
    """
    image = request.image
    lo, hi = block.crop_lo, block.crop_hi
    crop = image.labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    h = hashlib.blake2b(digest_size=20)
    h.update(_params_blob(request))
    h.update(str(crop.dtype).encode())
    h.update(repr(crop.shape).encode())
    h.update(repr(tuple(image.spacing)).encode())
    h.update(repr(
        tuple(_world(image, d, lo[d]) for d in range(3))
    ).encode())
    h.update(repr((block.own_lo, block.own_hi)).encode())
    h.update(np.ascontiguousarray(crop).tobytes())
    return h.hexdigest()


def plan_content_key(request, plan: ShardPlan) -> str:
    """Address of the stitch-delta artifact for one decomposition.

    Hashes the decomposition *geometry* (grid placement, band, block
    cores) plus the refinement parameters of ``request`` (its ``delta``
    the plan's) — image content deliberately excluded, so a perturbed
    image that decomposes into the same block layout finds the previous
    run's stitch delta to warm-start from.
    """
    image = request.image
    h = hashlib.blake2b(digest_size=20)
    h.update(_params_blob(request))
    h.update(repr((
        tuple(image.shape), tuple(image.spacing), tuple(image.origin)
    )).encode())
    h.update(repr(tuple(plan.band_voxels)).encode())
    for b in plan.blocks:
        h.update(repr((b.core_lo, b.core_hi)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------

@dataclass
class IncrementalStitch:
    """Warm-start context one :func:`stitch` call consumes and refills.

    ``prev`` is the previous run's stitch delta for the same plan
    geometry: the Steiner points the stitch *added* over the raw block
    exports (``points``/``kinds``, insertion order) and the
    block-exported points it *removed* (``removed``).  ``changed``
    lists the block indices whose content key differs from the record
    the delta was computed under; it is read only next to a ``prev`` (a
    stitch without one treats every block as changed).  After the
    stitch, ``export`` holds the refreshed delta and ``mode`` says how
    it ended: ``"seam_local"``, or ``"seam_local+repair"`` when the
    acceptance screen found offenders and the repair passes ran.
    """

    block_keys: List[str]
    prev: Optional[Dict[str, np.ndarray]] = None
    changed: List[int] = field(default_factory=list)
    mode: str = "seam_local"
    export: Optional[Dict[str, np.ndarray]] = None


def _in_boxes(pts: np.ndarray, boxes) -> np.ndarray:
    """Row mask: point inside any of the half-open world ``boxes``."""
    mask = np.zeros(len(pts), dtype=bool)
    for lo, hi in boxes:
        m = np.ones(len(pts), dtype=bool)
        for d in range(3):
            m &= (pts[:, d] >= lo[d]) & (pts[:, d] < hi[d])
        mask |= m
    return mask


def _changed_boxes(image: SegmentedImage, plan: ShardPlan,
                   changed: Sequence[int]):
    """World boxes covering the refinement influence of changed blocks:
    the ownership box clipped to the image (a changed block only
    exports points it owns), dilated by the ``2*delta`` rule radius.
    Everything a changed export can directly affect — including the
    seam bands it shares with its neighbours — lies inside these
    boxes; longer-range cascades are caught by the global acceptance
    screen."""
    margin = 2.0 * plan.delta
    boxes = []
    for i in changed:
        b = plan.blocks[i]
        boxes.append((
            tuple(max(b.own_lo[d], _world(image, d, b.crop_lo[d])) - margin
                  for d in range(3)),
            tuple(min(b.own_hi[d], _world(image, d, b.crop_hi[d])) + margin
                  for d in range(3)),
        ))
    return boxes


def _changed_holes(image: SegmentedImage, plan: ShardPlan,
                   changed: Sequence[int]):
    """Eroded ownership boxes of the changed blocks — their deep
    interior.  The fresh block export is already refined to completion
    there (the crop band makes the in-block EDT exact throughout the
    core), and no foreign point reaches it: neighbouring owners stop at
    the ownership boundary and reused Steiner points are dropped
    throughout the influence box.  Subtracting these holes from the
    seed/replay region leaves the shell within ``2*delta`` of the
    ownership boundary, where stitching can actually create poor or
    crowded elements; the global acceptance screen still guards the
    whole mesh."""
    margin = 2.0 * plan.delta
    holes = []
    for i in changed:
        b = plan.blocks[i]
        lo = tuple(b.own_lo[d] + margin for d in range(3))
        hi = tuple(b.own_hi[d] - margin for d in range(3))
        if all(lo[d] < hi[d] for d in range(3)):
            holes.append((lo, hi))
    return holes


def _in_shell(pts: np.ndarray, boxes, holes) -> np.ndarray:
    """Row mask: point inside the seed region, ``boxes`` minus ``holes``."""
    return _in_boxes(pts, boxes) & ~_in_boxes(pts, holes)


def _rows_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row mask: which rows of the ``(k, 3)`` points ``a`` equal some
    row of ``b`` byte for byte.  Exports are bit-deterministic and
    vertex ids are recycled, so coordinate bytes are the identity that
    holds across runs; ``-0.0`` and ``0.0`` are different rows."""
    def rows(x):
        x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, 3)
        return x.view(np.dtype((np.void, 3 * 8))).ravel()
    return np.isin(rows(a), rows(b))


def _radius_edge_offenders(domain) -> List[int]:
    """Live tets violating the radius-edge bound with an inside-object
    circumcenter — the post-stitch acceptance screen.  The ratio pass
    is vectorized; the scalar inside-object test runs only on the
    flagged tail."""
    from repro.core.domain import RADIUS_EDGE_BOUND
    from repro.geometry.batch import quality_screen

    mesh = domain.tri.mesh
    live = mesh.live_tet_ids()
    if len(live) == 0:
        return []
    ratios, _ = quality_screen(mesh.coords, mesh.tet_verts_arr, live)
    flagged = live[(ratios > RADIUS_EDGE_BOUND) | ~np.isfinite(ratios)]
    poor = []
    for t in flagged.tolist():
        c, _ = domain.circumball(t)
        if domain.point_inside_object(c):
            poor.append(t)
    return poor


def _export_delta(domain, block_pts: np.ndarray) -> Dict[str, np.ndarray]:
    """The stitch's net effect over the raw block exports.

    ``points``/``kinds`` are the alive non-box vertices the stitch
    added beyond the block exports (insertion order); ``removed`` the
    block-exported points no longer alive.  Reloading
    ``blocks − removed + points`` reproduces this mesh's vertex set
    exactly, which is what lets the next request skip re-refining
    unchanged seams.  Matching is by coordinate bytes — exports are
    bit-deterministic, and vertex ids are recycled so they cannot
    serve as identities across runs.
    """
    pts, kinds = _live_vertices(domain)
    block_pts = np.asarray(block_pts, dtype=np.float64).reshape(-1, 3)
    extra = ~_rows_in(pts, block_pts)
    return {"points": pts[extra], "kinds": kinds[extra],
            "removed": block_pts[~_rows_in(block_pts, pts)]}


def _load_set(block_pts: np.ndarray, block_kinds: np.ndarray,
              prev: Optional[Dict[str, np.ndarray]], boxes):
    """The points one stitch bulk-loads: ``(points, kinds, reused,
    dropped)``.

    Without a previous delta that is the block exports as they are.
    With one, the delta is replayed outside the changed ``boxes``: its
    Steiner points there are appended (``reused`` of them) and the block
    points its purge removed there are left out (``dropped``), so the
    unchanged seams load already stitched.
    """
    if prev is None:
        return block_pts, block_kinds, 0, 0
    prev_pts = np.asarray(prev["points"], dtype=np.float64).reshape(-1, 3)
    keep = ~_in_boxes(prev_pts, boxes)
    extra_pts = prev_pts[keep]
    extra_kinds = np.asarray(prev["kinds"], dtype=np.int8).reshape(-1)[keep]
    removed = np.asarray(prev["removed"], dtype=np.float64).reshape(-1, 3)
    kept = ~_rows_in(block_pts, removed[~_in_boxes(removed, boxes)])
    return (np.concatenate([block_pts[kept], extra_pts]),
            np.concatenate([block_kinds[kept], extra_kinds]),
            len(extra_pts), int((~kept).sum()))


def _bulk_load(domain, load_pts: np.ndarray, load_kinds: np.ndarray):
    """One batched ``bw_insert_many`` sweep, in load-set order; returns
    ``(inserted, duplicates, iso_loaded)`` with ``iso_loaded`` the
    ``(vertex, point)`` pairs of the isosurface samples."""
    from repro.core.domain import VertexKind

    points = list(map(tuple, load_pts.tolist()))
    vids = domain.tri.insert_many(points)
    iso_loaded: List[Tuple[int, Tuple[float, float, float]]] = []
    for vid, kind, p in zip(vids, load_kinds.tolist(), points):
        if vid is not None:
            domain.register_vertex(vid, p, kind)
            if kind == VertexKind.ISOSURFACE:
                iso_loaded.append((vid, p))
    duplicates = vids.count(None)
    domain.n_insertions += len(vids) - duplicates
    return len(vids) - duplicates, duplicates, iso_loaded


def _seed_filter(tri, boxes, holes):
    """``seed_filter`` for the refiner: live tets with a vertex in the
    seed shell.  The scalar rule checks over a complete mesh are the
    dominant cost of seeding, and outside the shell every tet was
    already judged — by its block's refiner or by the previous stitch."""
    def seed_filter(live: np.ndarray) -> np.ndarray:
        mesh = tri.mesh
        pts = mesh.coords[mesh.tet_verts_arr[live].ravel()]
        return _in_shell(pts, boxes, holes).reshape(-1, 4).any(axis=1)
    return seed_filter


def _retry_passes(domain, rstats, max_operations: Optional[int],
                  seed_filter, skipped: int) -> int:
    """Fresh refiner passes while the last one left skips behind.

    The bulk load makes transiently degenerate cavities far likelier
    than a from-scratch run, and the refiner drops (counts as skipped) a
    tet whose insertion raises mid-pass even though the rule applies
    again once the neighbourhood changes.  A pass without skips judged
    every tet it saw and is at its fixed point, so nothing follows it;
    a pass that changed nothing ends the retries too.  Returns the
    number of passes that changed the mesh.
    """
    from repro.core.refiner import SequentialRefiner

    rounds = 0
    while skipped and rounds < _MAX_QUALITY_ROUNDS:
        before = domain.n_insertions + domain.n_removals
        skip_before = domain.n_skipped
        extra = SequentialRefiner(
            domain, max_operations=max_operations, seed_filter=seed_filter
        ).refine()
        rstats.n_operations += extra.n_operations
        skipped = domain.n_skipped - skip_before
        if domain.n_insertions + domain.n_removals == before:
            break
        rounds += 1
    return rounds


def stitch(request, plan: ShardPlan,
           shard_points: List[Dict[str, np.ndarray]], *, obs=None,
           inc: Optional[IncrementalStitch] = None):
    """Merge shard point clouds into one refined global mesh.

    ``request`` carries the whole image and the plan's resolved
    ``delta``; ``shard_points[i]`` is block ``i``'s ``{"points",
    "kinds"}`` export.  Returns ``(MeshingResult, stitch_stats)``.

    Every stitch is seam-seeded.  The block exports are bulk-loaded —
    together with the previous delta's Steiner points outside the
    changed blocks' influence boxes, when ``inc`` carries one — and the
    blocks' interiors are kept as their own refiners left them: R6
    replay and refiner seeding are restricted to the influence boxes
    minus the blocks' deep interiors, the ``2*delta`` shell at the
    ownership boundaries.  A cold stitch is the case where every block
    is changed and there is no delta to reuse.  A global vectorized
    radius-edge screen then guards the result; any inside-object
    violation triggers unrestricted repair passes.
    """
    from repro.core import MeshingResult, extract_mesh
    from repro.core.domain import RefineDomain
    from repro.core.refiner import SequentialRefiner

    t0 = time.perf_counter()
    image, max_operations = request.image, request.max_operations
    domain = RefineDomain(image, **request.domain_args())

    block_pts = np.concatenate([
        np.asarray(out["points"], dtype=np.float64).reshape(-1, 3)
        for out in shard_points
    ]) if shard_points else np.zeros((0, 3), dtype=np.float64)
    block_kinds = np.concatenate([
        np.asarray(out["kinds"], dtype=np.int8).reshape(-1)
        for out in shard_points
    ]) if shard_points else np.zeros(0, dtype=np.int8)
    prev = inc.prev if inc is not None else None
    changed = inc.changed if prev is not None else range(plan.n_blocks)
    boxes = _changed_boxes(image, plan, changed)
    holes = _changed_holes(image, plan, changed)
    load_pts, load_kinds, reused, dropped = _load_set(
        block_pts, block_kinds, prev, boxes)

    inserted, duplicates, iso_loaded = _bulk_load(domain, load_pts,
                                                  load_kinds)
    load_seconds = time.perf_counter() - t0

    # -- interface-band R6 replay: bw_remove on crowded circumcenters --
    # Each shard applied R6 only against its own isosurface samples; a
    # circumcenter owned by one block can sit within 2*delta of an
    # isosurface sample owned by its neighbour.  Only the shell needs
    # the replay: reused Steiner points already survived the previous
    # purge, and the block points that purge removed were dropped
    # through the delta's removed set.
    t1 = time.perf_counter()
    removed = _replay_r6_bands(domain, plan, image, iso_loaded, boxes, holes)
    r6_seconds = time.perf_counter() - t1

    # -- re-refine the shell until every rule passes there -------------
    seed_filter = _seed_filter(domain.tri, boxes, holes)
    t2 = time.perf_counter()
    skip_snap = domain.n_skipped
    refiner = SequentialRefiner(domain, max_operations=max_operations,
                                obs=obs, seed_filter=seed_filter)
    with (obs.tracer.span("shard.stitch.refine") if obs is not None
          else contextlib.nullcontext()):
        rstats = refiner.refine()
    quality_rounds = _retry_passes(domain, rstats, max_operations,
                                   seed_filter, domain.n_skipped - skip_snap)

    # -- acceptance screen + repair ------------------------------------
    # Outside the shell the verdicts are the blocks' own (or, for reused
    # seams, the previous image's); assert the radius-edge bound
    # globally and run unrestricted passes if anything slipped through.
    mode = "seam_local"
    offenders = len(_radius_edge_offenders(domain))
    if offenders:
        mode = "seam_local+repair"
        # skipped=1: the first unrestricted pass is owed to the screen.
        quality_rounds += _retry_passes(domain, rstats, max_operations,
                                        None, skipped=1)
    rstats.final_tets = domain.tri.n_tets
    rstats.final_vertices = domain.tri.n_vertices
    rstats.n_insertions = domain.n_insertions
    rstats.n_removals = domain.n_removals
    rstats.n_skipped = domain.n_skipped
    refine_seconds = time.perf_counter() - t2

    if inc is not None:
        inc.mode = mode
        inc.export = _export_delta(domain, block_pts)

    mesh = extract_mesh(domain)
    stitch_stats = {
        "points_loaded": inserted,
        "duplicates": duplicates,
        "band_removed": removed,
        "refine_operations": rstats.n_operations,
        "quality_rounds": quality_rounds,
        "mode": mode,
        "changed_blocks": len(changed),
        "reused_points": reused,
        "dropped_points": dropped,
        "screen_offenders": offenders,
        "load_seconds": load_seconds,
        "r6_seconds": r6_seconds,
        "refine_seconds": refine_seconds,
        "seconds": time.perf_counter() - t0,
    }
    return MeshingResult(mesh=mesh, stats=rstats, domain=domain), \
        stitch_stats


def _replay_r6_bands(domain, plan: ShardPlan, image: SegmentedImage,
                     iso_loaded, boxes, holes) -> int:
    """R6 for seam-band isosurface vertices; returns removal count.

    ``boxes`` restricts the replay to isosurface vertices inside the
    changed blocks' influence boxes; ``holes`` further excludes their
    deep interior (see :func:`_changed_holes`).
    """
    from repro.core.domain import OperationResult

    planes = plan.seam_planes(image)
    if not planes or not iso_loaded:
        return 0
    radius = 2.0 * plan.delta
    pts = np.array([p for _, p in iso_loaded], dtype=np.float64)
    near = np.zeros(len(iso_loaded), dtype=bool)
    for axis, w in planes:
        near |= np.abs(pts[:, axis] - w) <= radius
    near &= _in_shell(pts, boxes, holes)
    purged = OperationResult(rule="R6")
    alive = domain.tri.mesh.alive_vertex
    for (vid, p), hit in zip(iso_loaded, near.tolist()):
        if hit and alive[vid]:
            domain.apply_r6(p, vid, purged)
    return len(purged.removed_vertices)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

#: ``runner(plan, indices) -> outs`` for the requested block indices (in
#: order), each ``{"arrays": {"points", "kinds"}, "stats": {...}}``.
ShardRunner = Callable[[ShardPlan, Sequence[int]], List[Dict[str, Any]]]

#: ``hook(event, block, info)``: what a runner reports per block —
#: ``"start"`` and ``"done"`` from every runner, ``"retry"`` and
#: ``"fail"`` from the pool runner (:mod:`repro.service.shards`).
ShardHook = Callable[[str, Block, Dict[str, Any]], None]


def in_process_runner(request, hook: Optional[ShardHook] = None
                      ) -> ShardRunner:
    """Mesh the blocks one after another in this process (the default
    runner of :func:`mesh_sharded`)."""
    def run(plan: ShardPlan, indices: Sequence[int]):
        outs = []
        for i in indices:
            block = plan.blocks[i]
            if hook is not None:
                hook("start", block, {"attempt": 1})
            t0 = time.perf_counter()
            arrays, stats = refine_block(
                block_request(request, plan, block), block.own_lo,
                block.own_hi)
            if hook is not None:
                hook("done", block, {
                    "seconds": time.perf_counter() - t0, "stats": stats,
                })
            outs.append({"arrays": arrays, "stats": stats})
        return outs
    return run


def publish_counters(registry, stats: Dict[str, Any]) -> None:
    """``shard.stitch.*`` and ``shard.cache.*`` of one sharded result,
    from its ``stats``, into ``registry`` (the request's or the
    service's)."""
    stitch = stats["stitch"]
    registry.counter("shard.stitch.points").inc(stitch["points_loaded"])
    registry.counter("shard.stitch.duplicates").inc(stitch["duplicates"])
    registry.counter("shard.stitch.removed").inc(stitch["band_removed"])
    registry.counter("shard.stitch.refine_operations").inc(
        stitch["refine_operations"])
    registry.histogram("shard.stitch.seconds").observe(stitch["seconds"])
    bc = stats.get("block_cache")
    if bc is None:
        return
    registry.counter("shard.cache.block_hits").inc(bc["hits"])
    registry.counter("shard.cache.block_misses").inc(bc["misses"])
    if bc["stitch_hit"]:
        registry.counter("shard.cache.stitch_hits").inc()
        registry.counter("shard.cache.incremental_stitches").inc()
    else:
        registry.counter("shard.cache.stitch_misses").inc()


def mesh_sharded(request, runner: Optional[ShardRunner] = None,
                 block_cache=None, obs=None):
    """Decompose, mesh every block, stitch; returns a ``MeshResult``.

    The one sharding coordinator.  Raises :class:`ShardingUnavailable`
    when the image has no foreground or decomposes into fewer than two
    occupied blocks; callers fall back to the unsharded mesher.
    ``runner`` maps (plan, block indices) to per-block point exports;
    ``None`` is :func:`in_process_runner`.

    With a ``block_cache`` (an :class:`repro.service.cache
    .ArtifactCache`), block exports are content-addressed by
    :func:`block_content_key`: only blocks whose crop bytes changed
    reach the runner, the rest load from the cache, and the stitch
    warm-starts from the previous run's delta artifact — see
    :func:`stitch`.  Without one every block is meshed and the stitch
    is cold.
    """
    from repro.api import MeshResult
    from repro.observability import Observability

    if obs is None:
        obs = Observability.from_config(request.observability)
    t0 = time.perf_counter()
    try:
        with obs.tracer.span("shard.decompose"):
            plan = decompose(request.image, request.resolved_shards(),
                             delta=request.delta)
    except ValueError as exc:  # no foreground
        raise ShardingUnavailable(str(exc)) from exc
    if plan.n_blocks < 2:
        raise ShardingUnavailable(
            f"decomposition produced {plan.n_blocks} occupied block(s)"
        )
    t_dec = time.perf_counter() - t0
    # From here on the request carries the plan's resolved delta, which
    # every block, content key and the stitch domain share.
    request = replace(request, delta=plan.delta)

    keys: Optional[List[str]] = None
    outs: List[Optional[dict]] = [None] * plan.n_blocks
    hits = 0
    memory_hits = 0
    if block_cache is not None:
        keys = [block_content_key(request, b) for b in plan.blocks]
        for i, key in enumerate(keys):
            arrays, tier = block_cache.get_block_tiered(key)
            if arrays is not None:
                hits += 1
                memory_hits += 1 if tier == "memory" else 0
                outs[i] = {"arrays": arrays,
                           "stats": {"cached": tier, "content_key": key}}
    miss = [i for i, o in enumerate(outs) if o is None]

    if runner is None:
        runner = in_process_runner(request)
    t1 = time.perf_counter()
    for i, out in zip(miss, runner(plan, miss)):
        outs[i] = out
        if block_cache is not None:
            out["stats"]["content_key"] = keys[i]
            block_cache.put_block(keys[i], out["arrays"])
    shard_seconds = time.perf_counter() - t1

    inc: Optional[IncrementalStitch] = None
    pkey: Optional[str] = None
    if block_cache is not None:
        pkey = plan_content_key(request, plan)
        inc = IncrementalStitch(block_keys=keys)
        prev = block_cache.get_stitch(pkey)
        prev_keys = ([str(k) for k in prev["block_keys"]]
                     if prev is not None else None)
        if prev_keys is not None and len(prev_keys) == plan.n_blocks:
            inc.prev = prev
            inc.changed = [
                i for i in range(plan.n_blocks) if prev_keys[i] != keys[i]
            ]

    result, stitch_stats = stitch(
        request, plan, [o["arrays"] for o in outs], obs=obs, inc=inc,
    )
    if inc is not None:
        export = dict(inc.export)
        export["block_keys"] = np.asarray(keys)
        block_cache.put_stitch(pkey, export)

    wall = time.perf_counter() - t0
    stats: Dict[str, Any] = {
        "operations": result.stats.n_operations,
        "insertions": (result.stats.n_insertions
                       + stitch_stats["points_loaded"]),
        "removals": result.stats.n_removals,
        "skipped": result.stats.n_skipped,
        "rule_counts": dict(result.stats.rule_counts),
        "elements_per_second": (
            result.mesh.n_tets / wall if wall > 0 else 0.0
        ),
        "shards": plan.n_blocks,
        "shard_plan": plan.to_meta(),
        "shard_stats": [o["stats"] for o in outs],
        "stitch": stitch_stats,
    }
    if inc is not None:
        stats["block_cache"] = {
            "hits": hits,
            "memory_hits": memory_hits,
            "misses": len(miss),
            "stitch_mode": stitch_stats["mode"],
            # the stitch consumed a previous delta: an incremental one
            "stitch_hit": inc.prev is not None,
        }
    publish_counters(obs.registry, stats)
    return MeshResult(
        mesh=result.mesh,
        mesher=request.resolved_mesher(),
        stats=stats,
        metrics=obs.snapshot(),
        timings={
            "wall_seconds": wall,
            "decompose_seconds": t_dec,
            "shard_seconds": shard_seconds,
            "stitch_seconds": stitch_stats["seconds"],
        },
        extras={"obs": obs, "domain": result.domain},
    )


__all__ = [
    "Block",
    "IncrementalStitch",
    "ShardHook",
    "ShardPlan",
    "ShardRunner",
    "ShardingUnavailable",
    "band_width_voxels",
    "block_content_key",
    "block_request",
    "crop_image",
    "decompose",
    "in_process_runner",
    "mesh_sharded",
    "plan_content_key",
    "publish_counters",
    "refine_block",
    "resolve_delta",
    "stitch",
]
