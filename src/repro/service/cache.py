"""Content-addressed artifact cache: disk store with an in-memory LRU.

Three artifact kinds live here, addressed by the keys of
:mod:`repro.service.keys` and :mod:`repro.delaunay.shard`:

* **meshes** — a finished :class:`~repro.api.MeshResult`, stored as the
  JSON document of ``MeshResult.to_dict`` (exact round-trip of the
  float64 coordinates and all topology arrays, so a cached mesh is
  topology-identical to the run that produced it).  The stored file
  *is* the wire body: :func:`mesh_json_bytes` is the only producer of
  mesh JSON bytes, and :meth:`ArtifactCache.mesh_wire_bytes` hands the
  HTTP gateway the file itself instead of serialising the mesh again;
* **block exports** and **stitch deltas** — the shard layer's dicts of
  arrays, stored as compressed ``.npz``.

Reads check the in-memory LRU first, then disk; disk hits are promoted
into the LRU.  Writes go to a temp file in the same directory and are
published with ``os.replace``, so a crash mid-write can never leave a
half-written artifact under a valid key.  *Any* failure to load an
artifact — truncation, bad JSON, a bad zip member — is treated as a
cache miss: the corrupt file is counted, unlinked best-effort, and the
caller recomputes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api import MeshResult


def mesh_json_bytes(result: MeshResult) -> bytes:
    """The one producer of mesh JSON bytes: the disk artifact and the
    ``"result"`` member of an HTTP response are both exactly this."""
    return json.dumps(result.to_dict()).encode("utf-8")


def _stamp(raw: bytes) -> Tuple[int, bytes]:
    """Length + digest that re-identify an artifact's bytes later."""
    return len(raw), hashlib.blake2b(raw, digest_size=16).digest()


class ArtifactCache:
    """Disk + LRU store for meshes, block exports and stitch deltas.

    ``root=None`` keeps everything in memory (tests, short-lived
    services); with a directory, artifacts persist across processes.
    ``memory_entries`` bounds the LRU front (per cache, not per kind);
    ``max_bytes`` additionally bounds it by the summed array payload of
    the held artifacts — whichever bound is crossed first evicts from
    the cold end.  Entries **pinned** (by the service, around in-flight
    jobs) are never evicted while their pin count is positive: evicting
    a mesh the claiming thread is about to hand to a waiter would force
    an immediate disk round-trip or, with no disk root, a recompute.

    Cached objects are shared: two hits on the same key return the same
    ``MeshResult`` (or array dict) instance.  Callers must treat
    cached artifacts as immutable.
    """

    def __init__(self, root: Optional[str] = None,
                 memory_entries: int = 64,
                 max_bytes: Optional[int] = None):
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        self.root = Path(root) if root is not None else None
        self.memory_entries = memory_entries
        self.max_bytes = max_bytes
        self._mem: "OrderedDict[str, Any]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        #: slot -> stamp of the disk file holding exactly the resident
        #: object's JSON (meshes under a disk root only); dropped with
        #: the slot, so it costs the memory tier no payload bytes.
        self._stamps: Dict[str, Tuple[int, bytes]] = {}
        self._pins: Dict[str, int] = {}
        self._bytes_held = 0
        self._lock = threading.Lock()
        self.stats = {
            "hits": 0, "misses": 0, "memory_hits": 0,
            "corrupt": 0, "writes": 0, "evictions": 0,
            # Shard-level artifacts get their own ledgers so the mesh
            # hit rate (service.cache.store.*) stays a request-level
            # signal — one sharded request touches many block slots.
            "block_hits": 0, "block_misses": 0,
            "stitch_hits": 0, "stitch_misses": 0,
        }
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    # -- generic plumbing ----------------------------------------------
    def _bump(self, field: str, n: int = 1) -> None:
        with self._lock:
            self.stats[field] += n

    def _mem_get(self, slot: str) -> Optional[Any]:
        with self._lock:
            hit = self._mem.get(slot)
            if hit is not None:
                self._mem.move_to_end(slot)
            return hit

    @staticmethod
    def _sizeof(value: Any) -> int:
        """Array payload of an artifact, in bytes (metadata ignored)."""
        if isinstance(value, dict):  # block / stitch array bundles
            return max(sum(int(getattr(a, "nbytes", 0))
                           for a in value.values()), 1024)
        total = 0
        mesh = getattr(value, "mesh", None)
        for holder in (value, mesh):
            if holder is None:
                continue
            for field in ("vertices", "tets", "tet_labels",
                          "boundary_faces", "boundary_labels"):
                arr = getattr(holder, field, None)
                nbytes = getattr(arr, "nbytes", None)
                if nbytes is not None:
                    total += int(nbytes)
        return total if total > 0 else 1024  # opaque artifact: nominal

    def _drop_slot(self, slot: str) -> None:
        """Lock held: remove ``slot`` and settle the byte ledger."""
        self._mem.pop(slot, None)
        self._stamps.pop(slot, None)
        self._bytes_held -= self._sizes.pop(slot, 0)
        self.stats["evictions"] += 1

    def _evict_over_budget(self) -> None:
        """Lock held: pop cold unpinned entries until within bounds."""
        def over() -> bool:
            if len(self._mem) > self.memory_entries:
                return True
            return (self.max_bytes is not None
                    and self._bytes_held > self.max_bytes)

        while over():
            victim = next(
                (s for s in self._mem if self._pins.get(s, 0) <= 0),
                None,
            )
            if victim is None:  # everything pinned: over budget stands
                return
            self._drop_slot(victim)

    def _mem_put(self, slot: str, value: Any,
                 stamp: Optional[Tuple[int, bytes]] = None) -> None:
        with self._lock:
            if slot in self._mem:
                self._bytes_held -= self._sizes.pop(slot, 0)
            self._mem[slot] = value
            if stamp is None:
                self._stamps.pop(slot, None)
            else:
                self._stamps[slot] = stamp
            self._mem.move_to_end(slot)
            size = self._sizeof(value)
            self._sizes[slot] = size
            self._bytes_held += size
            self._evict_over_budget()

    # -- pinning -------------------------------------------------------
    def pin(self, slot: str) -> None:
        """Protect ``slot`` from eviction until its last :meth:`unpin`.

        Pins are counted, survive the entry itself (pinning before the
        artifact is stored is fine — the put then lands pre-pinned),
        and never block a re-``put`` of the same slot.
        """
        with self._lock:
            self._pins[slot] = self._pins.get(slot, 0) + 1

    def unpin(self, slot: str) -> None:
        with self._lock:
            n = self._pins.get(slot, 0) - 1
            if n <= 0:
                self._pins.pop(slot, None)
            else:
                self._pins[slot] = n
            self._evict_over_budget()

    def pin_mesh(self, key: str) -> None:
        self.pin(f"mesh:{key}")

    def unpin_mesh(self, key: str) -> None:
        self.unpin(f"mesh:{key}")

    def _path(self, kind: str, key: str, ext: str) -> Optional[Path]:
        if self.root is None:
            return None
        # Two-level fan-out keeps directories small at fleet scale.
        return self.root / kind / key[:2] / f"{key}{ext}"

    def _publish(self, path: Path, write) -> None:
        """Atomically materialise an artifact at ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._bump("writes")

    def _discard_corrupt(self, path: Path) -> None:
        self._bump("corrupt")
        try:
            path.unlink()
        except OSError:
            pass

    # -- meshes --------------------------------------------------------
    def get_mesh(self, key: str) -> Optional[MeshResult]:
        return self.get_mesh_tiered(key)[0]

    def get_mesh_tiered(
            self, key: str) -> Tuple[Optional[MeshResult], Optional[str]]:
        """``(result, tier)`` where tier is ``"memory"``, ``"disk"``,
        or ``None`` on a miss — the SLO layer needs to know which store
        answered, not just that one did."""
        slot = f"mesh:{key}"
        hit = self._mem_get(slot)
        if hit is not None:
            self._bump("hits")
            self._bump("memory_hits")
            return hit, "memory"
        path = self._path("mesh", key, ".json")
        if path is not None and path.exists():
            try:
                raw = path.read_bytes()
                result = MeshResult.from_dict(json.loads(raw))
            except Exception:
                self._discard_corrupt(path)
            else:
                self._bump("hits")
                self._mem_put(slot, result, _stamp(raw))
                return result, "disk"
        self._bump("misses")
        return None, None

    def put_mesh(self, key: str, result: MeshResult) -> None:
        slot = f"mesh:{key}"
        path = self._path("mesh", key, ".json")
        if path is None:
            self._mem_put(slot, result)
            return
        doc = mesh_json_bytes(result)
        # File first: once the stamp is visible the file it names exists.
        self._publish(path, lambda fh: fh.write(doc))
        self._mem_put(slot, result, _stamp(doc))

    def mesh_wire_bytes(self, key: str, result: MeshResult) -> bytes:
        """``mesh_json_bytes(result)`` without the serialisation, when
        the disk artifact can stand in for it.

        It can when ``result`` is the very object resident under
        ``key`` and the file still matches the stamp taken when this
        cache wrote or loaded it.  A file that does not (truncated,
        overwritten, gone) is counted and unlinked as corrupt and the
        mesh is serialised instead, as it is with no disk root or for a
        result the memory tier no longer holds.
        """
        slot = f"mesh:{key}"
        with self._lock:
            stamp = (self._stamps.get(slot)
                     if self._mem.get(slot) is result else None)
        if stamp is not None:
            path = self._path("mesh", key, ".json")
            try:
                raw = path.read_bytes()
            except OSError:
                raw = b""
            if _stamp(raw) == stamp:
                return raw
            with self._lock:
                # Unless a concurrent put has just replaced the file.
                stale = self._stamps.get(slot) == stamp
                if stale:
                    del self._stamps[slot]
            if stale:
                self._discard_corrupt(path)
        return mesh_json_bytes(result)

    # -- shard artifacts: block exports + stitch deltas ----------------
    # Both are plain dicts of ndarrays, stored as compressed npz.  A
    # block export ({"points", "kinds"}) is addressed by
    # ``repro.delaunay.shard.block_content_key``; a stitch delta
    # ({"points", "kinds", "removed", "block_keys"}) by
    # ``plan_content_key``.  No pickling — every member is a numeric or
    # unicode array — so a corrupt or adversarial file can at worst
    # fail to parse (counted, unlinked, miss).

    def _get_arrays(self, kind: str, key: str, *, hit_field: str,
                    miss_field: str, count: bool = True
                    ) -> Tuple[Optional[Dict[str, np.ndarray]],
                               Optional[str]]:
        slot = f"{kind}:{key}"
        hit = self._mem_get(slot)
        if hit is not None:
            if count:
                self._bump(hit_field)
            return hit, "memory"
        path = self._path(kind, key, ".npz")
        if path is not None and path.exists():
            try:
                with np.load(path) as doc:
                    arrays = {name: doc[name] for name in doc.files}
            except Exception:
                self._discard_corrupt(path)
            else:
                if count:
                    self._bump(hit_field)
                self._mem_put(slot, arrays)
                return arrays, "disk"
        if count:
            self._bump(miss_field)
        return None, None

    def _put_arrays(self, kind: str, key: str,
                    arrays: Dict[str, np.ndarray]) -> None:
        arrays = {k: np.asarray(v) for k, v in arrays.items()}
        self._mem_put(f"{kind}:{key}", arrays)
        path = self._path(kind, key, ".npz")
        if path is not None:
            self._publish(
                path, lambda fh: np.savez_compressed(fh, **arrays)
            )

    def get_block(self, key: str,
                  count: bool = True) -> Optional[Dict[str, np.ndarray]]:
        """One block's refined point export.  ``count=False`` reads
        without touching the hit/miss ledgers (bookkeeping lookups,
        e.g. fetching the *previous* export to diff against, must not
        masquerade as workload hits)."""
        return self._get_arrays("block", key, hit_field="block_hits",
                                miss_field="block_misses",
                                count=count)[0]

    def get_block_tiered(
            self, key: str) -> Tuple[Optional[Dict[str, np.ndarray]],
                                     Optional[str]]:
        """``(arrays, tier)`` for one block's refined point export."""
        return self._get_arrays("block", key, hit_field="block_hits",
                                miss_field="block_misses")

    def put_block(self, key: str,
                  arrays: Dict[str, np.ndarray]) -> None:
        self._put_arrays("block", key, arrays)

    def get_stitch(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        arrays, _ = self._get_arrays(
            "stitch", key, hit_field="stitch_hits",
            miss_field="stitch_misses",
        )
        return arrays

    def put_stitch(self, key: str,
                   arrays: Dict[str, np.ndarray]) -> None:
        """Store a stitch delta; re-puts of the same plan key are the
        normal case (every sharded run refreshes its plan's delta) and
        land atomically via the same ``os.replace`` publish."""
        self._put_arrays("stitch", key, arrays)

    # -- reporting -----------------------------------------------------
    @property
    def bytes_held(self) -> int:
        with self._lock:
            return self._bytes_held

    def stats_snapshot(self) -> Dict[str, int]:
        with self._lock:
            snap = dict(self.stats)
            snap["bytes_held"] = self._bytes_held
            snap["entries"] = len(self._mem)
            snap["pinned"] = sum(
                1 for s, n in self._pins.items() if n > 0
            )
            return snap
