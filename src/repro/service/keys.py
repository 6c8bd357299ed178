"""Content-addressed cache keys for images and mesh requests.

Two keys:

* the **image key** hashes the voxel content (label bytes, shape,
  dtype, spacing, origin) — it names an image on the wire (a client
  sends ``image_key`` alone once the gateway holds the content) and is
  one half of the request key;
* the **request key** hashes the image key together with the request's
  canonical parameter form (:meth:`repro.api.MeshRequest
  .canonical_params`) and a format version — it addresses finished
  meshes.

Both are plain hex digests, safe as file names.  Requests that cannot
be canonicalized (live ``size_function`` callables) have no request
key and bypass the mesh cache entirely.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Tuple

from repro.api import MeshRequest
from repro.imaging.image import SegmentedImage

#: Bump to invalidate every cached mesh after a format/semantic change.
#: v2: ``shards`` joined the canonical params (domain-sharded meshing).
#: v3: ``incremental`` joined them, and sharded results carry
#: ``block_cache`` stats (per-block caching, seam-local stitching).
#: v4: the refiner judges a generation at a time behind the screen and
#: R1 lost its near-site shortcut — ``operations`` counts tets judged,
#: and meshes move where delta exceeds the voxel diagonal.
CACHE_FORMAT_VERSION = 4


def image_content_key(image: SegmentedImage) -> str:
    """Hex digest addressing the image's voxel content."""
    h = hashlib.blake2b(digest_size=20)
    h.update(str(image.labels.dtype).encode())
    h.update(repr(image.shape).encode())
    h.update(repr(image.spacing).encode())
    h.update(repr(image.origin).encode())
    h.update(image.labels.tobytes())
    return h.hexdigest()


def request_key(image_key: str, params: Dict[str, object]) -> str:
    """Hex digest addressing one (image, canonical params) pair."""
    doc = json.dumps(
        {"v": CACHE_FORMAT_VERSION, "image": image_key, "params": params},
        sort_keys=True,
    )
    return hashlib.blake2b(doc.encode(), digest_size=20).hexdigest()


def cache_keys(request: MeshRequest) -> Optional[Tuple[str, str]]:
    """``(image_key, request_key)`` for ``request``, or ``None`` when
    the request is uncacheable."""
    try:
        params = request.canonical_params()
    except ValueError:
        return None
    ikey = image_content_key(request.image)
    return ikey, request_key(ikey, params)
