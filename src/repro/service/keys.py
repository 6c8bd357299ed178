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

Both are plain hex digests, safe as file names.  Every request has
both: the canonical form is the request codec's (size functions
included, as data), so no request bypasses the mesh cache.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

from repro.api import MeshRequest
from repro.imaging.image import SegmentedImage

#: Bump to invalidate every cached mesh after a format/semantic change.
#: v2: ``shards`` joined the canonical params (domain-sharded meshing).
#: v3: ``incremental`` joined them, and sharded results carry
#: ``block_cache`` stats (per-block caching, seam-local stitching).
#: v4: the refiner judges a generation at a time behind the screen and
#: R1 lost its near-site shortcut — ``operations`` counts tets judged,
#: and meshes move where delta exceeds the voxel diagonal.
#: v5: the params are the request codec's — ``size_function`` joined
#: them as data, and float fields are floats (``delta`` 3 is 3.0).
#: v6: the parallel knobs (``n_threads``, ``cm``, ``lb``,
#: ``hyperthreading``, ``seed``) left them: the served mesher never
#: read them.  ``lb``, ``hyperthreading`` and ``seed`` have since left
#: ``MeshRequest`` as well (they are the simulator's own arguments);
#: no key moved, so the version stays.
#: v7: a mesh artifact's arrays are base64 of their raw bytes, not lists.
#: v8: ``incremental``, ``timeout`` and the two quality bounds left them
#: (the bounds are constants; the block cache is used whenever given).
#: v9: a mesh artifact's vertex indices are int32 bytes, not int64.
CACHE_FORMAT_VERSION = 9


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


def cache_keys(request: MeshRequest) -> Tuple[str, str]:
    """``(image_key, request_key)`` for ``request``."""
    ikey = image_content_key(request.image)
    return ikey, request_key(ikey, request.canonical_params())
