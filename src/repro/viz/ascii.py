"""ASCII renderings of segmented-image slices."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.imaging.image import SegmentedImage

# Distinct glyphs per label; background is '.'.
_GLYPHS = ".#oxs%@+=*ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _glyph(label: int) -> str:
    if label <= 0:
        return "."
    return _GLYPHS[1 + (label - 1) % (len(_GLYPHS) - 1)]


def render_image_slice(image: SegmentedImage, k: Optional[int] = None,
                       axis: int = 2, max_width: int = 96) -> str:
    """Render one slice of a segmented image as text.

    ``k`` is the slice index along ``axis`` (default: middle slice).
    Larger images are downsampled to ``max_width`` columns.
    """
    if not 0 <= axis <= 2:
        raise ValueError("axis must be 0, 1, or 2")
    n = image.shape[axis]
    if k is None:
        k = n // 2
    if not 0 <= k < n:
        raise ValueError(f"slice {k} out of range (axis size {n})")
    sl = np.take(image.labels, k, axis=axis)

    step = max(1, int(np.ceil(sl.shape[0] / max_width)))
    sl = sl[::step, ::step]

    lines = [f"slice axis={axis} k={k} shape={image.shape} "
             f"(downsample x{step})"]
    # transpose so the first image axis runs horizontally
    for row in sl.T[::-1]:
        lines.append("".join(_glyph(int(v)) for v in row))
    return "\n".join(lines)

