"""Label-map editing: merge, drop or renumber tissues of a segmentation."""

from __future__ import annotations

from typing import Dict

from repro.imaging.image import SegmentedImage


def relabel(image: SegmentedImage, mapping: Dict[int, int]) -> SegmentedImage:
    """Apply a label mapping (ids not in ``mapping`` pass through).

    Use to merge tissues (``{3: 2}``), drop them (``{4: 0}``) or
    renumber.  Mapping background (0) to a tissue is rejected.
    """
    if mapping.get(0, 0) != 0:
        raise ValueError("background (0) cannot be relabeled to a tissue")
    out = image.labels.copy()
    for src, dst in mapping.items():
        out[image.labels == src] = dst
    return SegmentedImage(out, image.spacing, image.origin)
