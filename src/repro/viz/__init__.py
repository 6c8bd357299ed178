"""Terminal visualization helpers.

A headless library still needs eyes: this renders segmented-image
slices as ASCII text, so users can sanity-check inputs over SSH without
a VTK viewer.
"""

from repro.viz.ascii import render_image_slice

__all__ = ["render_image_slice"]
