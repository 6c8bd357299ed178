"""Tests for label-map editing."""

import numpy as np
import pytest

from repro.imaging import SegmentedImage, relabel


def block_image():
    lab = np.zeros((12, 12, 12), dtype=np.int16)
    lab[3:9, 3:9, 3:9] = 1
    lab[5:7, 5:7, 5:7] = 2
    return SegmentedImage(lab, spacing=(1, 1, 2), origin=(5, 0, -3))


class TestRelabel:
    def test_merge(self):
        img = relabel(block_image(), {2: 1})
        assert img.n_labels == 1

    def test_drop(self):
        img = relabel(block_image(), {2: 0})
        assert set(np.unique(img.labels)) == {0, 1}

    def test_background_protected(self):
        with pytest.raises(ValueError):
            relabel(block_image(), {0: 3})

    def test_preserves_geometry(self):
        img = relabel(block_image(), {2: 5})
        assert img.spacing == (1, 1, 2)
        assert img.origin == (5, 0, -3)

