"""Tests for surface-graded sizing and the vascular phantom."""

import numpy as np
import pytest

from repro.core import surface_graded
from repro.core import _mesh_image as mesh_image
from repro.core.domain import RefineDomain
from repro.imaging import sphere_phantom, vascular_phantom


class TestVascularPhantom:
    def test_two_tissues(self):
        img = vascular_phantom(32)
        assert img.n_labels == 2

    def test_vessel_inside_tissue(self):
        img = vascular_phantom(32)
        vessel = np.argwhere(img.labels == 2)
        assert len(vessel) > 50
        # vessel voxels are surrounded by tissue or vessel (not floating
        # in background): check 6-neighborhood labels
        lab = img.labels
        for idx in vessel[:: max(1, len(vessel) // 50)]:
            i, j, k = idx
            neigh = []
            for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                      (0, 0, 1), (0, 0, -1)):
                ni, nj, nk = i + d[0], j + d[1], k + d[2]
                if 0 <= ni < lab.shape[0] and 0 <= nj < lab.shape[1] \
                        and 0 <= nk < lab.shape[2]:
                    neigh.append(int(lab[ni, nj, nk]))
            assert all(x in (1, 2) for x in neigh) or k <= 3

    def test_bifurcation_depth_grows_tree(self):
        small = vascular_phantom(32, levels=1)
        big = vascular_phantom(32, levels=3)
        assert (big.labels == 2).sum() > (small.labels == 2).sum()

    def test_meshable(self):
        img = vascular_phantom(24, levels=1)
        res = mesh_image(img, delta=2.5, max_operations=300_000)
        assert res.mesh.n_tets > 50
        assert 1 in set(res.mesh.tet_labels.tolist())


class TestSurfaceGradedSizing:
    def test_validation(self):
        with pytest.raises(ValueError):
            surface_graded(near=0.0, far=5.0)
        with pytest.raises(ValueError):
            surface_graded(near=5.0, far=1.0)

    def test_grows_with_distance(self):
        domain = RefineDomain(sphere_phantom(32), delta=3.0)
        sf = surface_graded(near=1.0, far=10.0, growth=1.0).bind(domain)
        # center of the sphere is far from the surface, near-surface
        # point is close:
        near_surface = (16.0, 16.0, 16.0 + 0.3 * 32 - 0.2)
        center = (16.0, 16.0, 16.0)
        assert sf(near_surface) < sf(center) <= 10.0

    def test_caps_at_far(self):
        domain = RefineDomain(sphere_phantom(32), delta=3.0)
        sf = surface_graded(near=1.0, far=3.0, growth=10.0).bind(domain)
        assert sf((16.0, 16.0, 16.0)) == 3.0

    def test_meshing_with_graded_sizing_refines_near_surface(self):
        img = sphere_phantom(24)
        sf = surface_graded(near=2.0, far=8.0, growth=1.5)
        base = mesh_image(img, delta=3.0, max_operations=300_000)
        graded = mesh_image(img, delta=3.0, size_function=sf,
                            max_operations=300_000)
        # Graded sizing adds interior elements near the boundary.
        assert graded.mesh.n_tets >= base.mesh.n_tets


#: blake2b digests (16 bytes) of the five mesh arrays of three sized
#: meshes, recorded when size functions were closures: a size spec must
#: bind to the closure's own float expression.
SIZED_MESH_DIGESTS = {
    "constant": {
        "vertices": "8ac00345e0ee2643a23e1976a08dcaa6",
        "tets": "c63a16501b2ae182e827b83d8ae2484e",
        "tet_labels": "57db7e57606363fa14a38d1baff0327c",
        "boundary_faces": "f63a47421f672a8eaa67b2f73f4fcc12",
        "boundary_labels": "acf2c5a0952fc85c52cc02588469cff0",
    },
    "surface_graded": {
        "vertices": "93bd507b1765c0cdfcc7e79d54dc19e3",
        "tets": "ca798e8c3ffaba491f51459d027af4da",
        "tet_labels": "04d493d84236e3bf4fc32ad0c7bdcf96",
        "boundary_faces": "70546651df2d5b62e8bb520845725cc0",
        "boundary_labels": "903b737df4da3ee6452029bb98a098e1",
    },
    "radial": {
        "vertices": "607b801b099bd5666969ec3942929797",
        "tets": "d762839a5d62c33d615cf465bc9dfb84",
        "tet_labels": "ddc5ca463305eaf409bfc94f49c50d20",
        "boundary_faces": "3103dafce942ce813923d9f666a14ab8",
        "boundary_labels": "6ab30ab7f7430cef1885b4ce9438875f",
    },
}


def _sized_request(kind):
    from repro.api import MeshRequest
    from repro.core import constant, radial
    from repro.imaging import abdominal_phantom

    if kind == "constant":
        return MeshRequest(image=sphere_phantom(24), delta=3.0,
                           size_function=constant(3.0))
    if kind == "surface_graded":
        return MeshRequest(image=sphere_phantom(24), delta=3.0,
                           size_function=surface_graded(
                               near=2.0, far=8.0, growth=1.5))
    # examples/multi_tissue_abdominal.py's region of interest, at n = 24
    n = 24
    img = abdominal_phantom(n)
    lo, hi = img.foreground_bounds()
    roi = (0.5 * (lo[0] + hi[0]) + 0.18 * n, 0.5 * (lo[1] + hi[1]) + 0.05 * n,
           0.5 * (lo[2] + hi[2]))
    return MeshRequest(image=img, delta=2.5, mesher="sequential",
                       size_function=radial(roi, near=2.5, far=8.0,
                                            radius=0.5 * n))


@pytest.mark.parametrize("kind", sorted(SIZED_MESH_DIGESTS))
def test_sized_mesh_is_pinned(kind):
    import dataclasses
    import hashlib

    from repro.api import mesh
    from repro.core.extract import ExtractedMesh

    result = mesh(_sized_request(kind))
    got = {f.name: hashlib.blake2b(getattr(result.mesh, f.name).tobytes(),
                                   digest_size=16).hexdigest()
           for f in dataclasses.fields(ExtractedMesh)}
    assert got == SIZED_MESH_DIGESTS[kind]
