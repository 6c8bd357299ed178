"""Tests for repro.api: protocol conformance, shims, round-trips."""

import numpy as np
import pytest

from repro.api import (
    MESHER_NAMES,
    Mesher,
    MeshRequest,
    MeshResult,
    get_mesher,
    mesh,
)
from repro.imaging import sphere_phantom
from repro.observability import Observability, ObservabilityConfig


@pytest.fixture(scope="module")
def image():
    return sphere_phantom(16)


@pytest.fixture(scope="module")
def results(image):
    """One meshing run per registered mesher, shared across tests."""
    out = {}
    for name in MESHER_NAMES:
        req = MeshRequest(image=image, delta=3.0, mesher=name,
                          n_threads=2 if name in ("threaded", "simulated")
                          else 1)
        out[name] = mesh(req)
    return out


class TestProtocolConformance:
    def test_every_registered_mesher_satisfies_protocol(self):
        for name in MESHER_NAMES:
            impl = get_mesher(name)
            assert isinstance(impl, Mesher), name
            assert impl.name == name

    def test_unknown_mesher_rejected(self):
        with pytest.raises(ValueError, match="unknown mesher"):
            get_mesher("voronoi")

    @pytest.mark.parametrize("name", MESHER_NAMES)
    def test_mesher_returns_meshresult(self, results, name):
        r = results[name]
        assert isinstance(r, MeshResult)
        assert r.mesher == name
        assert r.mesh.n_tets > 0
        assert r.ok
        assert r.n_tets == r.mesh.n_tets
        assert r.n_vertices == r.mesh.n_vertices
        assert "wall_seconds" in r.timings
        assert r.timings["wall_seconds"] > 0
        assert isinstance(r.stats, dict) and r.stats
        assert set(r.metrics) == {"counters", "gauges", "histograms"}

    def test_simulated_reports_virtual_time(self, results):
        assert results["simulated"].timings["virtual_seconds"] > 0

    def test_observability_bundle_attached(self, results):
        for name in MESHER_NAMES:
            obs = results[name].observability
            assert isinstance(obs, Observability), name


class TestMeshRequest:
    def test_auto_resolution(self, image):
        assert MeshRequest(image=image).resolved_mesher() == "sequential"
        auto = MeshRequest(image=image, n_threads=4)
        assert auto.resolved_mesher() == "sequential"
        assert auto.canonical_params()["mesher"] == "sequential"
        for name in ("threaded", "simulated"):
            assert MeshRequest(image=image, mesher=name,
                               n_threads=4).resolved_mesher() == name

    def test_validate_rejects_bad_requests(self, image):
        with pytest.raises(ValueError):
            mesh(MeshRequest(image=image, mesher="nope"))
        with pytest.raises(ValueError):
            mesh(MeshRequest(image=image, n_threads=0))
        with pytest.raises(ValueError):
            mesh(MeshRequest(image=image, delta=-1.0))
        for knob in ("cm", "lb"):
            with pytest.raises(ValueError, match=f"{knob} must be one of"):
                mesh(MeshRequest(image=image, mesher="threaded",
                                 **{knob: "bogus"}))

    def test_observability_config_defaults_off(self, image):
        req = MeshRequest(image=image)
        assert req.observability.tracing is False


class TestMeshResultRoundTrip:
    @pytest.mark.parametrize("name", MESHER_NAMES)
    def test_to_dict_from_dict(self, results, name):
        r = results[name]
        r2 = MeshResult.from_dict(r.to_dict())
        assert r2.mesher == r.mesher
        np.testing.assert_array_equal(r2.mesh.vertices, r.mesh.vertices)
        np.testing.assert_array_equal(r2.mesh.tets, r.mesh.tets)
        np.testing.assert_array_equal(r2.mesh.tet_labels, r.mesh.tet_labels)
        np.testing.assert_array_equal(r2.mesh.boundary_faces,
                                      r.mesh.boundary_faces)
        np.testing.assert_array_equal(r2.mesh.boundary_labels,
                                      r.mesh.boundary_labels)
        assert r2.timings == r.timings
        assert r2.metrics == r.metrics
        assert r2.extras == {}  # live objects are not serialised

    def test_dict_is_json_safe(self, results):
        import json

        json.dumps(results["sequential"].to_dict())


class TestClassicEntryPointsRemoved:
    """The PR-1 shims are gone: repro.api is the only public door."""

    def test_core_mesh_image_gone(self):
        with pytest.raises(ImportError):
            from repro.core import mesh_image  # noqa: F401

    def test_parallel_mesh_image_gone(self):
        with pytest.raises(ImportError):
            from repro.parallel import parallel_mesh_image  # noqa: F401

    def test_simulate_parallel_refinement_gone(self):
        with pytest.raises(ImportError):
            from repro.simnuma import (  # noqa: F401
                simulate_parallel_refinement,
            )

    def test_api_path_does_not_warn(self, image):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            mesh(MeshRequest(image=image, delta=3.0, mesher="sequential"))


class TestImplAndApiAgree:
    def test_sequential_impl_matches_api(self, image, results):
        from repro.core import _mesh_image

        old = _mesh_image(image, delta=3.0)
        new = results["sequential"]
        assert old.mesh.n_tets == new.mesh.n_tets
        np.testing.assert_array_equal(old.mesh.tets, new.mesh.tets)

    def test_threaded_request_carries_its_quality_bounds(self, image):
        """A threaded request is meshed at the bounds its cache key
        names; the default request is the mesh it always was."""
        from repro.metrics import quality_report
        from repro.parallel import _parallel_mesh_image

        tight = mesh(MeshRequest(image=image, delta=3.0, mesher="threaded",
                                 n_threads=1, radius_edge_bound=1.6,
                                 planar_angle_bound_deg=25.0))
        domain = tight.extras["domain"]
        assert domain.radius_edge_bound == 1.6
        assert domain.planar_angle_bound == 25.0
        assert quality_report(tight.mesh).max_radius_edge <= 1.6 + 1e-6

        default = mesh(MeshRequest(image=image, delta=3.0,
                                   mesher="threaded", n_threads=1))
        impl = _parallel_mesh_image(image, n_threads=1, delta=3.0, lb="hws")
        np.testing.assert_array_equal(default.mesh.tets, impl.mesh.tets)
        assert quality_report(default.mesh).max_radius_edge > 1.6

    def test_simulated_impl_matches_api(self, image, results):
        from repro.simnuma import _simulate_parallel_refinement

        old = _simulate_parallel_refinement(
            image, n_threads=2, delta=3.0, seed=0
        )
        new = results["simulated"]
        # the simulator is deterministic for a fixed seed
        assert old.virtual_time == pytest.approx(
            new.timings["virtual_seconds"]
        )
        assert old.rollbacks == new.stats["rollbacks"]


class TestTracingThroughApi:
    def test_traced_run_collects_events(self, image):
        req = MeshRequest(
            image=image, delta=3.0, mesher="threaded", n_threads=2,
            observability=ObservabilityConfig(tracing=True),
        )
        r = mesh(req)
        obs = r.observability
        assert obs.tracer.enabled
        assert len(obs.tracer.events()) > 0
        assert r.metrics["counters"]["refine.operations"] > 0

    def test_untraced_run_uses_null_tracer(self, results):
        from repro.observability import NULL_TRACER

        assert results["sequential"].observability.tracer is NULL_TRACER
