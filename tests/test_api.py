"""Tests for repro.api: protocol conformance, shims, round-trips."""

import dataclasses
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    MESH_ARRAYS,
    MESHER_NAMES,
    Mesher,
    MeshRequest,
    MeshResult,
    get_mesher,
    mesh,
)
from repro.core.extract import ExtractedMesh
from repro.core.sizing import constant, radial, surface_graded, unconstrained
from repro.imaging import sphere_phantom
from repro.observability import Observability, ObservabilityConfig
from repro.runtime import CM_NAMES


@pytest.fixture(scope="module")
def image():
    return sphere_phantom(16)


@pytest.fixture(scope="module")
def results(image):
    """One meshing run per registered mesher, shared across tests."""
    out = {}
    for name in MESHER_NAMES:
        req = MeshRequest(image=image, delta=3.0, mesher=name,
                          n_threads=2 if name == "threaded" else 1)
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

    @pytest.mark.parametrize("name",
                             ["simulated", "cgal_like", "tetgen_like"])
    def test_experiments_are_not_meshers(self, image, name):
        """The simulator and the Table 6 baselines are called directly
        (``repro.simnuma``, ``repro.baselines``); :func:`mesh` refuses
        their names before it meshes anything."""
        with pytest.raises(ValueError, match=f"unknown mesher '{name}'"):
            mesh(MeshRequest(image=image, delta=3.0, mesher=name))

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

    def test_observability_bundle_attached(self, results):
        for name in MESHER_NAMES:
            obs = results[name].observability
            assert isinstance(obs, Observability), name


class TestMeshRequest:
    def test_auto_resolution(self, image):
        assert MeshRequest(image=image).resolved_mesher() == "sequential"
        auto = MeshRequest(image=image, n_threads=4)
        assert auto.resolved_mesher() == "sequential"
        assert MeshRequest(image=image, mesher="threaded",
                           n_threads=4).resolved_mesher() == "threaded"

    def test_validate_rejects_bad_requests(self, image):
        with pytest.raises(ValueError):
            mesh(MeshRequest(image=image, mesher="nope"))
        with pytest.raises(ValueError):
            mesh(MeshRequest(image=image, n_threads=0))
        with pytest.raises(ValueError):
            mesh(MeshRequest(image=image, delta=-1.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="'delta' must be a finite"):
                MeshRequest(image=image, delta=bad).validate()
        with pytest.raises(ValueError, match="SizeSpec"):
            MeshRequest(image=image, size_function=lambda p: 3.0).validate()
        with pytest.raises(ValueError, match="cm must be one of"):
            mesh(MeshRequest(image=image, mesher="threaded", cm="bogus"))

    def test_parallel_knobs_are_library_fields(self, image, results):
        """The codec does not carry them; :func:`mesh` still reads them."""
        with pytest.raises(ValueError, match="unknown param 'n_threads'"):
            MeshRequest.from_params(image, {"n_threads": 2})
        request = MeshRequest(image=image, delta=3.0, mesher="threaded",
                              n_threads=2)
        request.validate()
        assert "n_threads" not in request.to_params()
        # the ``results`` fixture meshed this very request
        assert results["threaded"].ok
        assert results["threaded"].stats["n_threads"] == 2

    def test_observability_config_defaults_off(self, image):
        req = MeshRequest(image=image)
        assert req.observability.tracing is False


_CODEC_IMAGE = sphere_phantom(4)
_NUMBERS = st.one_of(
    st.floats(0.25, 64.0, allow_nan=False), st.integers(1, 64))
_SPECS = st.one_of(
    st.none(),
    st.just(unconstrained()),
    _NUMBERS.map(constant),
    st.builds(radial, st.tuples(_NUMBERS, _NUMBERS, _NUMBERS),
              _NUMBERS, _NUMBERS, _NUMBERS),
    st.builds(lambda near, extra, growth: surface_graded(
        near, near + extra, growth), _NUMBERS, _NUMBERS, _NUMBERS),
)
#: One strategy per field: every field a request has but its image.
_FIELDS = {
    "mesher": st.sampled_from(("auto",) + MESHER_NAMES),
    "delta": st.none() | _NUMBERS,
    "size_function": _SPECS,
    "n_threads": st.integers(1, 8),
    "cm": st.sampled_from(CM_NAMES),
    "shards": st.none() | st.integers(1, 4) | st.just("auto"),
    "max_operations": st.none() | st.integers(1, 10**6),
    "observability": st.sampled_from(
        (ObservabilityConfig(), ObservabilityConfig(tracing=True))),
}
_REQUESTS = st.fixed_dictionaries(_FIELDS).map(
    lambda kw: MeshRequest(image=_CODEC_IMAGE, **kw))


def _meshed(r):
    """What determines a served mesh, resolved by hand: everything but
    the observability config and the threaded mesher's knobs only
    :func:`repro.api.mesh` reads."""
    return (r.resolved_mesher(),
            None if r.delta is None else float(r.delta),
            r.size_function, r.resolved_shards(), r.max_operations)


class TestRequestCodec:
    @settings(max_examples=200, deadline=None)
    @given(_REQUESTS)
    def test_json_and_wire_round_trip(self, r):
        params = r.to_params()
        text = json.dumps(params, allow_nan=False)
        decoded = MeshRequest.from_params(_CODEC_IMAGE, json.loads(text))
        assert decoded.to_params() == params
        wire = json.dumps(r.to_params(omit_defaults=True), allow_nan=False)
        assert MeshRequest.from_params(
            _CODEC_IMAGE, json.loads(wire)).to_params() == params

    @settings(max_examples=300, deadline=None)
    @given(_REQUESTS, st.data())
    def test_canonical_params_ignore_only_what_is_recorded(self, r, data):
        names = data.draw(st.sets(st.sampled_from(sorted(_FIELDS))))
        other = replace(r, **{n: data.draw(_FIELDS[n]) for n in names})
        same = r.canonical_params() == other.canonical_params()
        assert same == (_meshed(r) == _meshed(other))
        canonical = r.canonical_params()
        assert canonical["mesher"] == r.resolved_mesher()
        assert canonical["shards"] == r.resolved_shards()


_SCALARS = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                    st.text(max_size=4))
_DOCS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(_SCALARS, st.dictionaries(st.text(max_size=4), _SCALARS,
                                        max_size=3)),
    max_size=4)


@st.composite
def _mesh_results(draw):
    """Results with arbitrary array bytes (any float64 bit pattern, any
    integer the field travels as, held in the field's own dtype) and row
    counts down to zero, and stats, metrics and timings holding NaN and
    infinities among other JSON values."""
    arrays = {}
    for name, (dtype, tail, held) in MESH_ARRAYS.items():
        shape = (draw(st.integers(0, 5)),) + tail
        size = math.prod(shape) * np.dtype(dtype).itemsize
        raw = draw(st.binary(min_size=size, max_size=size))
        arrays[name] = np.frombuffer(raw, dtype).reshape(shape).astype(held)
    return MeshResult(mesh=ExtractedMesh(**arrays),
                      mesher=draw(st.text(max_size=8)), stats=draw(_DOCS),
                      metrics=draw(_DOCS), timings=draw(_DOCS))


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
        json.dumps(results["sequential"].to_dict())

    def test_arrays_travel_as_base64_not_lists(self, results):
        doc = results["sequential"].to_dict()["mesh"]
        assert list(doc) == [f.name for f in dataclasses.fields(ExtractedMesh)]
        for name, member in doc.items():
            assert set(member) == {"dtype", "shape", "b64"}, name
            assert member["dtype"] == MESH_ARRAYS[name][0]
            assert all(type(n) is int for n in member["shape"]), name
            assert isinstance(member["b64"], str), name

    @settings(max_examples=60, deadline=None)
    @given(_mesh_results())
    @example(MeshResult(ExtractedMesh(**{
        name: np.zeros((0,) + tail, held)
        for name, (_, tail, held) in MESH_ARRAYS.items()}), "sequential"))
    def test_json_round_trip_is_bit_exact(self, r):
        """Every array, empty ones too, comes back with its dtype, shape
        and bytes (NaN payloads, -0.0 and infinities included) and
        writable; the non-finite numbers in stats, metrics and timings
        survive; and the document encodes to the same JSON every time."""
        text = json.dumps(r.to_dict())
        assert json.dumps(r.to_dict()) == text
        back = MeshResult.from_dict(json.loads(text))
        for field in dataclasses.fields(ExtractedMesh):
            got, want = getattr(back.mesh, field.name), getattr(r.mesh,
                                                                field.name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), field.name
            assert got.flags.writeable, field.name
        assert back.mesher == r.mesher
        assert json.dumps(back.to_dict()) == text

    @pytest.mark.parametrize("field", ["tets", "boundary_faces"])
    @pytest.mark.parametrize("value", [2 ** 31, -2 ** 31 - 1])
    def test_an_index_past_int32_is_refused(self, results, field, value):
        """Vertex indices travel as int32: one that does not fit is a
        ``ValueError`` naming the field, never a wrapped index."""
        mesh = results["sequential"].mesh
        arrays = {f.name: getattr(mesh, f.name).copy()
                  for f in dataclasses.fields(ExtractedMesh)}
        arrays[field][0, 0] = value
        bad = MeshResult(ExtractedMesh(**arrays), "sequential")
        with pytest.raises(ValueError, match=field):
            bad.to_dict()

    def test_indices_travel_as_int32_and_return_as_int64(self, results):
        r = results["sequential"]
        doc = r.to_dict()
        back = MeshResult.from_dict(doc)
        for field in ("tets", "boundary_faces"):
            assert doc["mesh"][field]["dtype"] == "<i4"
            got = getattr(back.mesh, field)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, getattr(r.mesh, field))

    @pytest.mark.parametrize("field, damage", [
        ("vertices", {"dtype": "<f4"}),
        ("tets", {"dtype": "|O"}),
        ("tets", {"dtype": None}),
        ("tets", {"shape": [3, 3]}),
        ("tet_labels", {"shape": [-1]}),
        ("tet_labels", {"shape": [1.0]}),
        ("vertices", {"shape": [99, 3]}),
        ("boundary_faces", {"shape": "[0, 3]"}),
        ("boundary_faces", {"b64": "not base64!"}),
        ("boundary_faces", {"b64": "QUJD"}),
        ("boundary_labels", {"b64": 7}),
        ("boundary_labels", "drop b64"),
        ("vertices", "not a member"),
        ("vertices", "old list format"),
        ("tets", "missing"),
    ])
    def test_malformed_mesh_member_names_the_field(self, results, field,
                                                   damage):
        doc = json.loads(json.dumps(results["sequential"].to_dict()))
        arrays = doc["mesh"]
        if damage == "drop b64":
            del arrays[field]["b64"]
        elif damage == "not a member":
            arrays[field] = "AAAA"
        elif damage == "old list format":
            arrays[field] = results["sequential"].mesh.vertices.tolist()
        elif damage == "missing":
            del arrays[field]
        else:
            arrays[field].update(damage)
        with pytest.raises(ValueError, match=f"'{field}'"):
            MeshResult.from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("mesh", None), ("mesh", []), ("mesher", 3), ("stats", []),
        ("metrics", None), ("timings", "fast")])
    def test_malformed_document_names_the_field(self, results, field, value):
        doc = results["sequential"].to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=f"'{field}'"):
            MeshResult.from_dict(doc)
        with pytest.raises(ValueError, match="'mesh'"):
            MeshResult.from_dict([doc])

    def test_the_list_codec_workarounds_are_gone(self):
        """The codec made the disk-bytes splice, its stamps and the
        pipe's own result shape unnecessary; they must not come back."""
        names = ("mesh_json_bytes", "mesh_wire_bytes", "handle_wire",
                 "RESULT_FIELDS")
        src = pathlib.Path(repro.__file__).parent
        found = [(str(path.relative_to(src)), name)
                 for path in sorted(src.rglob("*.py"))
                 for name in names if name in path.read_text()]
        assert found == []


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

    def test_threaded_impl_matches_api(self, image):
        from repro.parallel import _parallel_mesh_image

        api = mesh(MeshRequest(image=image, delta=3.0, mesher="threaded",
                               n_threads=1))
        impl = _parallel_mesh_image(image, n_threads=1, delta=3.0)
        np.testing.assert_array_equal(api.mesh.tets, impl.mesh.tets)


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
