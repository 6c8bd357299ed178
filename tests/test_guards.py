"""Single-path guards: deleted variants must not come back.

Each row of :data:`GUARDS` names what a simplification removed, where
it must not reappear, the commit that removed it and why.  A row's pattern
is a regular expression matched line by line, as ``grep -E`` would;
``word`` rows match whole words only, as ``grep -w`` does.  A row may
allow ``most`` matching lines: the quoted name of ``max_operations``
appears once in ``src/``, in the request codec's field table.

The scan reads every file under a row's paths except ``__pycache__``
and this module, which holds the patterns.  ``benchmarks/*.py`` is the
top level of ``benchmarks`` only (the ledger under ``benchmarks/e2e``
is not scanned).  The dataclass checks at the end guard what a grep
cannot see: fields, tables and attributes that must stay gone.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import re
from typing import Tuple

import pytest

HERE = pathlib.Path(__file__).resolve()
ROOT = HERE.parent.parent

#: the path sets the rows scan
SRC_BENCH = ("src", "benchmarks/*.py")
SRC_BENCH_EXAMPLES = ("src", "benchmarks/*.py", "examples")
SRC_TESTS_BENCH = ("src", "tests", "benchmarks/*.py")
EVERYWHERE = ("src", "tests", "benchmarks/*.py", "examples")


@dataclasses.dataclass(frozen=True)
class Guard:
    name: str
    pattern: str
    paths: Tuple[str, ...]
    #: the commit(s) that removed the names
    removed_in: str
    why: str
    word: bool = False
    #: matching lines allowed
    most: int = 0


GUARDS = (
    Guard("one-transport",
          "shared_memory|SharedArena|arena_scope|process_support_available|executor_fallback",
          SRC_BENCH, "aff50c2",
          "workers answer over their pipe; the shared-memory transport "
          "and its thread fallback are gone"),
    Guard("one-feature-transform",
          "dist2|REPRO_EDT|euclidean_feature_transform_parallel|set_feature_transform_cache|EDTCacheAdapter|install_edt_cache|edt_workers",
          SRC_BENCH_EXAMPLES, "684a5ff",
          "scipy's transform and an int32 site index; no stored "
          "distances, Python scan or process-wide EDT cache"),
    Guard("one-walk-one-circumball-store",
          "_segment_crossing|_cc_cache|BaselineStats",
          SRC_BENCH_EXAMPLES, "f735196",
          "the baselines are rule sets under SequentialRefiner, without "
          "their own marcher, caches or stats class"),
    Guard("one-concurrent-protocol",
          r"_two_phase|_compute_cavity_optimistic|ThreadAllocArena|_ResizeGate|begin_thread_arenas|repro\.concurrency",
          EVERYWHERE, "b87c8ae",
          "operations lock what they touch and commit under one lock; "
          "no optimistic insert or per-thread arenas"),
    Guard("one-shard-coordinator",
          "serial_runner|run_local|ServiceShardRunner|no.incremental|shard_bench",
          EVERYWHERE, "84ec7bb",
          "mesh_sharded is the one coordinator and uses a block cache "
          "whenever one is given; the ledger replaced the shard bench"),
    Guard("one-point-grid",
          "_sorted_table|_KEY_BITS|_KEY_BIAS|searchsorted",
          ("src/repro/core/pointgrid.py",), "d49bbea",
          "the C hash grid or the dict-of-cells reference; no sorted-key "
          "table for the screen's batch"),
    Guard("one-ray-traversal",
          "_first_crossings",
          SRC_TESTS_BENCH, "a809a9e",
          "every oracle query walks the C traversal or the Python "
          "reference; no numpy batch traversal"),
    Guard("one-tet-slot-allocator",
          "_fill_window|free_top|fwin|fstk|bump_slots|tet_epochs|_FREE_CAP|_FSTK_CAP|_REC_CAP|BW_WHY_WINDOW|free_window",
          ("src",), "8ada297",
          "the free stack and slot epochs are mesh arrays every kernel "
          "pops, pushes and bumps itself"),
    Guard("one-request-codec",
          r"REQUEST_PARAMS|request_wire_params|not canonicalizable|cannot cross the wire|jobs\.uncacheable",
          SRC_BENCH_EXAMPLES, "e65e32c",
          "the cache key, HTTP body, pool and shard payloads read one "
          "field table; no request is refused them"),
    *(Guard(f"{name}-is-a-constant", f'"{name}"', ("src",), "after 531ed9f",
            "the paper's quality bounds are constants of the rule engine "
            "(repro.core.domain), not request params: no quoted name in "
            "src/")
      for name in ("radius_edge_bound", "planar_angle_bound_deg")),
    Guard("max_operations-quoted-once", '"max_operations"', ("src",),
          "e65e32c",
          "a quality bound's quoted name appears once in src/: in the "
          "request codec's field table", most=1),
    Guard("one-served-mesher",
          r"register_mesher|load_plugins|plugin_specs_from_env|REPRO_WORKER_PLUGINS|PLUGIN_ENV|remotable|jobs\.inline|SimulatedMesher|CGALLikeAdapter|TetGenLikeAdapter|_run_baseline|_region_seeds|vertex_creator",
          EVERYWHERE, "73c3362 740d6c6",
          "one table of served meshers fixed at construction; the "
          "simulator and the baselines are called directly"),
    Guard("every-name-has-a-caller",
          "postprocess|smooth_mesh|compactify_labels|crop_to_foreground|remove_small_components|fill_label_holes|resample_isotropic|orient3d_signs|circumsphere_entries|_orient3d_float|render_mesh_slice|metrics_table|blacklight_placement|no.coalesce|shard_retries",
          EVERYWHERE, "7ee59a1",
          "names without a caller from the served path, a paper table or "
          "a contract test were deleted", word=True),
    Guard("only-what-a-caller-sets",
          r"etag_matches|If-None-Match|not_modified|_block_cache|\b(negotiate|image_store)\s*[:=]",
          EVERYWHERE, "after 531ed9f",
          "no ETag revalidation, no process-wide block cache in api.mesh, "
          "and no gateway or client keyword nothing passed"),
    Guard("one-removal-fill",
          "_fill_hole_local_dt|insphere_many|ball re-triangulation failed",
          EVERYWHERE, "f46068b",
          "a removal ball is filled by the gift-wrap alone; the local-DT "
          "fallback and its batch insphere are gone"),
)


def _files(paths):
    for path in paths:
        if "*" in path:
            yield from sorted(ROOT.glob(path))
        elif (ROOT / path).is_file():
            yield ROOT / path
        else:
            yield from sorted(p for p in (ROOT / path).rglob("*")
                              if p.is_file())


@functools.lru_cache(maxsize=None)
def _lines(path):
    return path.read_text(encoding="utf-8", errors="replace").splitlines()


def matches(guard):
    """``path:line: text`` of every line under ``guard.paths`` that
    matches ``guard.pattern``."""
    rx = re.compile(rf"(?<!\w)(?:{guard.pattern})(?!\w)" if guard.word
                    else guard.pattern)
    hits = []
    for path in _files(guard.paths):
        if "__pycache__" in path.parts or path == HERE:
            continue
        for n, line in enumerate(_lines(path), 1):
            if rx.search(line):
                hits.append(f"{path.relative_to(ROOT)}:{n}: {line.strip()}")
    return hits


@pytest.mark.parametrize("guard", GUARDS, ids=[g.name for g in GUARDS])
def test_deleted_names_stay_deleted(guard):
    hits = matches(guard)
    assert len(hits) <= guard.most, (
        f"{guard.name} (removed in {guard.removed_in}: {guard.why}):\n"
        + "\n".join(hits))


def test_parallel_and_simulator_knobs_stay_off_the_request():
    from repro.api import MESHER_NAMES, REQUEST_FIELDS, MeshRequest

    assert MESHER_NAMES == ("sequential", "threaded")
    # Settings no caller set: the quality bounds are constants, the
    # block cache is used whenever one is given, and the service's
    # deadline is the served time limit.
    unset = {"incremental", "timeout", "radius_edge_bound",
             "planar_angle_bound_deg"}
    assert not {"n_threads", "cm", "lb", "hyperthreading",
                "seed"} & set(REQUEST_FIELDS)
    assert not unset & set(REQUEST_FIELDS)
    fields = {f.name for f in dataclasses.fields(MeshRequest)}
    assert not {"hyperthreading", "lb", "seed"} & fields
    assert not unset & fields


def test_config_knobs_nothing_set_stay_gone():
    from repro.observability import ObservabilityConfig
    from repro.service import ServiceConfig

    assert tuple(f.name for f in dataclasses.fields(ObservabilityConfig)
                 ) == ("tracing",)
    fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    assert not {"coalesce", "shard_retries"} & fields


def test_no_predicate_ratio_beside_the_published_gauge():
    from repro.geometry.predicates import PredicateStats

    assert not hasattr(PredicateStats, "exact_fraction")
