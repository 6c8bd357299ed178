"""Record or check ``stitch_goldens.json``: the cold-stitch meshes.

Each row pins one cold ``mesh_sharded`` run (serial blocks, no block
cache): the digest of the extracted mesh — vertices, tets, labels and
boundary faces, the fields ``benchmarks.e2e.checks.mesh_digest`` hashes —
and the stitch's ``refine_operations``.  A change to the stitch that only
saves work moves the operation counts and leaves every digest alone.
The file has one section per kernel (``accel`` / ``python``): both build
the same tets over the same points, but the bulk load goes through
``bw_insert_many`` on one and point by point on the other, so walks start
from different seed tets, a sample lying exactly on a face is located in
the other of the two tets sharing it, the cavity's depth-first order —
and with it the new tet ids and every id recycled downstream — differs:
the byte digests and a handful of judged tets move, the geometry does
not.  ``geometry_digest`` says so in every row: it hashes the sorted
vertex coordinates and the sorted (tet as coordinates, label) set, blind
to numbering, and must be equal across the two sections — which is also
how a re-record of one section proves it moved ids only.  A run reads
and writes the section of the kernel ``REPRO_ACCEL`` selected.

    python tests/data/record_stitch_goldens.py            # rewrite the rows
    python tests/data/record_stitch_goldens.py --check    # exit 1 on a diff
"""

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.checks import mesh_digest  # noqa: E402
from repro import _accel, imaging  # noqa: E402
from repro.api import MeshRequest  # noqa: E402
from repro.delaunay.shard import mesh_sharded  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).with_name("stitch_goldens.json")
#: the section of the file this process's kernel is held to
KERNEL = "accel" if _accel.AVAILABLE else "python"

#: (phantom function in ``repro.imaging``, size, delta, shards)
CASES = [
    ("ball_grid_phantom", 24, 2.0, 2),
    ("sphere_phantom", 32, None, 2),
    ("ball_grid_phantom", 48, 2.0, 4),
    ("near_duplicate_phantom", 48, 2.0, 4),
]


def cold_mesh(phantom: str, n: int, delta, shards: int):
    """One cold sharded mesh of ``repro.imaging.<phantom>(n)``."""
    return mesh_sharded(MeshRequest(
        image=getattr(imaging, phantom)(n), mesher="sequential",
        delta=delta, shards=shards,
    ))


def geometry_digest(mesh) -> str:
    """Digest of ``mesh`` as geometry, whatever the numbering: its
    sorted vertex coordinates and its sorted (tet as sorted coordinate
    tuples, label) set."""
    coords = [tuple(v) for v in mesh.vertices.tolist()]
    tets = sorted(
        (tuple(sorted(coords[v] for v in tet)), label)
        for tet, label in zip(mesh.tets.tolist(), mesh.tet_labels.tolist()))
    return hashlib.blake2b(repr((sorted(coords), tets)).encode(),
                           digest_size=16).hexdigest()


def stitch_row(phantom: str, n: int, delta, shards: int, result=None) -> dict:
    """The golden row for one case, as ``tests/test_shard.py`` reads it."""
    if result is None:
        result = cold_mesh(phantom, n, delta, shards)
    return {
        "phantom": phantom,
        "n": n,
        "delta": delta,
        "shards": shards,
        "mesh_vertices": result.n_vertices,
        "mesh_tets": result.n_tets,
        "mesh_digest": mesh_digest(result.mesh),
        "geometry_digest": geometry_digest(result.mesh),
        "refine_operations": result.stats["stitch"]["refine_operations"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="re-derive the rows and diff them; write nothing")
    args = parser.parse_args()

    rows = [stitch_row(*case) for case in CASES]
    golden = (json.loads(GOLDEN_PATH.read_text())
              if GOLDEN_PATH.exists() else {})
    if args.check:
        recorded = golden.get(KERNEL, [])
        stale = [(old, new) for old, new in zip(recorded, rows)
                 if old != new]
        for old, new in stale:
            print(f"recorded {old}\nderived  {new}")
        print(f"{KERNEL}: {len(rows) - len(stale)} of {len(rows)} "
              "stitch rows match")
        return 1 if (stale or len(recorded) != len(rows)
                     or geometry_differs(golden)) else 0
    golden[KERNEL] = rows
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(rows)} {KERNEL} stitch rows in {GOLDEN_PATH.name}")
    return 1 if geometry_differs(golden) else 0


def geometry_differs(golden: dict) -> bool:
    """Print and report the cases whose ``geometry_digest`` is not the
    same in every section of ``golden``."""
    by_case = {}
    for rows in golden.values():
        for row in rows:
            case = (row["phantom"], row["n"], row["delta"], row["shards"])
            by_case.setdefault(case, set()).add(row.get("geometry_digest"))
    split = [case for case, digests in by_case.items() if len(digests) > 1]
    for case in split:
        print(f"geometry differs between kernels: {case}")
    return bool(split)


if __name__ == "__main__":
    sys.exit(main())
