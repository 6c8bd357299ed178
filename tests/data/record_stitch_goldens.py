"""Record or check ``stitch_goldens.json``: the cold-stitch meshes.

Each row pins one cold ``mesh_sharded`` run (serial blocks, no block
cache): the digest of the extracted mesh — vertices, tets, labels and
boundary faces, the fields ``benchmarks.e2e.checks.mesh_digest`` hashes —
and the stitch's ``refine_operations``.  A change to the stitch that only
saves work moves the operation counts and leaves every digest alone.
The file has one section per kernel (``accel`` / ``python``): both build
the same tets over the same points, but they recycle vertex ids in a
different order, so the byte digests and a handful of pops differ.  A run
reads and writes the section of the kernel ``REPRO_ACCEL`` selected.

    python tests/data/record_stitch_goldens.py            # rewrite the rows
    python tests/data/record_stitch_goldens.py --check    # exit 1 on a diff
"""

import argparse
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
        return 1 if stale or len(recorded) != len(rows) else 0
    golden[KERNEL] = rows
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(rows)} {KERNEL} stitch rows in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
