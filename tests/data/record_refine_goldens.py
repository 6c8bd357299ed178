"""Record or check the ``refine`` rows of ``kernel_parity.json``.

The rows pin the sequential refiner's mesh for two sphere phantoms.  They
are derived on the pure-Python kernel (this script sets ``REPRO_ACCEL=0``
before importing ``repro``); ``tests/test_kernel_parity.py`` then holds
the accelerator to the same rows.  Every other section of the file is
written back byte for byte.

    python tests/data/record_refine_goldens.py            # rewrite the rows
    python tests/data/record_refine_goldens.py --check    # exit 1 on a diff
"""

import argparse
import json
import os
import pathlib
import sys

os.environ["REPRO_ACCEL"] = "0"
ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import _accel  # noqa: E402
from repro.api import MeshRequest, mesh  # noqa: E402
from repro.imaging import sphere_phantom  # noqa: E402
from tests.test_kernel_parity import topo_hash  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).with_name("kernel_parity.json")


def refine_row(phantom: str, delta: float) -> dict:
    """The golden row for ``sphere<N>`` at ``delta``, as the test reads it."""
    res = mesh(MeshRequest(
        image=sphere_phantom(int(phantom.removeprefix("sphere"))),
        delta=delta, mesher="sequential", max_operations=500_000,
    ))
    tri = res.extras["domain"].tri
    return {
        "phantom": phantom,
        "delta": delta,
        "tri_vertices": tri.n_vertices,
        "tri_tets": tri.n_tets,
        "mesh_vertices": res.n_vertices,
        "mesh_tets": res.n_tets,
        "topology_sha256": topo_hash(tri.mesh),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="re-derive the rows and diff them; write nothing")
    args = parser.parse_args()
    if _accel.AVAILABLE:
        sys.exit("the accelerator loaded: goldens are recorded on the "
                 "pure-Python kernel")

    golden = json.loads(GOLDEN_PATH.read_text())
    rows = [refine_row(c["phantom"], c["delta"]) for c in golden["refine"]]
    if args.check:
        stale = [(old, new) for old, new in zip(golden["refine"], rows)
                 if old != new]
        for old, new in stale:
            print(f"{old['phantom']}: recorded {old}\n"
                  f"{' ' * len(old['phantom'])}  derived  {new}")
        print(f"{len(rows) - len(stale)} of {len(rows)} refine rows match")
        return 1 if stale else 0
    golden["refine"] = rows
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {len(rows)} refine rows in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
