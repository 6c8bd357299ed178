"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``phantom``   generate a synthetic segmented image (.npz)
``mesh``      image-to-mesh conversion (sequential or threaded, via
              ``repro.api``)
``serve``     long-running meshing service behind the HTTP gateway
              (see ``repro.service``)
``simulate``  parallel refinement on the simulated cc-NUMA machine
              (``repro.simnuma``, called directly)
``report``    quality/fidelity report of a stored image + parameters
``show``      ASCII view of an image slice

``mesh`` and ``report`` run through the unified :mod:`repro.api` path.
Every meshing command accepts ``--trace-out`` (Chrome-trace JSON,
loadable in ``chrome://tracing`` / Perfetto) and ``--metrics-out``
(flat metrics JSON) flags.

Exit codes: 0 success, 1 empty/invalid mesh (or simulated livelock),
2 bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

EXIT_OK = 0
EXIT_INVALID_MESH = 1
EXIT_BAD_ARGS = 2

PHANTOMS = {
    "sphere": "sphere_phantom",
    "shell": "shell_phantom",
    "two-spheres": "two_spheres_phantom",
    "ball-grid": "ball_grid_phantom",
    "abdominal": "abdominal_phantom",
    "knee": "knee_phantom",
    "head-neck": "head_neck_phantom",
    "vascular": "vascular_phantom",
}

MESHER_CHOICES = ["auto", "sequential", "threaded"]


def _cmd_phantom(args: argparse.Namespace) -> int:
    import repro.imaging as imaging
    from repro.io import save_image_npz

    factory = getattr(imaging, PHANTOMS[args.kind])
    image = factory(args.n)
    save_image_npz(image, args.output)
    print(f"wrote {args.output}: shape={image.shape} "
          f"spacing={tuple(round(s, 3) for s in image.spacing)} "
          f"tissues={image.n_labels}")
    return EXIT_OK


def _load_image(path: str):
    from repro.io import load_image_npz

    return load_image_npz(path)


def _parse_shards(raw):
    """``--shards`` value: ``None``, ``"auto"`` or a positive int."""
    if raw is None:
        return None
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        return "auto"
    try:
        n = int(raw)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"--shards expects a positive integer or 'auto', got {raw!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"--shards expects a positive integer or 'auto', got {raw!r}"
        )
    return n


def _build_request(args: argparse.Namespace, image, mesher: str):
    from repro.api import MeshRequest
    from repro.observability import ObservabilityConfig

    return MeshRequest(
        image=image,
        mesher=mesher,
        delta=args.delta,
        shards=getattr(args, "shards", None),
        n_threads=getattr(args, "threads", 1),
        cm=getattr(args, "cm", "local"),
        observability=ObservabilityConfig(
            tracing=bool(getattr(args, "trace_out", None)),
        ),
    )


def _export_observability(args: argparse.Namespace, obs, mesher: str,
                          stats, timings) -> None:
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        obs.write_trace(trace_out, process_name=f"repro-{mesher}")
        print(f"wrote trace {trace_out}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        obs.write_metrics(metrics_out, extra={
            "mesher": mesher,
            "stats": {k: v for k, v in stats.items()
                      if not isinstance(v, dict)},
            "timings": timings,
        })
        print(f"wrote metrics {metrics_out}")


def _empty_mesh_error() -> int:
    print("error: produced an empty mesh (is the image foreground "
          "empty or delta far too large?)", file=sys.stderr)
    return EXIT_INVALID_MESH


def _cmd_mesh(args: argparse.Namespace) -> int:
    from repro.api import mesh
    from repro.metrics import quality_report

    image = _load_image(args.image)
    mesher = args.mesher.replace("-", "_")
    result = mesh(_build_request(args, image, mesher))
    _export_observability(args, result.observability, result.mesher,
                          result.stats, result.timings)

    if result.mesh.n_tets == 0:
        return _empty_mesh_error()
    dt = result.timings["wall_seconds"]
    if result.mesher == "threaded":
        extra = f" rollbacks={int(result.stats.get('rollbacks', 0))}"
    else:
        extra = f" rules={result.stats.get('rule_counts', {})}"
    q = quality_report(result.mesh)
    print(f"{result.mesh.n_tets} tets in {dt:.2f}s "
          f"({result.mesh.n_tets / dt:,.0f} tets/s){extra}")
    print(q.row())

    gauges = result.metrics.get("gauges", {})
    if getattr(args, "kernel_stats", False) and "kernel.locate_calls" in gauges:
        from repro.runtime.stats import kernel_report

        print()
        print(kernel_report(gauges))

    if args.output:
        if args.output.endswith(".vtk"):
            from repro.io import save_vtk

            save_vtk(result.mesh, args.output)
        elif args.output.endswith(".off"):
            from repro.io import save_off_surface

            save_off_surface(result.mesh, args.output)
        else:
            from repro.io import save_tetgen

            save_tetgen(result.mesh, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import MeshHTTPServer, MeshingService, ServiceConfig

    host, _, port = args.http.rpartition(":")
    if not port.isdigit():
        print(f"--http wants HOST:PORT, got {args.http!r}", file=sys.stderr)
        return EXIT_BAD_ARGS
    config = ServiceConfig(
        n_workers=args.workers,
        queue_capacity=args.queue_capacity,
        cache_dir=args.cache_dir,
        max_retries=args.retries,
        default_deadline=args.deadline,
        tracing=bool(getattr(args, "trace_out", None)),
        executor=args.executor,
        max_shards=args.max_shards,
        memory_cache_bytes=args.memory_cache_bytes,
    )
    service = MeshingService(config).start()
    try:
        server = MeshHTTPServer(service, host=host or "127.0.0.1",
                                port=int(port))
        print(f"serving http on {server.url} "
              f"({args.workers} {service.executor} workers)",
              file=sys.stderr, flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
    finally:
        service.shutdown(wait=False)
        if getattr(args, "metrics_out", None):
            service.obs.write_metrics(args.metrics_out)
            print(f"wrote metrics {args.metrics_out}", file=sys.stderr)
        if getattr(args, "trace_out", None):
            service.obs.write_trace(args.trace_out,
                                    process_name="repro-serve")
            print(f"wrote trace {args.trace_out}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    import time

    from repro.core.domain import RefineDomain
    from repro.core.extract import extract_mesh
    from repro.observability import Observability, ObservabilityConfig
    from repro.simnuma import _simulate_parallel_refinement

    image = _load_image(args.image)
    obs = Observability.from_config(
        ObservabilityConfig(tracing=bool(args.trace_out)))
    t0 = time.perf_counter()
    domain = RefineDomain(image, delta=args.delta)
    r = _simulate_parallel_refinement(
        image, args.threads, cm=args.cm, lb=args.lb,
        hyperthreading=args.hyperthreading, seed=args.seed,
        domain=domain, obs=obs)
    n_tets = extract_mesh(domain).n_tets
    stats = dict(r.totals, n_threads=r.n_threads, cm=r.cm_name,
                 lb=r.lb_name, hyperthreading=r.hyperthreading,
                 livelock=r.livelock,
                 elements_per_second=r.elements_per_second)
    _export_observability(args, obs, "simulated", stats, {
        "wall_seconds": time.perf_counter() - t0,
        "virtual_seconds": r.virtual_time})

    status = "LIVELOCK" if r.livelock else "ok"
    print(f"[{status}] {r.n_elements} elements in {r.virtual_time:.4f} "
          f"simulated seconds = {r.elements_per_second:,.0f} elements/s")
    print(f"rollbacks={r.rollbacks} "
          f"contention={r.totals['contention_overhead']:.4f}s "
          f"load-balance={r.totals['load_balance_overhead']:.4f}s "
          f"rollback-overhead={r.totals['rollback_overhead']:.4f}s")
    if args.utilization and not r.livelock:
        from repro.simnuma.trace import utilization_report

        print()
        print(utilization_report(r))
    if r.livelock or n_tets == 0:
        if n_tets == 0 and not r.livelock:
            return _empty_mesh_error()
        return EXIT_INVALID_MESH
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.api import mesh
    from repro.metrics import hausdorff_distance, quality_report
    from repro.metrics.histograms import (
        dihedral_histogram,
        radius_edge_histogram,
    )
    from repro.metrics.validate import validate_extracted_mesh

    image = _load_image(args.image)
    result = mesh(_build_request(args, image, "sequential"))
    _export_observability(args, result.observability, result.mesher,
                          result.stats, result.timings)
    if result.mesh.n_tets == 0:
        return _empty_mesh_error()

    domain = result.extras["domain"]
    q = quality_report(result.mesh)
    d = hausdorff_distance(result.mesh, image, domain.oracle)
    print(q.row())
    print(f"hausdorff={d:.3f} (delta={domain.delta})")
    labels = ", ".join(f"{k}: {v}" for k, v in sorted(q.labels.items()))
    print(f"elements per tissue: {labels}")
    issues = validate_extracted_mesh(result.mesh)
    print("validation: " + ("OK" if not issues else "; ".join(issues)))
    if args.histograms:
        print()
        print(dihedral_histogram(result.mesh))
        print()
        print(radius_edge_histogram(result.mesh))
    return EXIT_OK if not issues else EXIT_INVALID_MESH


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.viz import render_image_slice

    image = _load_image(args.image)
    print(render_image_slice(image, k=args.slice, axis=args.axis))
    return EXIT_OK


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Chrome-trace JSON of the run")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the run's metrics registry as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PI2M: parallel image-to-mesh conversion (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic image")
    p.add_argument("kind", choices=sorted(PHANTOMS))
    p.add_argument("-n", type=int, default=32, help="base resolution")
    p.add_argument("-o", "--output", required=True, help=".npz path")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("mesh", help="image-to-mesh conversion")
    p.add_argument("image", help="segmented image .npz")
    p.add_argument("--delta", type=float, default=None,
                   help="surface sampling parameter (default 2 voxels)")
    p.add_argument("--threads", type=int, default=1,
                   help="real threads of --mesher threaded")
    p.add_argument("--mesher", default="auto", choices=MESHER_CHOICES,
                   help="which mesher to run (default: sequential)")
    p.add_argument("--cm", default="local",
                   choices=["aggressive", "random", "global", "local"])
    p.add_argument("-o", "--output", default=None,
                   help=".vtk, .off, or TetGen basename")
    p.add_argument("--shards", type=_parse_shards, default=None,
                   metavar="N|auto",
                   help="domain-sharded meshing: partition the image "
                        "into N blocks, mesh them one after another "
                        "and stitch ('auto' sizes to the CPU count; "
                        "sequential mesher only)")
    p.add_argument("--kernel-stats", action="store_true",
                   help="print hot-path kernel statistics (filter hit "
                        "rate, walk lengths, cavity sizes)")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser(
        "serve",
        help="run the meshing service behind the HTTP gateway",
    )
    p.add_argument("--workers", type=int, default=4,
                   help="worker threads/processes (default 4)")
    p.add_argument("--executor", choices=("thread", "process"),
                   default="thread",
                   help="run meshing in worker threads (default) or in "
                        "spawned processes that answer over a pipe")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="admission queue bound; overflow is REJECTED")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist the content-addressed artifact cache "
                        "here (default: in-memory only)")
    p.add_argument("--http", default="127.0.0.1:8080",
                   metavar="HOST:PORT",
                   help="where the HTTP gateway listens (POST /v1/mesh, "
                        "GET /v1/jobs/<id>, /healthz, /metricsz); "
                        "default %(default)s, port 0 picks a free one")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget for transient job failures")
    p.add_argument("--max-shards", type=int, default=None,
                   metavar="N",
                   help="cap the shard count any one job may request")
    p.add_argument("--memory-cache-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="bound the in-memory artifact cache by total "
                        "result size (LRU eviction; default unbounded)")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-job deadline in seconds")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("simulate", help="simulated cc-NUMA refinement")
    p.add_argument("image", help="segmented image .npz")
    p.add_argument("--threads", type=int, default=16)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--cm", default="local",
                   choices=["aggressive", "random", "global", "local"])
    p.add_argument("--lb", default="hws", choices=["rws", "hws"])
    p.add_argument("--hyperthreading", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utilization", action="store_true",
                   help="print a per-thread-group utilization chart")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="mesh quality/fidelity report")
    p.add_argument("image", help="segmented image .npz")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--histograms", action="store_true",
                   help="print dihedral / radius-edge distributions")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("show", help="ASCII view of an image slice")
    p.add_argument("image", help="segmented image .npz")
    p.add_argument("--slice", type=int, default=None)
    p.add_argument("--axis", type=int, default=2, choices=[0, 1, 2])
    p.set_defaults(func=_cmd_show)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
