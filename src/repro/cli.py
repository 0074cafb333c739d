"""Command-line entry points.

Three tools mirroring the BSC workflow (monitor → fold → explore):

* ``bsc-memtools-run`` — run a workload under the tracer, write a trace
  file;
* ``bsc-memtools-fold`` — fold a trace and export the three-panel data
  (gnuplot-style .dat files) plus a text summary;
* ``bsc-memtools-report`` — the full analysis: object resolution report
  and, for HPCG traces, the Figure-1 reproduction tables;
* ``bsc-memtools-validate`` — run the trace invariant checkers
  (:mod:`repro.validate`) over a trace file;
* ``bsc-memtools-cache`` — inspect/clear/prune the content-addressed
  folded-report cache (:mod:`repro.folding.cache`);
* ``bsc-memtools-trace`` — inspect a trace container (schema,
  compression, column stats) or convert between container versions;
* ``bsc-memtools-repo`` — store/list/resolve traces in the
  content-addressed repository (:mod:`repro.repo`);
* ``bsc-memtools-serve`` — run the concurrent analysis service over
  the repository (:mod:`repro.service`).

All commands are also reachable as
``python -m repro.cli <run|fold|report|validate|cache|trace|repo|serve>``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.figures import build_figure1
from repro.extrae.storage import TRACE_COMPRESSIONS
from repro.extrae.trace import TRACE_SCHEMA_VERSION, Trace
from repro.extrae.tracer import TracerConfig
from repro.folding.report import fold_trace
from repro.memsim.engines import ENGINE_NAMES
from repro.objects.resolver import resolve_trace
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.sampler import SAMPLER_NAMES
from repro.workloads import (
    HpcgConfig,
    HpcgWorkload,
    RandomAccessWorkload,
    StencilWorkload,
    StreamWorkload,
)
from repro.workloads.randomaccess import RandomAccessConfig
from repro.workloads.stencil import StencilConfig
from repro.workloads.stream import StreamConfig

__all__ = [
    "main",
    "main_cache",
    "main_fold",
    "main_repo",
    "main_report",
    "main_run",
    "main_serve",
    "main_trace",
    "main_validate",
]


def _make_workload(
    workload: str, nx: int, nlevels: int, iterations: int,
    rank: int | None = None, npz: int | None = None,
):
    if workload == "hpcg":
        extra = {}
        if rank is not None:
            extra = {"rank": rank, "npz": npz}
        return HpcgWorkload(
            HpcgConfig(
                nx=nx, ny=nx, nz=nx,
                nlevels=nlevels, n_iterations=iterations, **extra,
            )
        )
    if workload == "stream":
        return StreamWorkload(StreamConfig(n=nx**3, iterations=iterations))
    if workload == "gups":
        return RandomAccessWorkload(RandomAccessConfig(iterations=iterations))
    if workload == "stencil":
        return StencilWorkload(
            StencilConfig(nx=nx**2 if nx < 64 else nx,
                          ny=nx**2 if nx < 64 else nx,
                          iterations=iterations)
        )
    raise SystemExit(f"unknown workload {workload!r}")


def _build_workload(args):
    return _make_workload(args.workload, args.nx, args.nlevels, args.iterations)


class _RankFactory:
    """Picklable per-rank workload factory for ``--ranks`` runs.

    HPCG gets its position in the 1-D rank stack (halo structure
    follows); the other workloads run the same local problem per rank
    (ASLR/sampling still differ through the derived seeds).
    """

    def __init__(self, workload: str, nx: int, nlevels: int, iterations: int):
        self.workload = workload
        self.nx = nx
        self.nlevels = nlevels
        self.iterations = iterations

    def __call__(self, rank: int, n_ranks: int):
        rank_args = (
            {"rank": rank, "npz": n_ranks}
            if self.workload == "hpcg"
            else {}
        )
        return _make_workload(
            self.workload, self.nx, self.nlevels, self.iterations, **rank_args
        )


def main_run(argv: list[str] | None = None) -> int:
    """``bsc-memtools-run``: trace a workload."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-run", description="Run a workload under the tracer."
    )
    p.add_argument("--workload", choices=["hpcg", "stream", "gups", "stencil"],
                   default="hpcg")
    p.add_argument("--nx", type=int, default=24, help="problem dimension")
    p.add_argument("--nlevels", type=int, default=3)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=list(ENGINE_NAMES), default="analytic")
    p.add_argument("--sampler", choices=list(SAMPLER_NAMES), default="pebs",
                   help="sampling backend: Intel PEBS event counters "
                        "(default) or an ARM SPE-like packet stream")
    p.add_argument("--load-period", type=int, default=10_000)
    p.add_argument("--store-period", type=int, default=10_000)
    p.add_argument("--no-multiplex", action="store_true",
                   help="assume load+store groups co-schedulable "
                        "(PEBS only; SPE never multiplexes)")
    p.add_argument("-o", "--output", default="run.bsctrace")
    p.add_argument("--compression", choices=list(TRACE_COMPRESSIONS),
                   default="none", help="trace column compression")
    p.add_argument("--ranks", type=int, default=1, metavar="N",
                   help="simulate an N-rank stack (HPCG ranks get their "
                        "halo position); workers spill per-rank traces "
                        "and the representative interior rank is written "
                        "to -o")
    p.add_argument("--max-workers", type=int, default=None, metavar="W",
                   help="process-pool width for --ranks (default: "
                        "min(ranks, cpus); 1 forces the serial path)")
    p.add_argument("--spill-dir", default=None, metavar="DIR",
                   help="parent directory for the run-scoped rank spill "
                        "(default: the system temp dir)")
    p.add_argument("--keep-spill", action="store_true",
                   help="preserve the per-rank spill directory instead "
                        "of removing it after the run")
    p.add_argument("--publish", action="store_true",
                   help="also store the trace in the content-addressed "
                        "repository (see bsc-memtools-repo)")
    p.add_argument("--repo-root", default=None, metavar="DIR",
                   help="repository root for --publish (default "
                        "$REPRO_TRACE_REPO or ~/.local/share/repro/traces)")
    args = p.parse_args(argv)

    config = SessionConfig(
        seed=args.seed,
        engine=args.engine,
        tracer=TracerConfig(
            sampler=args.sampler,
            load_period=args.load_period,
            store_period=args.store_period,
            multiplex=not args.no_multiplex,
        ),
    )
    if args.ranks > 1:
        return _run_rank_set(args, config)
    trace = run_workload(_build_workload(args), config)
    path = trace.save(args.output, compression=args.compression)
    print(f"wrote {path} ({trace.n_samples} samples, "
          f"{len(trace.events)} events, {len(trace.objects)} objects)")
    if args.publish:
        from repro.pipeline import publish_trace

        entry = publish_trace(trace, args.repo_root)
        print(f"published {entry.digest} -> {entry.path}")
    return 0


def _run_rank_set(args, config) -> int:
    """The ``--ranks N`` path of ``bsc-memtools-run``."""
    from repro.analysis.ranks import rank_imbalance
    from repro.parallel.ranks import RankSet
    from repro.util.tables import format_table

    rank_set = RankSet(args.ranks, config, max_workers=args.max_workers)
    factory = _RankFactory(args.workload, args.nx, args.nlevels,
                           args.iterations)
    summaries = []

    def progress(done, total, summary):
        summaries.append(summary)
        print(f"  rank {summary.rank:4d}: {summary.n_samples} samples, "
              f"{summary.duration_ns / 1e6:.2f} ms  [{done}/{total}]")

    results = rank_set.run(factory, spill_dir=args.spill_dir,
                           progress=progress)
    if rank_set.last_fallback_reason:
        print(f"note: {rank_set.last_fallback_reason}")
    rows = [
        (r.rank, r.summary.seed, r.summary.n_samples,
         r.summary.duration_ns / 1e6, r.summary.digest[:12])
        for r in results
    ]
    print(format_table(
        ["rank", "seed", "samples", "duration ms", "digest"],
        rows,
        title=f"{args.ranks}-rank {args.workload} stack",
    ))
    for metric, values in (
        ("samples", [s.n_samples for s in summaries]),
        ("duration_ns", [s.duration_ns for s in summaries]),
    ):
        im = rank_imbalance(values, metric)
        print(f"  {metric}: min {im.min:,.0f} / median {im.median:,.0f} / "
              f"max {im.max:,.0f} (max/mean {im.imbalance_factor:.3f})")
    interior = results[args.ranks // 2]
    path = interior.trace.save(args.output, compression=args.compression)
    print(f"wrote {path} (interior rank {interior.rank} "
          f"of {args.ranks})")
    if rank_set.spill_dir is not None:
        if args.keep_spill:
            print(f"per-rank spill kept at {rank_set.spill_dir}")
        else:
            rank_set.cleanup_spill()
    return 0


def main_fold(argv: list[str] | None = None) -> int:
    """``bsc-memtools-fold``: fold a trace and export panel data."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-fold", description="Fold a trace into the 3-panel report."
    )
    p.add_argument("trace", help="trace file written by bsc-memtools-run")
    p.add_argument("-o", "--output-dir", default="folded")
    p.add_argument("--bandwidth", type=float, default=0.015,
                   help="kernel smoothing width in normalized time")
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--align", nargs="*", metavar="REGION", default=None,
                   help="piecewise-align instances on these regions' "
                        "enter events (default regions when given empty)")
    p.add_argument("--cache", action="store_true",
                   help="serve/store the folded report through the "
                        "content-addressed on-disk cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (implies --cache; default "
                        "$REPRO_FOLD_CACHE_DIR or ~/.cache/repro/folding)")
    p.add_argument("--stream", action="store_true",
                   help="fold the performance panel chunk by chunk with "
                        "O(chunk) memory (counters.dat only; bit-identical "
                        "curves)")
    p.add_argument("--directions", default=None, metavar="D1,D2,...",
                   help="with --stream: comma-separated fold directions "
                        "(counters,address,lines) — address/lines add the "
                        "bounded streamed scatter and line track to the "
                        "export")
    p.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                   help="rows per streamed chunk (with --stream)")
    p.add_argument("--live-report-every", type=int, default=None, metavar="N",
                   help="with --stream: print a partial-curves progress "
                        "line every N chunks")
    p.add_argument("--reps", type=int, default=None, metavar="N",
                   help="fold only N representative instances (cluster "
                        "medoids) and extrapolate by cluster weight "
                        "(counters.dat only)")
    p.add_argument("--rep-seed", type=int, default=0, metavar="SEED",
                   help="clustering seed for --reps (default 0)")
    p.add_argument("--rep-report", action="store_true",
                   help="with --reps: also run the exact fold and print "
                        "the measured fidelity bound (costs the full fold)")
    args = p.parse_args(argv)

    align = None
    if args.align is not None:
        align = tuple(args.align) if args.align else (
            "ComputeSYMGS_ref", "ComputeSPMV_ref", "ComputeMG_ref"
        )
    cache = None
    if args.cache or args.cache_dir:
        from repro.folding.cache import FoldCache

        cache = FoldCache(args.cache_dir)
    if args.rep_report and args.reps is None:
        p.error("--rep-report requires --reps")
    if args.reps is not None:
        if args.stream:
            p.error("--reps already folds sub-linearly (drop --stream)")
        if align is not None:
            p.error("--align needs the exact resident fold (drop --reps)")
        if args.reps < 1:
            p.error("--reps must be >= 1")
        trace = Trace.load(args.trace)
        if args.rep_report:
            from repro.folding.extrapolate import measure_fidelity

            ext, bound = measure_fidelity(
                trace, args.reps, seed=args.rep_seed,
                grid_points=args.grid, bandwidth=args.bandwidth,
            )
        else:
            ext = fold_trace(
                trace, grid_points=args.grid, bandwidth=args.bandwidth,
                cache=cache, rep_budget=args.reps, rep_seed=args.rep_seed,
            )
        written = ext.export_gnuplot(args.output_dir)
        print(ext.summary())
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.stream:
        if align is not None:
            p.error("--align needs the resident fold (drop --stream)")
        from repro.folding.stream import DEFAULT_CHUNK_ROWS, stream_fold_trace

        def _progress(snapshot):
            mips = snapshot.mips()
            print(f"  partial fold: mean MIPS {float(mips.mean()):.1f} "
                  f"over σ grid of {mips.size}")

        directions = None
        if args.directions:
            directions = tuple(
                d.strip() for d in args.directions.split(",") if d.strip()
            )
        # Pass the path, not a loaded Trace: the streaming driver then
        # only ever materializes O(chunk) column slices.
        streamed = stream_fold_trace(
            args.trace,
            chunk_rows=(args.chunk_rows if args.chunk_rows is not None
                        else DEFAULT_CHUNK_ROWS),
            grid_points=args.grid,
            bandwidth=args.bandwidth,
            cache=cache,
            report_every=args.live_report_every,
            on_snapshot=_progress if args.live_report_every else None,
            directions=directions,
        )
        written = streamed.export_gnuplot(args.output_dir)
        print(streamed.summary())
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.chunk_rows is not None or args.live_report_every is not None:
        p.error("--chunk-rows/--live-report-every require --stream")
    if args.directions is not None:
        p.error("--directions requires --stream")
    trace = Trace.load(args.trace)
    report = fold_trace(trace, grid_points=args.grid,
                        bandwidth=args.bandwidth, align_regions=align,
                        cache=cache)
    written = report.export_gnuplot(args.output_dir)
    print(report.summary())
    for path in written:
        print(f"wrote {path}")
    return 0


def main_report(argv: list[str] | None = None) -> int:
    """``bsc-memtools-report``: objects + (for HPCG) Figure-1 tables."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-report", description="Analyse a folded trace."
    )
    p.add_argument("trace")
    p.add_argument("--export-dir", default=None,
                   help="also write the figure panels here")
    p.add_argument("--ascii", action="store_true",
                   help="render the three-panel figure in the terminal")
    p.add_argument("--streams", action="store_true",
                   help="print the dominant data-stream table")
    p.add_argument("--advise", action="store_true",
                   help="print hybrid-memory placement advice")
    p.add_argument("--overhead", action="store_true",
                   help="print the monitoring-overhead model")
    p.add_argument("--regions", action="store_true",
                   help="print the per-code-region progression table")
    p.add_argument("--roofline", action="store_true",
                   help="print the roofline positions of the folded phases")
    p.add_argument("--paraver", default=None, metavar="BASENAME",
                   help="export the trace as Paraver .prv/.pcf/.row")
    args = p.parse_args(argv)

    trace = Trace.load(args.trace)
    print(resolve_trace(trace).to_table())
    print()
    report = None
    if trace.metadata.get("workload") == "hpcg":
        report = fold_trace(trace)
        figure = build_figure1(report)
        print(figure.render())
        if args.ascii:
            from repro.folding.ascii_plot import render_figure

            print()
            print(render_figure(report, figure.phases))
        if args.streams:
            from repro.analysis.streams import identify_streams

            print()
            print(identify_streams(report, figure.phases).to_table())
        if args.advise:
            from repro.analysis.hybrid import advise_placement

            print()
            print(advise_placement(report).to_table())
        if args.regions:
            from repro.analysis.regions import region_progress

            print()
            print(region_progress(trace).to_table())
        if args.roofline:
            from repro.analysis.roofline import roofline

            print()
            print(roofline(report, figure.phases).to_table())
        if args.export_dir:
            for path in figure.export(args.export_dir):
                print(f"wrote {path}")
    if args.overhead:
        from repro.extrae.overhead import estimate_overhead

        print()
        print(estimate_overhead(trace).to_table())
    if args.paraver:
        from repro.extrae.paraver import export_paraver

        for path in export_paraver(trace, args.paraver):
            print(f"wrote {path}")
    return 0


def main_validate(argv: list[str] | None = None) -> int:
    """``bsc-memtools-validate``: run the trace invariant checkers."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-validate",
        description="Check a trace file against the trace invariants "
        "(time order, address plausibility, source legality, intern "
        "tables, folding mass conservation).",
    )
    p.add_argument("trace", help="trace file written by bsc-memtools-run")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings, not only errors")
    p.add_argument("--no-fold", action="store_true",
                   help="skip the folding mass-conservation check "
                        "(cheaper on huge traces)")
    args = p.parse_args(argv)

    from repro.validate.invariants import validate_trace

    trace = Trace.load(args.trace)
    report = validate_trace(trace, fold=not args.no_fold)
    print(report.summary())
    if not report.ok:
        return 1
    return 1 if (args.strict and report.warnings) else 0


def main_cache(argv: list[str] | None = None) -> int:
    """``bsc-memtools-cache``: manage the folded-report cache."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-cache",
        description="Inspect, clear or prune the content-addressed "
        "folded-report cache.",
    )
    p.add_argument("action", choices=["info", "clear", "prune"],
                   nargs="?", default="info")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="cache directory (default $REPRO_FOLD_CACHE_DIR "
                        "or ~/.cache/repro/folding)")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="prune down to this size instead of the default "
                        "bound")
    args = p.parse_args(argv)

    from repro.folding.cache import FoldCache

    cache = FoldCache(args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached report(s)")
    elif args.action == "prune":
        removed = cache.prune(args.max_bytes)
        print(f"evicted {removed} cached report(s)")
    print(cache.stats().summary())
    return 0


def _v1_n_samples(path: str) -> int:
    """Sample count of a v1 container from one npy header (O(metadata)).

    The v1 layout nests an npz inside the zip; the row count is in the
    header of any ``.npy`` member, so only those few bytes are
    decompressed — never a column.
    """
    import zipfile

    import numpy as np

    with zipfile.ZipFile(path) as zf, zf.open("samples.npz") as f, \
            zipfile.ZipFile(f) as npz:
        names = npz.namelist()
        if not names:
            return 0
        member = "time_ns.npy" if "time_ns.npy" in names else names[0]
        with npz.open(member) as m:
            version = np.lib.format.read_magic(m)
            if version == (1, 0):
                shape, _, _ = np.lib.format.read_array_header_1_0(m)
            else:
                shape, _, _ = np.lib.format.read_array_header_2_0(m)
            return int(shape[0]) if shape else 1


def _trace_info(path: str) -> None:
    import json
    import zipfile

    with zipfile.ZipFile(path) as zf:
        sidecar = json.loads(zf.read("trace.json"))
        infos = zf.infolist()
    schema = sidecar.get("schema") or 1
    print(f"{path}: trace container v{schema}")
    span = None
    if schema == 2:
        from repro.extrae.storage import ColumnReader

        with ColumnReader(path) as reader:
            manifest = reader.manifest
            n_samples = reader.n_samples
            if n_samples and "time_ns" in manifest:
                span = (
                    float(reader.peek("time_ns", 0)),
                    float(reader.peek("time_ns", -1)),
                )
        print(f"  compression: {sidecar.get('compression', 'none')}")
    else:
        manifest = {}
        n_samples = _v1_n_samples(path)
        print("  compression: deflate (npz)")
    print(f"  samples:     {n_samples}")
    if span is not None:
        print(f"  time span:   {span[0]:.0f} .. {span[1]:.0f} ns")
    print(f"  events:      {len(sidecar.get('events', []))}")
    print(f"  objects:     {len(sidecar.get('objects', []))}")
    print(f"  labels:      {len(sidecar.get('labels', []))}")
    print(f"  callstacks:  {len(sidecar.get('callstacks', []))}")
    stored = {info.filename: info for info in infos}
    if manifest:
        print(f"  {'column':<18} {'dtype':<6} {'bytes':>12} {'stored':>12}")
        for name, spec in manifest.items():
            info = stored.get(f"columns/{name}.bin")
            print(f"  {name:<18} {spec['dtype']:<6} "
                  f"{info.file_size if info else 0:>12} "
                  f"{info.compress_size if info else 0:>12}")
    else:
        for info in infos:
            print(f"  member {info.filename}: {info.file_size} bytes "
                  f"({info.compress_size} stored)")


def main_trace(argv: list[str] | None = None) -> int:
    """``bsc-memtools-trace``: inspect/convert trace containers."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-trace",
        description="Inspect a trace container or rewrite it (any "
        "readable version) as the current container.",
    )
    sub = p.add_subparsers(dest="action", required=True)
    p_info = sub.add_parser(
        "info", help="show schema, compression and column stats"
    )
    p_info.add_argument("trace")
    p_conv = sub.add_parser(
        "convert",
        help="rewrite a trace as the current container version",
    )
    p_conv.add_argument("trace")
    p_conv.add_argument("-o", "--output", required=True)
    p_conv.add_argument("--compression", choices=list(TRACE_COMPRESSIONS),
                        default="none", help="column compression")
    p_conv.add_argument("--verify", action="store_true",
                        help="reload the converted file and check the "
                        "content digest is unchanged")
    args = p.parse_args(argv)

    if args.action == "info":
        _trace_info(args.trace)
        return 0
    trace = Trace.load(args.trace)
    out = trace.save(args.output, compression=args.compression)
    print(f"wrote {out} (v{TRACE_SCHEMA_VERSION}, {trace.n_samples} samples)")
    if args.verify:
        if Trace.load(out).digest() != trace.digest():
            print("digest mismatch after conversion", file=sys.stderr)
            return 1
        print("digest verified")
    return 0


def main_repo(argv: list[str] | None = None) -> int:
    """``bsc-memtools-repo``: the content-addressed trace repository."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-repo",
        description="Store, list and resolve traces in the "
        "content-addressed repository.",
    )
    p.add_argument("--root", default=None, metavar="DIR",
                   help="repository root (default $REPRO_TRACE_REPO or "
                        "~/.local/share/repro/traces)")
    sub = p.add_subparsers(dest="action", required=True)
    p_put = sub.add_parser("put", help="store a trace container")
    p_put.add_argument("trace", nargs="+")
    p_ls = sub.add_parser("list", help="list stored traces")
    p_ls.add_argument("--json", action="store_true", dest="as_json")
    p_info = sub.add_parser("info", help="show one entry's metadata")
    p_info.add_argument("digest")
    p_path = sub.add_parser("path", help="print a container's path")
    p_path.add_argument("digest")
    p_rm = sub.add_parser("rm", help="remove an entry")
    p_rm.add_argument("digest")
    sub.add_parser("reindex", help="rebuild index.json from disk")
    args = p.parse_args(argv)

    import json as _json

    from repro.repo import RepoError, TraceRepo

    repo = TraceRepo(args.root)
    try:
        if args.action == "put":
            for path in args.trace:
                entry = repo.put(path)
                print(f"{entry.digest}  {path}")
        elif args.action == "list":
            entries = repo.list()
            if args.as_json:
                print(_json.dumps(
                    {e.digest: e.meta for e in entries}, indent=2, sort_keys=True
                ))
            else:
                header = ("digest", "workload", "engine", "sampler",
                          "seed", "samples", "ms")
                rows = [e.summary_row() for e in entries]
                widths = [
                    max(len(str(h)), *(len(str(r[i])) for r in rows))
                    if rows else len(str(h))
                    for i, h in enumerate(header)
                ]
                print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
                for row in rows:
                    print("  ".join(
                        str(v).ljust(w) for v, w in zip(row, widths)
                    ))
                print(f"{len(entries)} trace(s) in {repo.root}")
        elif args.action == "info":
            entry = repo.entry(args.digest)
            print(_json.dumps(entry.meta, indent=2, sort_keys=True))
        elif args.action == "path":
            print(repo.get(args.digest))
        elif args.action == "rm":
            print(f"removed {repo.remove(args.digest)}")
        elif args.action == "reindex":
            index = repo.reindex()
            print(f"indexed {index['n_traces']} trace(s) in {repo.root}")
    except RepoError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    return 0


def main_serve(argv: list[str] | None = None) -> int:
    """``bsc-memtools-serve``: run the concurrent analysis service."""
    p = argparse.ArgumentParser(
        prog="bsc-memtools-serve",
        description="Serve trace listings, index queries and folded "
        "reports from the trace repository over HTTP/JSON.",
    )
    p.add_argument("--root", default=None, metavar="DIR",
                   help="repository root (default $REPRO_TRACE_REPO or "
                        "~/.local/share/repro/traces)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0 = ephemeral; default 8787)")
    p.add_argument("--workers", type=int, default=2,
                   help="fold worker processes (default 2)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="fold cache shared with the workers "
                        "(default <root>/foldcache)")
    p.add_argument("--trace-cache", type=int, default=8,
                   help="open traces kept mapped (default 8)")
    p.add_argument("--max-requests", type=int, default=None,
                   help="stop after N requests (for tests/benchmarks)")
    args = p.parse_args(argv)

    from repro.repo import TraceRepo
    from repro.service import AnalysisServer

    repo = TraceRepo(args.root)
    server = AnalysisServer(
        repo,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        trace_cache_capacity=args.trace_cache,
        max_requests=args.max_requests,
    )

    async def _serve():
        await server.start()
        print(f"serving {repo.root} on http://{server.host}:{server.port} "
              f"({server.workers} fold workers)", flush=True)
        try:
            await server._stopped.wait()
        finally:
            await server.stop()

    import asyncio

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """Dispatcher for ``python -m repro.cli``."""
    commands = {
        "run": main_run,
        "fold": main_fold,
        "report": main_report,
        "validate": main_validate,
        "cache": main_cache,
        "trace": main_trace,
        "repo": main_repo,
        "serve": main_serve,
    }
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in commands:
        print(
            f"usage: python -m repro.cli {{{','.join(commands)}}} [options]",
            file=sys.stderr,
        )
        return 2
    command, rest = argv[0], argv[1:]
    return commands[command](rest)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
