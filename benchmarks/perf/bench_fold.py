"""Folding fast-path benchmark harness.

Measures, on a reference STREAM trace (~60k memory samples), the three
tiers of the folding fast path plus the export rewrite:

* **cold fold** — ``fold_trace`` from scratch (plan build + batched
  fit), the baseline everything else is measured against;
* **plan reuse** — a 10-point bandwidth sweep through one
  :class:`~repro.folding.plan.FoldPlan` vs 10 independent cold folds;
* **report cache** — memo-tier and disk-tier hit latency of
  :class:`~repro.folding.cache.FoldCache` vs the cold fold;
* **gnuplot export** — the column-wise ``export_gnuplot`` vs a
  per-row ``f.write`` reference (the pre-fast-path implementation);
* **parallel sweep** — :func:`repro.parallel.fold_sweep` serial vs
  process pool.

Results go to ``benchmarks/results/BENCH_fold.json``.  Run it directly
(it is a script, not a pytest module — see README, "Benchmarks"):

    PYTHONPATH=src python benchmarks/perf/bench_fold.py

``--min-warm-speedup X`` / ``--min-cache-speedup X`` make the exit
status enforce plan-reuse and cache-hit floors, which CI uses as cheap
perf-regression tripwires.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from timing import best_of

from repro.extrae.tracer import TracerConfig
from repro.folding.cache import FoldCache
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.memsim.datasource import DataSource
from repro.parallel import fold_sweep
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.stream import StreamConfig, StreamWorkload

RESULTS = Path(__file__).resolve().parent.parent / "results"

STREAM_N = 2_000_000
ITERATIONS = 10
LOAD_PERIOD = 500
#: the kernel-ablation bandwidth range, 10 points
BANDWIDTHS = (0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.06, 0.08, 0.1)


def make_trace():
    return run_workload(
        StreamWorkload(StreamConfig(n=STREAM_N, iterations=ITERATIONS)),
        SessionConfig(
            seed=7,
            tracer=TracerConfig(
                load_period=LOAD_PERIOD, store_period=LOAD_PERIOD
            ),
        ),
    )


def bench_cold(trace, repeats: int) -> float:
    return best_of(repeats, lambda: fold_trace(trace))[0]


def bench_plan_reuse(trace, repeats: int, cold_fold: float) -> dict:
    t0 = time.perf_counter()
    plan = FoldPlan.from_trace(trace)
    plan_build = time.perf_counter() - t0

    def warm_sweep():
        for bw in BANDWIDTHS:
            plan.fold(bandwidth=bw)

    def cold_sweep():
        for bw in BANDWIDTHS:
            fold_trace(trace, bandwidth=bw)

    warm, _ = best_of(repeats, warm_sweep)
    cold, _ = best_of(max(1, repeats - 1), cold_sweep)
    return {
        "sweep_points": len(BANDWIDTHS),
        "plan_build_seconds": round(plan_build, 4),
        "cold_sweep_seconds": round(cold, 4),
        "warm_sweep_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 2),
        "warm_fold_seconds": round(warm / len(BANDWIDTHS), 5),
        "warm_vs_cold_fold_speedup": round(
            cold_fold / (warm / len(BANDWIDTHS)), 2
        ),
    }


def bench_cache(trace, repeats: int, cold_fold: float) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cache = FoldCache(directory=tmp)
        t0 = time.perf_counter()
        fold_trace(trace, cache=cache)
        store = time.perf_counter() - t0
        memo, _ = best_of(repeats, lambda: fold_trace(trace, cache=cache))
        # A fresh FoldCache per call = empty memo = true disk hits.
        disk, _ = best_of(
            repeats,
            lambda: fold_trace(trace, cache=FoldCache(directory=tmp)),
        )
        entry_bytes = cache.stats().total_bytes
    return {
        "cold_store_seconds": round(store, 4),
        "memo_hit_seconds": round(memo, 6),
        "disk_hit_seconds": round(disk, 5),
        "memo_hit_speedup": round(cold_fold / memo, 1),
        "disk_hit_speedup": round(cold_fold / disk, 1),
        "entry_bytes": entry_bytes,
    }


def _export_rowwise(report, directory: Path) -> None:
    """Pre-fast-path reference: one formatted ``f.write`` per row."""
    li = report.lines
    with (directory / "codeline.dat").open("w") as f:
        f.write("# sigma line_id function file line\n")
        for i in range(li.n):
            fn, file, line = li.line_of(i)
            f.write(f"{li.sigma[i]:.6f} {int(li.line_id[i])} {fn} {file} {line}\n")
    a = report.addresses
    with (directory / "addresses.dat").open("w") as f:
        f.write("# sigma address op source latency object\n")
        for i in range(a.n):
            obj = (
                report.registry.records[int(a.object_index[i])].name
                if a.object_index[i] >= 0
                else "-"
            )
            f.write(
                f"{a.sigma[i]:.6f} {int(a.address[i]):#x} {int(a.op[i])} "
                f"{DataSource(int(a.source[i])).pretty} {a.latency[i]:.1f} {obj}\n"
            )
    c = report.counters
    mips, ipc = c.mips(), c.ipc()
    rates = {
        name: c.per_instruction(name)
        for name in ("branches", "l1d_misses", "l2_misses", "l3_misses")
    }
    with (directory / "counters.dat").open("w") as f:
        f.write("# sigma mips ipc " + " ".join(rates) + "\n")
        for i, s in enumerate(c.sigma):
            cols = " ".join(f"{rates[name][i]:.6f}" for name in rates)
            f.write(f"{s:.6f} {mips[i]:.1f} {ipc[i]:.4f} {cols}\n")


def bench_export(report, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        col_dir, row_dir = Path(tmp) / "col", Path(tmp) / "row"
        row_dir.mkdir()
        columnwise, _ = best_of(repeats, lambda: report.export_gnuplot(col_dir))
        rowwise, _ = best_of(repeats, lambda: _export_rowwise(report, row_dir))
        identical = all(
            (col_dir / name).read_text() == (row_dir / name).read_text()
            for name in ("codeline.dat", "addresses.dat", "counters.dat")
        )
    return {
        "rows": report.addresses.n + report.lines.n + report.counters.sigma.size,
        "rowwise_seconds": round(rowwise, 4),
        "columnwise_seconds": round(columnwise, 4),
        "speedup": round(rowwise / columnwise, 2),
        "output_identical": identical,
    }


def bench_parallel_sweep(trace) -> dict:
    t0 = time.perf_counter()
    fold_sweep(trace, bandwidths=BANDWIDTHS, max_workers=1)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    fold_sweep(trace, bandwidths=BANDWIDTHS)
    parallel = time.perf_counter() - t0
    return {
        "sweep_points": len(BANDWIDTHS),
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial, 3),
        "parallel_seconds": round(parallel, 3),
        "speedup": round(serial / parallel, 2),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=3,
                   help="take the best of this many runs per section")
    p.add_argument("--min-warm-speedup", type=float, default=0.0,
                   help="fail unless the plan-reuse bandwidth sweep beats "
                        "cold folds by this factor")
    p.add_argument("--min-cache-speedup", type=float, default=0.0,
                   help="fail unless a cache hit beats a cold fold by this "
                        "factor")
    p.add_argument("-o", "--output", default=str(RESULTS / "BENCH_fold.json"))
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    trace = make_trace()
    trace_seconds = time.perf_counter() - t0
    cold = bench_cold(trace, args.repeats)
    report = fold_trace(trace)

    out_report = {
        "workload": f"STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                    f"sampling period {LOAD_PERIOD} -> "
                    f"{trace.n_samples} memory samples",
        "trace_generation_seconds": round(trace_seconds, 3),
        "cold_fold_seconds": round(cold, 4),
        "plan_reuse": bench_plan_reuse(trace, args.repeats, cold),
        "cache": bench_cache(trace, args.repeats, cold),
        "export_gnuplot": bench_export(report, args.repeats),
        "parallel_sweep": bench_parallel_sweep(trace),
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(out_report, indent=2) + "\n")
    print(json.dumps(out_report, indent=2))
    print(f"wrote {out}")

    failed = False
    warm = out_report["plan_reuse"]["warm_speedup"]
    if args.min_warm_speedup and warm < args.min_warm_speedup:
        print(f"FAIL: plan-reuse sweep speedup {warm}x "
              f"< required {args.min_warm_speedup}x", file=sys.stderr)
        failed = True
    hit = out_report["cache"]["memo_hit_speedup"]
    if args.min_cache_speedup and hit < args.min_cache_speedup:
        print(f"FAIL: cache-hit speedup {hit}x "
              f"< required {args.min_cache_speedup}x", file=sys.stderr)
        failed = True
    if not out_report["export_gnuplot"]["output_identical"]:
        print("FAIL: column-wise export differs from row-wise reference",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
