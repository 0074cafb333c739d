"""Streamed fold and three-direction report benchmark harness.

Generates a multi-million-sample STREAM trace, saves it as a v2
``ZIP_STORED`` container, and folds it three ways from the file:

* **resident** — ``Trace.load`` + :func:`repro.folding.report.fold_trace`:
  the whole sample table plus the per-sample address scatter and line
  track are materialized in the parent;
* **streamed counters** — :func:`repro.folding.stream.stream_fold_trace`
  on the *path*: two passes of O(chunk) column slices through the fold
  kernel, performance direction only;
* **streamed report** — the same with
  ``directions=("counters", "address", "lines")``: the kernel's
  projection also feeds bounded per-direction state (exact accounting,
  reservoir + density sketch, line/region count matrices).

Every run executes under :func:`memprof.memory_probe`; the headline
ratios divide the resident tracemalloc peak (exact Python-level
allocation high-water marks; the streamed reader deliberately avoids
``mmap`` so its chunks are visible to tracemalloc) by each streamed
one.  The ratios only count if the streamed products are faithful, so
the harness always enforces:

* both streamed folds' counter curves digest-match the resident fold
  (:func:`repro.folding.model.fold_digest`);
* the streamed address *accounting* and *line matrices* digest-match
  the resident views (they are exact, not approximations);
* the density sketch digest-matches binning the resident scatter;
* the *measured* reservoir band-density error stays under
  ``--max-band-error`` (the one genuinely approximate product).

Results go to ``benchmarks/results/BENCH_streamreport.json``.  Run
directly:

    PYTHONPATH=src python benchmarks/perf/bench_streamreport.py

``--min-mem-ratio X`` (applied to both streamed folds) and
``--max-band-error E`` turn the bounds into exit-status tripwires for
CI.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from memprof import memory_probe

from repro.extrae.trace import Trace
from repro.extrae.tracer import TracerConfig
from repro.folding.address import RESERVOIR_CAPACITY, DensitySketch
from repro.folding.report import fold_trace
from repro.folding.stream import fold_digest, stream_fold_trace
from repro.folding.stream_views import lines_from_folded
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.stream import StreamConfig, StreamWorkload

RESULTS = Path(__file__).resolve().parent.parent / "results"

DIRECTIONS = ("counters", "address", "lines")

# ~12M memory samples: the acceptance scale (>= 10M) where the resident
# report's per-sample views are GBs while the streamed report keeps
# O(chunk + summary).
STREAM_N = 5_000_000
ITERATIONS = 16
PERIOD = 10


def make_trace_file(tmp: Path, stream_n: int, iterations: int, period: int):
    trace = run_workload(
        StreamWorkload(StreamConfig(n=stream_n, iterations=iterations)),
        SessionConfig(
            seed=11,
            tracer=TracerConfig(load_period=period, store_period=period),
        ),
    )
    path = tmp / "streamreport.bsctrace"
    trace.save(path, version=2, compression="none")
    n = trace.n_samples
    del trace
    gc.collect()
    return path, n


def bench_resident(path: Path):
    """Resident three-direction report; returns compact references.

    Only digests and the per-band density vector survive the probe —
    the references the streamed side is checked against must not keep
    the resident views alive while the streamed side is measured.
    """
    gc.collect()
    with memory_probe() as probe:
        trace = Trace.load(path)
        report = fold_trace(trace)
        a = report.addresses
        # The resident view holds every kept sample; binned over the
        # streamed sketch's span (the kept-address extremes) it is the
        # reference the sketch must equal.
        sketch = DensitySketch.empty(int(a.address.min()), int(a.address.max()))
        sketch.add(a.sigma, a.address)
        refs = {
            "counters_digest": fold_digest(report),
            "accounting_digest": a.accounting.digest(),
            "lines_digest": lines_from_folded(report.lines).digest(),
            "sketch_digest": sketch.digest(),
            "band_density": sketch.band_density(),
            "matched_fraction": a.matched_fraction(),
            "n_scatter": a.n,
            "n_folded": report.samples.n,
        }
    del report, trace, a, sketch
    gc.collect()
    return refs, probe


def bench_streamed(path: Path, chunk_rows: int, directions=None):
    gc.collect()
    with memory_probe() as probe:
        report = stream_fold_trace(
            path, chunk_rows=chunk_rows, directions=directions
        )
    gc.collect()
    return report, probe


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--stream-n", type=int, default=STREAM_N)
    p.add_argument("--iterations", type=int, default=ITERATIONS)
    p.add_argument("--period", type=int, default=PERIOD,
                   help="PEBS sampling period (smaller = more samples)")
    p.add_argument("--chunk-rows", type=int, default=None,
                   help="streamed chunk size (default: the library default)")
    p.add_argument("--min-mem-ratio", type=float, default=0.0,
                   help="fail unless each streamed fold's tracemalloc peak "
                        "is at least this factor below the resident report's")
    p.add_argument("--max-band-error", type=float, default=0.0,
                   help="fail if the reservoir's measured band-density error "
                        "exceeds this (0 disables the tripwire)")
    p.add_argument("-o", "--output",
                   default=str(RESULTS / "BENCH_streamreport.json"))
    args = p.parse_args(argv)

    from repro.extrae.storage import DEFAULT_CHUNK_ROWS

    chunk_rows = args.chunk_rows or DEFAULT_CHUNK_ROWS

    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        path, n_samples = make_trace_file(
            Path(tmp), args.stream_n, args.iterations, args.period
        )
        generate_s = time.perf_counter() - t0

        refs, resident = bench_resident(path)
        counters_fold, counters_only = bench_streamed(path, chunk_rows)
        streamed_report, streamed = bench_streamed(path, chunk_rows, DIRECTIONS)

        file_bytes = path.stat().st_size

    a = streamed_report.addresses
    sketch = a.sketch
    reservoir_density = np.bincount(
        sketch.band_of(a.address), minlength=sketch.bands
    ) / max(a.n, 1)
    band_error = float(
        np.abs(reservoir_density - refs["band_density"]).max()
    )
    checks = {
        "counters_only_digest_equal": (
            fold_digest(counters_fold) == refs["counters_digest"]
        ),
        "counters_digest_equal": (
            fold_digest(streamed_report.performance) == refs["counters_digest"]
        ),
        "accounting_digest_equal": (
            a.accounting.digest() == refs["accounting_digest"]
        ),
        "lines_digest_equal": (
            streamed_report.lines.digest() == refs["lines_digest"]
        ),
        "sketch_digest_equal": sketch.digest() == refs["sketch_digest"],
        "matched_fraction_error": abs(
            a.matched_fraction() - refs["matched_fraction"]
        ),
    }
    exact = all(v is True for k, v in checks.items() if k.endswith("_equal"))
    mem_ratio = resident.traced_peak_bytes / max(streamed.traced_peak_bytes, 1)
    counters_mem_ratio = resident.traced_peak_bytes / max(
        counters_only.traced_peak_bytes, 1
    )
    report = {
        "workload": f"STREAM n={args.stream_n}, {args.iterations} iterations, "
                    f"sampling period {args.period} -> "
                    f"{n_samples} memory samples",
        "n_samples": n_samples,
        "file_bytes": file_bytes,
        "generate_seconds": round(generate_s, 3),
        "chunk_rows": chunk_rows,
        "directions": list(DIRECTIONS),
        "resident": {
            **resident.as_dict(),
            "seconds": round(resident.elapsed_s, 3),
            "n_folded": refs["n_folded"],
            "n_scatter": refs["n_scatter"],
        },
        "streamed_counters": {
            **counters_only.as_dict(),
            "seconds": round(counters_only.elapsed_s, 3),
            "n_folded": counters_fold.n_folded,
        },
        "streamed": {
            **streamed.as_dict(),
            "seconds": round(streamed.elapsed_s, 3),
            "n_folded": streamed_report.n_folded,
            "reservoir_points": a.n,
            "reservoir_capacity": RESERVOIR_CAPACITY,
            "sketch_shape": [sketch.bands, sketch.sigma_bins],
            "line_rows": len(streamed_report.lines.line_table),
        },
        "peak_memory_ratio": round(mem_ratio, 1),
        "counters_peak_memory_ratio": round(counters_mem_ratio, 1),
        "rss_peak_ratio": round(
            resident.rss_peak_delta_bytes
            / max(streamed.rss_peak_delta_bytes, 1),
            1,
        ),
        "exact_parts_digest_equal": exact,
        "reservoir_band_error": band_error,
        "checks": checks,
    }

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out}")

    failed = False
    if not exact:
        print("FAIL: a streamed exact product differs from the resident "
              f"report: {checks}", file=sys.stderr)
        failed = True
    for what, ratio in (("counters-only", counters_mem_ratio),
                        ("three-direction", mem_ratio)):
        if args.min_mem_ratio and ratio < args.min_mem_ratio:
            print(f"FAIL: {what} peak-memory ratio {ratio:.1f}x "
                  f"< required {args.min_mem_ratio}x", file=sys.stderr)
            failed = True
    if args.max_band_error and band_error > args.max_band_error:
        print(f"FAIL: reservoir band-density error {band_error:.4f} "
              f"> allowed {args.max_band_error}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
