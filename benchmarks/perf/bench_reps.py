"""Representative-instance sampling benchmark harness.

Generates an HPCG-class trace (many repeated iterations of the same
phase structure), then folds the performance direction twice:

* **exact** — :func:`repro.folding.stream.stream_fold_trace` with the
  whole table as one chunk: the fold kernel's performance-only fold,
  every instance's samples through the kernel-regression design;
* **representative** — ``fold_trace(trace, rep_budget=N)``: cluster the
  per-instance signatures, fold only the ``N`` medoid instances, and
  extrapolate by cluster weight.

Both paths produce the same counters-only surface, so the timing ratio
is the honest fold-path speedup (the representative number includes
signature extraction, k-means and medoid selection).  Fidelity is
*measured*, not assumed: the per-counter max pointwise distance between
the extrapolated and exact cumulative curves, plus the relative error
of the weighted totals.  A ``budget = n_instances`` fold is always
digest-checked against the exact fold — the speedup only counts if the
exhaustive selection is bit-identical.

Results go to ``benchmarks/results/BENCH_reps.json``.  Run directly:

    PYTHONPATH=src python benchmarks/perf/bench_reps.py

``--min-speedup X`` / ``--max-error F`` turn the headline numbers into
exit-status tripwires for CI; the digest check is always enforced.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from repro.extrae.tracer import TracerConfig
from repro.folding.extrapolate import measure_fidelity
from repro.folding.report import fold_trace
from repro.folding.stream import fold_digest, stream_fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.workloads import HpcgConfig, HpcgWorkload

RESULTS = Path(__file__).resolve().parent.parent / "results"

# The acceptance scale: enough repeated iterations that per-sample fold
# cost dominates and a small representative budget can amortize it.
NX = 16
NLEVELS = 2
ITERATIONS = 50
PERIOD = 100
BUDGET = 8


def make_trace(nx: int, nlevels: int, iterations: int, period: int):
    return run_workload(
        HpcgWorkload(HpcgConfig(nx=nx, ny=nx, nz=nx, nlevels=nlevels,
                                n_iterations=iterations)),
        SessionConfig(
            seed=11,
            tracer=TracerConfig(load_period=period, store_period=period,
                                randomization=0.05),
        ),
    )


def best_of(repeats: int, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--nx", type=int, default=NX)
    p.add_argument("--nlevels", type=int, default=NLEVELS)
    p.add_argument("--iterations", type=int, default=ITERATIONS)
    p.add_argument("--period", type=int, default=PERIOD)
    p.add_argument("--budget", type=int, default=BUDGET,
                   help="representative instances to fold")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats (best-of)")
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="fail unless exact/representative fold time is at "
                        "least this ratio")
    p.add_argument("--max-error", type=float, default=0.0,
                   help="fail if the max per-counter cumulative-curve "
                        "error exceeds this fraction")
    p.add_argument("-o", "--output", default=str(RESULTS / "BENCH_reps.json"))
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    trace = make_trace(args.nx, args.nlevels, args.iterations, args.period)
    generate_s = time.perf_counter() - t0

    exact_s, exact = best_of(
        args.repeats,
        lambda: stream_fold_trace(trace, chunk_rows=trace.n_samples),
    )
    rep_s, rep = best_of(
        args.repeats, lambda: fold_trace(trace, rep_budget=args.budget)
    )
    n = exact.instances.n

    # fidelity is measured against the exact fold, never assumed
    _, bound = measure_fidelity(trace, args.budget)

    # the exhaustive selection must reproduce the exact fold bit for bit
    exhaustive = fold_trace(trace, rep_budget=n)
    digests_equal = exhaustive.digest() == fold_digest(exact)

    speedup = exact_s / max(rep_s, 1e-12)
    report = {
        "workload": f"HPCG nx={args.nx} nlevels={args.nlevels} "
                    f"{args.iterations} iterations, sampling period "
                    f"{args.period} -> {trace.n_samples} memory samples",
        "n_samples": trace.n_samples,
        "n_instances": n,
        "budget": args.budget,
        "generate_seconds": round(generate_s, 3),
        "exact": {
            "seconds": round(exact_s, 4),
            "n_folded": exact.n_folded,
        },
        "representative": {
            "seconds": round(rep_s, 4),
            "n_folded": rep.n_folded,
            "n_clusters": rep.representatives.n_clusters,
        },
        "fold_speedup": round(speedup, 2),
        "max_curve_error": round(bound.max_curve_error, 5),
        "max_totals_error": round(bound.max_total_error, 5),
        "curve_error": {k: round(v, 5) for k, v in bound.curve_error.items()},
        "exhaustive_digest_identical": digests_equal,
    }

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out}")

    failed = False
    if not digests_equal:
        print("FAIL: budget=n_instances fold is not digest-identical to "
              "the exact fold", file=sys.stderr)
        failed = True
    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: fold speedup {speedup:.2f}x "
              f"< required {args.min_speedup}x", file=sys.stderr)
        failed = True
    if args.max_error and bound.max_curve_error > args.max_error:
        print(f"FAIL: max curve error {bound.max_curve_error:.4f} "
              f"> allowed {args.max_error}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
