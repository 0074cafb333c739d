"""Analysis-service benchmark: concurrent clients, cold vs warm folds.

Builds a temporary content-addressed repository with two STREAM
traces, starts the :class:`~repro.service.server.AnalysisServer` on an
ephemeral port, and drives it in two phases:

* **cold** — every (trace, direction) fold key is requested once
  against an empty fold cache, so each one pays a real fold in the
  worker pool;
* **warm** — N concurrent clients (default 8) issue a mixed stream of
  fold, window and region requests against the now-warm caches; half
  the clients revalidate with ``If-None-Match`` (304 path), half fetch
  full bodies (response-cache path).

Headline numbers: warm throughput (requests/s), warm p50/p99 latency,
and the **warm-vs-cold speedup** (mean cold fold latency over median
warm fold latency).  Correctness is enforced, not sampled: every fold
payload the service returns is digest-checked against a direct
:func:`~repro.folding.report.fold_trace` of the same container, and a
single mismatch fails the run regardless of the speedup.

Results go to ``benchmarks/results/BENCH_service.json``.  Run directly:

    PYTHONPATH=src python benchmarks/perf/bench_service.py

``--min-warm-speedup X`` and ``--clients N`` turn the headline numbers
into CI tripwires.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.extrae.tracer import TracerConfig
from repro.folding.report import fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.repo import TraceRepo
from repro.service import AnalysisServer, ServiceClient
from repro.service.payloads import (
    address_payload,
    counters_payload,
    lines_payload,
)
from repro.workloads.stream import StreamConfig, StreamWorkload

RESULTS = Path(__file__).resolve().parent.parent / "results"

DIRECTIONS = ("counters", "address", "lines")


def build_repo(root: Path, stream_n: int, iterations: int, period: int, seeds):
    """Populate a repository and return {digest: reference payloads}."""
    repo = TraceRepo(root)
    reference = {}
    for seed in seeds:
        trace = run_workload(
            StreamWorkload(StreamConfig(n=stream_n, iterations=iterations)),
            SessionConfig(
                seed=seed,
                tracer=TracerConfig(load_period=period, store_period=period),
            ),
        )
        entry = repo.put(trace)
        report = fold_trace(trace)
        reference[entry.digest] = {
            "n_samples": trace.n_samples,
            "counters": counters_payload(report)["payload_digest"],
            "address": address_payload(report)["payload_digest"],
            "lines": lines_payload(report)["payload_digest"],
        }
    return repo, reference


def run_cold_phase(port: int, reference: dict) -> tuple[list, list, int]:
    """Request every fold key once; verify digests; return latencies.

    The first (counters) fold per trace hits an empty fold cache and
    pays a real fold in the worker pool — those latencies are the
    *cold* baseline.  The remaining directions reuse the resident
    report the cold fold cached, so they land in the first-request
    (but cache-warm) bucket.
    """
    cold, first, mismatches = [], [], 0
    with ServiceClient("127.0.0.1", port) as client:
        for digest, want in reference.items():
            for direction in DIRECTIONS:
                t0 = time.perf_counter()
                payload = client.fold(digest, direction)
                elapsed = time.perf_counter() - t0
                (cold if direction == "counters" else first).append(elapsed)
                if payload["payload_digest"] != want[direction]:
                    mismatches += 1
            # the streamed counters path must land on the same digest
            streamed = client.fold(digest, "counters", stream=True)
            if streamed["payload_digest"] != want["counters"]:
                mismatches += 1
    return cold, first, mismatches


def warm_client(port: int, reference: dict, requests: int, revalidate: bool):
    """One concurrent client's mixed warm workload."""
    fold_lat, query_lat, mismatches, errors = [], [], 0, 0
    digests = sorted(reference)
    try:
        with ServiceClient("127.0.0.1", port) as client:
            for i in range(requests):
                digest = digests[i % len(digests)]
                kind = i % 5
                t0 = time.perf_counter()
                if kind < 3:  # folds dominate the mix
                    direction = DIRECTIONS[kind]
                    payload = client.fold(
                        digest, direction, revalidate=revalidate
                    )
                    fold_lat.append(time.perf_counter() - t0)
                    want = reference[digest][direction]
                    if payload["payload_digest"] != want:
                        mismatches += 1
                elif kind == 3:
                    client.window(digest, 0.0, 1e15)
                    query_lat.append(time.perf_counter() - t0)
                else:
                    client.regions(digest)
                    query_lat.append(time.perf_counter() - t0)
    except Exception:
        errors += 1
    return fold_lat, query_lat, mismatches, errors


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--stream-n", type=int, default=400_000)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--period", type=int, default=6,
                   help="sampling period (smaller = more samples)")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent warm-phase clients")
    p.add_argument("--requests", type=int, default=25,
                   help="warm requests per client")
    p.add_argument("--workers", type=int, default=2,
                   help="server fold worker processes")
    p.add_argument("--min-warm-speedup", type=float, default=0.0,
                   help="fail unless mean cold fold latency / median warm "
                        "fold latency reaches this factor")
    p.add_argument("-o", "--output",
                   default=str(RESULTS / "BENCH_service.json"))
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        repo, reference = build_repo(
            Path(tmp) / "repo", args.stream_n, args.iterations,
            args.period, seeds=(21, 22),
        )
        generate_s = time.perf_counter() - t0

        server = AnalysisServer(repo, workers=args.workers)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while not server.port and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.port, "server did not come up"

        cold_lat, first_lat, cold_mismatches = run_cold_phase(
            server.port, reference
        )

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            results = list(
                pool.map(
                    lambda i: warm_client(
                        server.port, reference, args.requests,
                        revalidate=(i % 2 == 0),
                    ),
                    range(args.clients),
                )
            )
        warm_wall_s = time.perf_counter() - t0

        with ServiceClient("127.0.0.1", server.port) as stats_client:
            stats = stats_client.stats()
        server.request_stop()
        thread.join(timeout=60)

    warm_fold_lat = [x for r in results for x in r[0]]
    warm_query_lat = [x for r in results for x in r[1]]
    warm_mismatches = sum(r[2] for r in results)
    client_errors = sum(r[3] for r in results)
    n_warm = len(warm_fold_lat) + len(warm_query_lat)

    def pct(lat, q):
        if not lat:
            return None
        lat = sorted(lat)
        return lat[min(len(lat) - 1, int(q * len(lat)))]

    cold_mean = statistics.mean(cold_lat)
    warm_p50 = pct(warm_fold_lat, 0.50)
    speedup = cold_mean / warm_p50 if warm_p50 else 0.0
    mismatches = cold_mismatches + warm_mismatches

    report = {
        "workload": f"2x STREAM n={args.stream_n}, {args.iterations} "
                    f"iterations, period {args.period}",
        "cpu_count": os.cpu_count(),
        "n_samples": {
            d[:12]: ref["n_samples"] for d, ref in reference.items()
        },
        "generate_seconds": round(generate_s, 3),
        "clients": args.clients,
        "workers": args.workers,
        "cold": {
            "n_folds": len(cold_lat),
            "mean_seconds": round(cold_mean, 4),
            "max_seconds": round(max(cold_lat), 4),
            "first_request_other_directions_mean_seconds": round(
                statistics.mean(first_lat), 4
            ) if first_lat else None,
        },
        "warm": {
            "n_requests": n_warm,
            "wall_seconds": round(warm_wall_s, 3),
            "requests_per_second": round(n_warm / warm_wall_s, 1),
            "fold_p50_seconds": round(warm_p50, 5) if warm_p50 else None,
            "fold_p99_seconds": round(pct(warm_fold_lat, 0.99), 5)
            if warm_fold_lat else None,
            "query_p50_seconds": round(pct(warm_query_lat, 0.50), 5)
            if warm_query_lat else None,
        },
        "warm_vs_cold_speedup": round(speedup, 1),
        "payload_digest_mismatches": mismatches,
        "client_errors": client_errors,
        "server_counters": stats["counters"],
    }

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out}")

    failed = False
    if mismatches:
        print(f"FAIL: {mismatches} served fold payload(s) differ from the "
              "direct fold_trace payloads", file=sys.stderr)
        failed = True
    if client_errors:
        print(f"FAIL: {client_errors} client(s) died during the warm phase",
              file=sys.stderr)
        failed = True
    if args.min_warm_speedup and speedup < args.min_warm_speedup:
        print(f"FAIL: warm-vs-cold speedup {speedup:.1f}x "
              f"< required {args.min_warm_speedup}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
