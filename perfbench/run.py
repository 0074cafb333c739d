"""Layered end-to-end benchmark: one command, three workloads, whole chain.

Runs one workload (or ``all``) through workload → ``simproc.Machine`` →
``memsim`` engine → sampler → ``extrae`` record/save/load → ``folding``
→ ``analysis`` Figure 1 → ``repo`` → ``service`` and checks every
output.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (host CPU time,
no spans); with ``--trace 1`` they are the per-layer ones from a traced
run, which also reports its own measured overhead.  A failed check is
counted in ``failed`` and makes the exit code 1.  Run from the
repository root::

    python3 perfbench/run.py --workload hpcg-sim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

See ``perfbench/README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("hpcg-sim", "gups-sim", "hpcg-analyze")

#: End-to-end metrics (untraced runs) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "turnaround_s": "s",
    "sim_maccess_per_s": "Maccess/s",
    "stream_report_s": "s",
    "peak_rss_mb": "MiB",
    "cold_fold_p50_s": "s",
    "warm_req_p50_s": "s",
    "warm_req_p95_s": "s",
    "req_per_s": "req/s",
}

#: Per-layer metrics (traced runs) and their units.
LAYER_UNITS = {
    "memsim.run_pattern_s": "s",
    "memsim.ns_per_access": "ns",
    "memsim.patterns": "count",
    "memsim.accesses": "count",
    "memsim.l1d_misses": "count",
    "memsim.l2_misses": "count",
    "memsim.l3_misses": "count",
    "memsim.tlb_misses": "count",
    "memsim.dram_lines": "count",
    "simproc.execute_s": "s",
    "simproc.self_s": "s",
    "simproc.sim_cycles": "cycles",
    "sampler.take_s": "s",
    "sampler.filter_s": "s",
    "sampler.samples_kept": "count",
    "sampler.kept_frac": "ratio",
    "extrae.record_s": "s",
    "extrae.finalize_s": "s",
    "extrae.save_s": "s",
    "extrae.load_s": "s",
    "extrae.container_bytes": "bytes",
    "workloads.self_s": "s",
    "workloads.batches": "count",
    "folding.fold_s": "s",
    "folding.instances": "count",
    "analysis.figure1_s": "s",
    "folding.stream_fold_s": "s",
    "chain.unaccounted_s": "s",
    "repo.put_s": "s",
    "service.start_s": "s",
    "service.first_fold_s": "s",
    "service.server_rss_mb": "MiB",
    "service.fold_requests": "count",
    "service.folds_cold": "count",
    "service.folds_warm_cache": "count",
    "service.response_cache_hits": "count",
    "service.not_modified": "count",
    "service.errors": "count",
    "service.warm_hit_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

#: (metric, span name, "total" or "self") read from the chain subtree
_SPAN_TIMES = (
    ("memsim.run_pattern_s", "memsim.run_pattern", "total"),
    ("simproc.execute_s", "simproc.execute", "total"),
    ("simproc.self_s", "simproc.execute", "self"),
    ("sampler.take_s", "sampler.take", "total"),
    ("sampler.filter_s", "sampler.filter", "total"),
    ("extrae.record_s", "extrae.record", "total"),
    ("extrae.finalize_s", "extrae.finalize", "total"),
    ("extrae.save_s", "extrae.save", "total"),
    ("extrae.load_s", "extrae.load", "total"),
    ("workloads.self_s", "workloads.run", "self"),
    ("folding.fold_s", "folding.fold", "total"),
    ("analysis.figure1_s", "analysis.figure1", "total"),
    ("chain.unaccounted_s", "chain", "self"),
)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time of one run (chain plus service phase)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, per-layer metrics and overhead")
    p.add_argument("--tiny", action="store_true",
                   help="test-size inputs (the benchmark's own tests); "
                        "the pinned digests are not checked")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Metric assembly.
# ---------------------------------------------------------------------------
def e2e_metrics(result) -> dict:
    reps = result.reps
    svc = result.service
    values = {
        "setup_s": (
            median(result.setup_samples)
            + median(result.put_samples)
            + median(result.start_samples)
        ),
        "turnaround_s": median([r.turnaround_s * r.scale for r in reps]),
        "sim_maccess_per_s": (
            sum(r.accesses for r in reps)
            / sum(r.simulate_s * r.scale for r in reps) / 1e6
        ),
        "stream_report_s": median([x * r.scale for r in reps for x in r.stream_s]),
        "peak_rss_mb": median([r.peak_rss_mb for r in reps]),
        "cold_fold_p50_s": median(svc.cold),
        "warm_req_p50_s": median(svc.warm),
        "warm_req_p95_s": percentile(svc.warm, 0.95),
        "req_per_s": svc.completed / svc.cpu_s,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def rep_layers(rec, rep, self_ns) -> tuple[dict, dict]:
    """Per-layer values of one traced repetition, plus its span table."""
    total, own, calls, attrs = defaultdict(int), defaultdict(int), Counter(), Counter()
    for span in rec.subtree(rep.chain_span):
        total[span.name] += span.duration_ns
        own[span.name] += self_ns[id(span)]
        calls[span.name] += 1
        if span.attrs:
            attrs.update(span.attrs)
    m = {
        metric: (total if kind == "total" else own)[name] / 1e9
        for metric, name, kind in _SPAN_TIMES
    }
    accesses = attrs["accesses"]
    m["memsim.ns_per_access"] = (
        total["memsim.run_pattern"] / accesses if accesses else 0.0
    )
    m["memsim.patterns"] = calls["memsim.run_pattern"]
    m["memsim.accesses"] = accesses
    for name in ("l1d_misses", "l2_misses", "l3_misses", "tlb_misses", "dram_lines"):
        m[f"memsim.{name}"] = attrs[name]
    m["simproc.sim_cycles"] = rep.sim_cycles
    m["sampler.samples_kept"] = rep.samples_kept
    seen = rep.samples_kept + rep.samples_dropped
    m["sampler.kept_frac"] = rep.samples_kept / seen if seen else 0.0
    m["extrae.container_bytes"] = rep.container_bytes
    m["workloads.batches"] = rep.batches
    m["folding.instances"] = rep.instances
    m["folding.stream_fold_s"] = median([s.duration_ns for s in rep.stream_spans]) / 1e9
    m["trace.spans"] = sum(calls.values())
    table = {
        name: (calls[name], total[name] / 1e9, own[name] / 1e9) for name in total
    }
    return m, table


def layer_metrics(result) -> tuple[dict, dict]:
    rec = result.recorder
    self_ns = rec.self_times()
    traced = [r for r in result.reps if r.traced]
    untraced = [r for r in result.reps if not r.traced]
    per_rep = [rep_layers(rec, rep, self_ns) for rep in traced]
    values = {
        k: median([m[k] for m, _ in per_rep]) for k in per_rep[0][0]
    }
    base = median([r.turnaround_s * r.scale for r in untraced])
    overhead = median([r.turnaround_s * r.scale for r in traced]) - base
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / base
    svc = result.service
    c = svc.counters
    values["repo.put_s"] = median(result.put_samples)
    values["service.start_s"] = median(result.start_samples)
    values["service.first_fold_s"] = svc.first_fold_s
    values["service.server_rss_mb"] = svc.server_rss_mb
    for name in ("fold_requests", "folds_cold", "folds_warm_cache",
                 "response_cache_hits", "not_modified", "errors"):
        values[f"service.{name}"] = c[name]
    # fold_requests >= 1: the warm-up fold always precedes the loop
    warm = c["folds_warm_cache"] + c["response_cache_hits"] + c["not_modified"]
    values["service.warm_hit_frac"] = warm / c["fold_requests"]
    metrics = {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}
    return metrics, per_rep[-1][1]


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout's own git directory, or ``unknown``."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(result, args) -> dict:
    import harness
    import numpy

    o = result.outcome
    first = result.reps[0]
    return {
        "workload": result.spec.name,
        "seed": result.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "params": result.spec.params(),
        "n_samples": first.n_samples,
        "accesses": first.accesses,
        "trace_digest": first.trace_digest,
        "fold_digest": first.fold_digest,
        "chain_reps": len(result.reps),
        "turnaround_cpu_samples": [round(r.turnaround_s, 4) for r in result.reps],
        "turnaround_wall_samples": [round(r.turnaround_wall_s, 4) for r in result.reps],
        "simulate_cpu_samples": [round(r.simulate_s, 4) for r in result.reps],
        "rep_scales": [round(r.scale, 4) for r in result.reps],
        "rep_peak_rss_mb": [round(r.peak_rss_mb, 1) for r in result.reps],
        "probe_ref_s": harness.PROBE_REF_S,
        "probe_marks": [round(x, 4) for x in result.probe_marks],
        "stream_report_samples": sum(len(r.stream_s) for r in result.reps),
        "setup_samples": len(result.setup_samples),
        "server_start_samples": len(result.start_samples),
        "put_samples": len(result.put_samples),
        "cold_fold_samples": len(result.service.cold),
        "warm_req_samples": len(result.service.warm),
        "service_wall_req_per_s": result.service.completed / result.service.loop_wall_s,
        "service_wall_s": result.service.loop_wall_s,
        "attempted": o.attempted,
        "failed": o.failed,
        "failed_frac": o.failed / o.attempted,
        "failures": o.failures[:10],
    }


def print_layer_table(table: dict, turnaround_s: float) -> None:
    print(f"{'span':24s} {'calls':>8s} {'total s':>10s} {'self s':>10s} {'self %':>7s}")
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:24s} {calls:8d} {total:10.4f} {own:10.4f} "
              f"{100 * own / turnaround_s:6.1f}%")


def run_one(args) -> int:
    # on SIGTERM, unwind through run_workload's cleanup, which stops the
    # server and the host probe and waits for them
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    specs = harness.TINY_WORKLOADS if args.tiny else harness.WORKLOADS
    pins = None if args.tiny else json.loads((HERE / "pins.json").read_text())
    result = harness.run_workload(
        specs[args.workload],
        args.seed,
        args.seconds,
        traced=bool(args.trace),
        workdir=ROOT / ".perfbench_work",
        src=ROOT / "src",
        pins=pins,
        warmup=None if args.tiny else harness.TINY_WORKLOADS[args.workload],
    )
    info = stamp(result, args)
    if args.trace:
        metrics, table = layer_metrics(result)
        traced = [r for r in result.reps if r.traced]
        print_layer_table(table, traced[-1].turnaround_wall_s)
        out = ROOT / ".perfbench_out" / f"spans_{args.workload}_seed{args.seed}.jsonl"
        info["spans_file"] = str(result.recorder.dump(out).relative_to(ROOT))
        info["overhead_base"] = "median untraced turnaround_s of this run"
    else:
        metrics = e2e_metrics(result)
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"stamp": info}, sort_keys=True))
    o = result.outcome
    print(json.dumps({
        "correct": o.failed == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": metrics,
    }))
    return 0 if o.failed == 0 else 1


def run_all(args, argv) -> int:
    """Every workload, each in a fresh process (own peak RSS)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = list(argv)
        child[child.index("all")] = name
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *child],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            combined["failed"] += 1
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, argv)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
