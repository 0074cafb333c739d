"""Trace acquisition & I/O fast-path benchmark harness.

Measures, on a ~1M-sample STREAM run, the acquisition/storage fast
path against the seed implementation (copied verbatim below and
installed by monkeypatching, so both paths run the same machine/RNG
stream):

* **end-to-end record+save** — ``run_workload`` with chunked columnar
  recording + incremental consolidation + v2 ``ZIP_STORED`` save, vs
  the scalar PEBS loop, per-counter interpolation, per-block Python
  buffering with global concatenate+argsort, and the v1 deflated-npz
  save.  The two traces' content digests are asserted equal — the
  speedup only counts if the bits match;
* **save** — v2 (``none``/``deflate``) vs v1 npz of the same trace;
* **load + column query** — ``Trace.load`` + one column read + one
  time-window count, v2 lazy/memmap vs the eager v1 loader;
* **indexed queries** — per-label row lookup, time-window slicing and
  region-interval matching through :class:`TraceIndex` vs the
  boolean-mask / linear-scan equivalents (results compared exactly).

Results go to ``benchmarks/results/BENCH_trace.json``.  Run directly:

    PYTHONPATH=src python benchmarks/perf/bench_trace.py

``--min-e2e-speedup X`` / ``--min-load-speedup X`` turn the two
headline ratios into exit-status tripwires for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from memprof import memory_probe
from timing import best_of

from repro.extrae.index import TraceIndex
from repro.extrae.storage import SIDECAR_MEMBER
from repro.extrae.trace import _SAMPLE_COLUMNS, SampleTable, Trace
from repro.extrae.tracer import TracerConfig
from repro.extrae.events import EventKind
from repro.memsim.hierarchy import PatternResult
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.machine import SAMPLE_COUNTERS, BatchExecution, SampleBlock
from repro.simproc.machine import Machine
from repro.simproc.pebs import PebsSampler
from repro.workloads.stream import StreamConfig, StreamWorkload

RESULTS = Path(__file__).resolve().parent.parent / "results"

STREAM_N = 1_500_000
ITERATIONS = 12
PERIOD = 25  # dense sampling to reach ~1M memory samples


def make_trace():
    return run_workload(
        StreamWorkload(StreamConfig(n=STREAM_N, iterations=ITERATIONS)),
        SessionConfig(
            seed=7,
            tracer=TracerConfig(load_period=PERIOD, store_period=PERIOD),
        ),
    )


# --- the seed implementation, verbatim ---------------------------------------


def legacy_take(self, op, n_ops):
    cfg = self.configs.get(op)
    if cfg is None or n_ops <= 0:
        return np.empty(0, dtype=np.int64)
    offsets = []
    pos = self._countdown[op]
    while pos < n_ops:
        offsets.append(int(pos))
        pos += self._gap(cfg)
    self._countdown[op] = pos - n_ops
    self.samples_taken[op] += len(offsets)
    return np.asarray(offsets, dtype=np.int64)


def legacy_attach_samples(self, execution, pattern_runs, t0, t1, before, delta):
    """Seed sample-block construction: per-pattern per-counter loops,
    full blocks built then mask-selected."""
    for pattern, offsets, result in pattern_runs:
        if offsets.size == 0:
            continue
        frac = (offsets.astype(np.float64) + 0.5) / max(pattern.count, 1)
        times = t0 + frac * (t1 - t0)
        counters = {
            name: getattr(before, name) + getattr(delta, name) * frac
            for name in SAMPLE_COUNTERS
        }
        block = SampleBlock(
            op=pattern.op,
            label=execution.batch.label,
            offsets=offsets,
            addresses=pattern.addresses_at(offsets),
            sources=result.sample_sources,
            latencies=result.sample_latencies,
            times_ns=times,
            counters=counters,
        )
        keep = np.ones(block.n, dtype=bool)
        if self.multiplex is not None:
            active = self.multiplex.active_mask(pattern.op, times)
            self.samples_dropped_mpx += int((~active).sum())
            keep &= active
        if self.pebs is not None:
            passed = self.pebs.latency_filter(pattern.op, block.latencies)
            self.samples_dropped_latency += int((keep & ~passed).sum())
            keep &= passed
        block = block.select(keep)
        if block.n:
            execution.samples.append(block)
            self.samples_emitted += block.n


def make_legacy_execute(fast_execute):
    """The seed ``Machine.execute``: identical control flow, with the
    sample-block section replaced by :func:`legacy_attach_samples`."""
    from repro.memsim.datasource import DataSource

    def execute(self, batch):
        before = self.counters.copy()
        latency = self.engine.config.latency
        pattern_runs = []
        totals = {"L1D": 0, "L2": 0, "L3": 0}
        dram_lines = writebacks = tlb_misses = 0
        for pattern in batch.patterns:
            offsets = (
                self.pebs.take(pattern.op, pattern.count)
                if self.pebs is not None
                else np.empty(0, dtype=np.int64)
            )
            result: PatternResult = self.engine.run_pattern(pattern, offsets)
            pattern_runs.append((pattern, offsets, result))
            for name in totals:
                totals[name] += result.level_misses.get(name, 0)
            dram_lines += result.dram_lines
            writebacks += result.writeback_lines
            tlb_misses += result.tlb_misses

        from_l2 = max(totals["L1D"] - totals["L2"], 0)
        from_l3 = max(totals["L2"] - totals["L3"], 0)
        from_dram = totals["L3"]
        core_cycles = batch.instructions / self.calibration.issue_width
        mem_cycles = (
            from_l2 * latency.latency(DataSource.L2)
            + from_l3 * latency.latency(DataSource.L3)
            + from_dram * latency.latency(DataSource.DRAM)
            + tlb_misses * self.calibration.tlb_walk_cycles
        ) / batch.mlp
        batch_cycles = max(core_cycles, mem_cycles)

        t0 = self.time_ns
        c = self.counters
        c.instructions += batch.instructions
        c.cycles += batch_cycles
        c.loads += batch.loads
        c.stores += batch.stores
        c.branches += batch.branches
        c.l1d_misses += totals["L1D"]
        c.l2_misses += totals["L2"]
        c.l3_misses += totals["L3"]
        c.dram_lines += dram_lines
        c.dram_writebacks += writebacks
        c.tlb_misses += tlb_misses
        c.flops += batch.flops
        t1 = self.time_ns
        after = c.copy()
        delta = after.delta(before)

        execution = BatchExecution(
            batch=batch, t0_ns=t0, t1_ns=t1, cycles=batch_cycles,
            core_cycles=core_cycles, mem_cycles=mem_cycles,
            before=before, after=after,
        )
        legacy_attach_samples(
            self, execution, pattern_runs, t0, t1, before, delta
        )
        if self.noise is not None:
            stall = self.noise.stall_after(execution.duration_ns, self._noise_rng)
            if stall > 0:
                self.idle(stall)
                self.noise_ns_injected += stall
        self.batches_executed += 1
        return execution

    return execute


def legacy_add_samples(self, block, callstack):
    self.__dict__.setdefault("_legacy_blocks", []).append(
        (block, self.callstack_id(callstack))
    )
    self._table = None
    self._digest = None
    self._index = None


def legacy_sample_table(self):
    if self._table is not None:
        return self._table
    blocks = self.__dict__.get("_legacy_blocks", [])
    if not blocks:
        self._table = SampleTable.empty()
        return self._table
    cols = {k: [] for k in _SAMPLE_COLUMNS}
    for block, cs_id in blocks:
        n = block.n
        cols["time_ns"].append(block.times_ns)
        cols["address"].append(block.addresses)
        cols["op"].append(np.full(n, int(block.op), dtype=np.int8))
        cols["source"].append(block.sources.astype(np.int8))
        cols["latency"].append(block.latencies.astype(np.float32))
        cols["callstack_id"].append(np.full(n, cs_id, dtype=np.int32))
        cols["label_id"].append(np.full(n, self.label_id(block.label), dtype=np.int32))
        for name in SAMPLE_COUNTERS:
            cols[name].append(block.counters[name])
    merged = {k: np.concatenate(v).astype(_SAMPLE_COLUMNS[k]) for k, v in cols.items()}
    order = np.argsort(merged["time_ns"], kind="stable")
    self._table = SampleTable({k: v[order] for k, v in merged.items()})
    return self._table


def legacy_save_v1(trace, path):
    """The v1 container writer: npz columns in a deflated zip."""
    path = Path(path)
    table = trace.sample_table()
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        with zf.open("samples.npz", "w") as f:
            np.savez(f, **table.columns())
        zf.writestr(SIDECAR_MEMBER, json.dumps(trace._sidecar(schema=1)))
    return path


@contextmanager
def seed_implementation():
    """Swap in the seed acquisition path (machine, PEBS and trace)."""
    saved = (
        Machine.execute,
        PebsSampler.take,
        Trace.add_samples,
        Trace.sample_table,
    )
    Machine.execute = make_legacy_execute(saved[0])
    PebsSampler.take = legacy_take
    Trace.add_samples = legacy_add_samples
    Trace.sample_table = legacy_sample_table
    try:
        yield
    finally:
        (Machine.execute, PebsSampler.take,
         Trace.add_samples, Trace.sample_table) = saved


# --- sections ----------------------------------------------------------------


def bench_end_to_end(repeats, tmp):
    fast_path = Path(tmp) / "fast.bsctrace"
    legacy_path = Path(tmp) / "legacy.bsctrace"

    def fast_run():
        trace = make_trace()
        trace.save(fast_path, compression="none")
        return trace

    def legacy_run():
        with seed_implementation():
            trace = make_trace()
            legacy_save_v1(trace, legacy_path)
        return trace

    fast_s, fast_trace = best_of(repeats, fast_run)
    legacy_s, legacy_trace = best_of(1, legacy_run)
    digests_equal = fast_trace.digest() == legacy_trace.digest()
    return fast_trace, {
        "n_samples": fast_trace.n_samples,
        "legacy_seconds": round(legacy_s, 3),
        "fast_seconds": round(fast_s, 3),
        "speedup": round(legacy_s / fast_s, 2),
        "digests_equal": digests_equal,
    }


def bench_save(trace, repeats, tmp):
    out = {}
    p = Path(tmp)
    v1_s, _ = best_of(repeats, lambda: legacy_save_v1(trace, p / "s1.bsctrace"))
    out["v1_npz_seconds"] = round(v1_s, 3)
    for comp in ("none", "deflate"):
        s, path = best_of(
            repeats,
            lambda c=comp: trace.save(p / f"s2_{c}.bsctrace", compression=c),
        )
        out[f"v2_{comp}_seconds"] = round(s, 3)
        out[f"v2_{comp}_bytes"] = path.stat().st_size
    out["v1_npz_bytes"] = (p / "s1.bsctrace").stat().st_size
    out["save_speedup_v2_none_vs_v1"] = round(v1_s / out["v2_none_seconds"], 2)
    return out


def bench_load_query(trace, repeats, tmp):
    p = Path(tmp)
    v1 = legacy_save_v1(trace, p / "l1.bsctrace")
    v2 = trace.save(p / "l2.bsctrace", compression="none")
    t_mid = trace.duration_ns() / 2

    def query(path):
        loaded = Trace.load(path)
        table = loaded.sample_table()
        col = table.time_ns
        sl = loaded.index().samples.time_slice(0.0, t_mid)
        return col.size, sl.stop - sl.start

    v1_s, v1_result = best_of(repeats, lambda: query(v1))
    v2_s, v2_result = best_of(repeats, lambda: query(v2))
    # Peak allocation of one load+query through the shared probe: the
    # eager v1 loader inflates and materializes the whole table, the
    # lazy v2 path memory-maps columns (invisible to tracemalloc by
    # design — pages are the OS's, not the allocator's).
    with memory_probe() as v1_mem:
        query(v1)
    with memory_probe() as v2_mem:
        query(v2)
    return {
        "query": "load + time_ns column + half-trace window count",
        "v1_seconds": round(v1_s, 4),
        "v2_seconds": round(v2_s, 4),
        "speedup": round(v1_s / v2_s, 2),
        "v1_traced_peak_bytes": v1_mem.traced_peak_bytes,
        "v2_traced_peak_bytes": v2_mem.traced_peak_bytes,
        "results_equal": v1_result == v2_result,
    }


def bench_indexed_queries(trace, repeats):
    table = trace.sample_table()
    n_labels = len(trace.labels)
    t = table.time_ns
    edges = np.linspace(0.0, float(t[-1]), 101)

    def indexed():
        index = TraceIndex(trace)
        rows = [index.samples.rows_for_label(i) for i in range(n_labels)]
        windows = [
            index.samples.time_slice(a, b) for a, b in zip(edges, edges[1:])
        ]
        intervals = {
            name: index.events.region_intervals(name)
            for name in index.events.region_names
        }
        return (
            [r.size for r in rows],
            [sl.stop - sl.start for sl in windows],
            intervals,
        )

    def scanned():
        labels = table.label_id
        rows = [np.nonzero(labels == i)[0] for i in range(n_labels)]
        windows = [
            int(np.count_nonzero((t >= a) & (t < b)))
            for a, b in zip(edges, edges[1:])
        ]
        names = sorted(
            {
                ev.name
                for ev in trace.events
                if ev.kind in (EventKind.REGION_ENTER, EventKind.REGION_EXIT)
            }
        )
        intervals = {}
        for name in names:
            stack, matched = [], []
            for ev in trace.events:
                if ev.name != name:
                    continue
                if ev.kind == EventKind.REGION_ENTER:
                    stack.append(ev.time_ns)
                elif ev.kind == EventKind.REGION_EXIT:
                    matched.append((stack.pop(), ev.time_ns))
            intervals[name] = sorted(matched)
        return rows, windows, intervals

    idx_s, idx_result = best_of(repeats, indexed)
    scan_s, scan_result = best_of(repeats, scanned)
    equal = (
        idx_result[0] == [r.size for r in scan_result[0]]
        and idx_result[1] == scan_result[1]
        and idx_result[2] == scan_result[2]
    )
    return {
        "labels": n_labels,
        "windows": len(edges) - 1,
        "regions": len(idx_result[2]),
        "scan_seconds": round(scan_s, 4),
        "indexed_seconds": round(idx_s, 4),
        "speedup": round(scan_s / idx_s, 2),
        "results_equal": equal,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=2,
                   help="take the best of this many runs per section")
    p.add_argument("--min-e2e-speedup", type=float, default=0.0,
                   help="fail unless record+save beats the seed path by "
                        "this factor")
    p.add_argument("--min-load-speedup", type=float, default=0.0,
                   help="fail unless v2 load+query beats the v1 loader by "
                        "this factor")
    p.add_argument("-o", "--output", default=str(RESULTS / "BENCH_trace.json"))
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trace, e2e = bench_end_to_end(args.repeats, tmp)
        out_report = {
            "workload": f"STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                        f"sampling period {PERIOD} -> "
                        f"{trace.n_samples} memory samples",
            "cpu_count": os.cpu_count(),
            "end_to_end": e2e,
            "save": bench_save(trace, args.repeats, tmp),
            "load_query": bench_load_query(trace, args.repeats, tmp),
            "indexed_queries": bench_indexed_queries(trace, args.repeats),
        }

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(out_report, indent=2) + "\n")
    print(json.dumps(out_report, indent=2))
    print(f"wrote {out}")

    failed = False
    if not out_report["end_to_end"]["digests_equal"]:
        print("FAIL: fast and seed acquisition paths disagree on the "
              "trace digest", file=sys.stderr)
        failed = True
    for section in ("load_query", "indexed_queries"):
        if not out_report[section]["results_equal"]:
            print(f"FAIL: {section} indexed results differ from the "
                  "scan reference", file=sys.stderr)
            failed = True
    e2e_speedup = out_report["end_to_end"]["speedup"]
    if args.min_e2e_speedup and e2e_speedup < args.min_e2e_speedup:
        print(f"FAIL: end-to-end speedup {e2e_speedup}x "
              f"< required {args.min_e2e_speedup}x", file=sys.stderr)
        failed = True
    load_speedup = out_report["load_query"]["speedup"]
    if args.min_load_speedup and load_speedup < args.min_load_speedup:
        print(f"FAIL: load+query speedup {load_speedup}x "
              f"< required {args.min_load_speedup}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
