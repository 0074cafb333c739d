"""Tests of the layered benchmark itself, on test-size workloads.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from spans import NullRecorder, Span, SpanRecorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str) -> tuple[int, dict]:
    """Run the benchmark command; returns (exit code, last-line JSON)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result = bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


WRONG_PINS = {
    "seed": 3,
    "gups-sim": {"trace_digest": "0" * 64, "fold_digest": "1" * 64},
}


def run_tiny(workload, seed, tmp_path, pins):
    return harness.run_workload(
        harness.TINY_WORKLOADS[workload], seed, 1.0, traced=False,
        workdir=tmp_path / "work", src=ROOT / "src", pins=pins,
    )


def test_wrong_pinned_digest_fails_the_run(tmp_path):
    result = run_tiny("gups-sim", 3, tmp_path, WRONG_PINS)
    failures = result.outcome.failures
    assert len(failures) == 2  # trace digest and fold digest
    assert "pinned" in failures[0] and "pinned" in failures[1]


def test_pins_apply_only_to_their_seed(tmp_path):
    result = run_tiny("gups-sim", 4, tmp_path, WRONG_PINS)
    assert result.outcome.failed == 0


def test_tampered_payload_digest_fails_the_run(monkeypatch, capsys):
    real = harness.counters_payload

    def tampered(fold):
        payload = dict(real(fold))
        payload["payload_digest"] = "f" * 64
        return payload

    monkeypatch.setattr(harness, "counters_payload", tampered)
    code = run.main([
        "--workload", "hpcg-analyze", "--seed", "1", "--seconds", "1", "--tiny",
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_verify_payloads_counts_each_mismatch(tmp_path):
    spec = harness.TINY_WORKLOADS["hpcg-analyze"]
    outcome = harness.Outcome()
    path = tmp_path / "t.bsctrace"
    harness.chain_rep(spec, 1, path, NullRecorder(), outcome)
    log = harness.ClientLog()
    with harness.Trace.load(path) as trace:
        report = harness.fold_trace(trace, grid_points=151)
    good = harness.address_payload(report)["payload_digest"]
    log.payloads[(151, "address")] = {good}
    log.payloads[(151, "lines")] = {"0" * 64}
    before = outcome.failed
    harness._verify_payloads(path, [log], outcome)
    assert outcome.failed - before == 1


@pytest.mark.parametrize("workload", ["hpcg-sim", "gups-sim"])
def test_seed_changes_the_generated_inputs(workload, tmp_path):
    spec = harness.TINY_WORKLOADS[workload]
    outcome = harness.Outcome()
    digests = [
        harness.chain_rep(
            spec, seed, tmp_path / f"{i}.bsctrace", NullRecorder(), outcome
        ).trace_digest
        for i, seed in enumerate((1, 2, 1))
    ]
    assert outcome.failed == 0
    assert digests[0] != digests[1]
    assert digests[0] == digests[2]


def test_traced_self_times_sum_to_the_span_total(tmp_path):
    rec = SpanRecorder("test")
    outcome = harness.Outcome()
    rep = harness.chain_rep(
        harness.TINY_WORKLOADS["hpcg-analyze"], 1, tmp_path / "t.bsctrace",
        rec, outcome,
    )
    assert outcome.failed == 0
    self_ns = rec.self_times()
    tree = rec.subtree(rep.chain_span)
    names = {s.name for s in tree}
    assert {"memsim.run_pattern", "sampler.take", "simproc.execute",
            "extrae.record", "workloads.run", "extrae.finalize", "extrae.save",
            "extrae.load", "folding.fold", "analysis.figure1"} <= names
    assert all(self_ns[id(s)] >= 0 for s in tree)
    assert sum(self_ns[id(s)] for s in tree) == rep.chain_span.duration_ns
    metrics, table = run.rep_layers(rec, rep, self_ns)
    assert sum(own for _calls, _total, own in table.values()) == pytest.approx(
        rep.chain_span.duration_ns / 1e9
    )
    assert metrics["memsim.accesses"] > 0
    assert metrics["memsim.patterns"] == table["memsim.run_pattern"][0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    assert run.percentile(values, 0.95) == 19
    assert run.percentile(values, 0.5) == 10
    assert run.percentile([7.0], 0.95) == 7.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    rec = SpanRecorder("test")
    parent = make_span(rec, "p", 0, 100, None)
    make_span(rec, "a", 10, 40, parent)
    make_span(rec, "b", 30, 60, parent)  # overlaps a (concurrent client)
    make_span(rec, "c", 90, 120, parent)  # runs past the parent's end
    assert rec.self_times()[id(parent)] == 100 - 50 - 10


def make_span(rec, name, start, end, parent):
    span = Span(name, start, parent)
    span.end_ns = end
    rec.spans.append(span)
    return span


def test_no_result_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hpcg-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_service_request_spans_nest_under_the_loop(tmp_path):
    spec = harness.TINY_WORKLOADS["hpcg-analyze"]
    rec = SpanRecorder("test")
    outcome = harness.Outcome()
    path = tmp_path / "t.bsctrace"
    harness.chain_rep(spec, 1, path, NullRecorder(), outcome)
    server = harness.ServerProcess(tmp_path / "repo", ROOT / "src")
    probe = harness.HostProbe()
    try:
        server.wait_ready()
        result = harness.service_phase(server, path, 0.2, probe, rec, outcome)
    finally:
        probe.close()
        server.stop()
    assert outcome.failed == 0
    (loop,) = [s for s in rec.spans if s.name == "service.loop"]
    requests = [s for s in rec.spans if s.name == "service.request"]
    assert len(requests) == result.completed
    assert all(s.parent is loop for s in requests)


def test_probe_mark_scales_by_the_mean_of_the_last_two_marks():
    probe = harness.HostProbe()
    try:
        scale = probe.mark()
        assert len(probe.marks) == 2 and all(m > 0 for m in probe.marks)
        assert scale == pytest.approx(harness.PROBE_REF_S / (sum(probe.marks) / 2))
    finally:
        probe.close()
    assert probe.proc.returncode == 0


def test_process_cpu_s_reads_another_process_clock():
    busy = subprocess.Popen([
        sys.executable, "-c",
        "import time\nt = time.process_time()\n"
        "while time.process_time() - t < 0.3: pass\ninput()",
    ], stdin=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while harness.process_cpu_s(busy.pid) < 0.3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert harness.process_cpu_s(busy.pid) >= 0.3
        assert busy.pid in harness.process_tree(os.getpid())
    finally:
        busy.communicate("\n", timeout=30)
