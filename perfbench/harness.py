"""Workloads, timed phases and correctness gate of the layered benchmark.

One run of one workload goes through the whole chain:

* **set-up** (each part repeated ``setup_reps`` times; the medians are
  reported): build a :class:`~repro.pipeline.Session` and run
  ``Workload.setup``; start ``bsc-memtools-serve --port 0 --workers 1``
  over a fresh repository until ``/v1/healthz`` answers; ``TraceRepo.put``
  the saved container (the last put publishes it to the server);
* **chain phase** (repeated for the workload's share of the run time):
  a fresh session and set-up, then ``Workload.run`` → ``Tracer.finalize``
  → ``Trace.save`` → ``Trace.load`` → ``fold_trace`` → ``build_figure1``
  (the *turnaround*), then the bounded-memory
  ``stream_fold_trace(path, directions=("counters", "address", "lines"))``;
* **service phase** (the rest of the run time): one untimed warm-up
  fold, then a closed loop of one client on one keep-alive connection.

Every time the benchmark reports is CPU time (user plus system), not
wall time: this process's own (:func:`cpu_s`), and for the service the
client's plus that of the server process and its fold workers
(:func:`process_cpu_s`).  On a shared host the hypervisor can take a
vCPU away for long stretches.  The guest kernel leaves that stolen
time out of CPU time, so it does not land in the figures; wall time
would carry it, and it moves from run to run by far more than any
bound.  CPU time still follows how fast the host runs this guest,
which other guests move by up to 2x within minutes; :class:`HostProbe`
measures that between the timed parts, and every time is scaled to a
reference speed.

Everything the program outputs is checked outside the timed regions
(see :class:`Outcome`); a failed check never stops the run, it is
counted.
"""

from __future__ import annotations

import gc
import http.client
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.figures import build_figure1
from repro.extrae.trace import Trace
from repro.extrae.tracer import TracerConfig
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.folding.stream import fold_digest, stream_fold_trace
from repro.pipeline import Session, SessionConfig
from repro.repo import TraceRepo
from repro.service import ServiceClient, ServiceError
from repro.service.payloads import address_payload, counters_payload, lines_payload
from repro.validate.invariants import validate_trace
from repro.vmem.layout import AddressSpaceConfig
from repro.workloads import HpcgConfig, HpcgWorkload
from repro.workloads.randomaccess import RandomAccessConfig, RandomAccessWorkload

from spans import NullRecorder, SpanRecorder, instrument_session

__all__ = [
    "Outcome",
    "RunResult",
    "TINY_WORKLOADS",
    "WORKLOADS",
    "WorkloadSpec",
    "run_workload",
]

DIRECTIONS = ("counters", "address", "lines")
HOST = "127.0.0.1"
#: warm folds per round; even indices revalidate with the ETag (304),
#: odd ones fetch the full body from the response cache
WARM_FOLDS_PER_ROUND = 12
#: (window, regions) query pairs per round
WARM_QUERY_PAIRS_PER_ROUND = 2
#: grid of the untimed warm-up fold (never reused by a round)
WARMUP_GRID = 97
#: first cold-fold grid; round r folds at FIRST_GRID + r
FIRST_GRID = 151
SERVER_START_TIMEOUT_S = 60.0
#: a repetition repeats the streamed report until it has taken this
#: long: a report of a few milliseconds, timed over a fraction of a
#: second, followed the host's short-term load more than the code
STREAM_MIN_S = 0.5

#: CPU seconds one :class:`HostProbe` kernel takes at the reference speed
#: (about its median on the 2-vCPU Xeon guest the benchmark was tuned on)
PROBE_REF_S = 0.03
#: kernel runs per probe mark; the mark is their median
PROBE_REPS = 5
#: the service loop pauses for a probe mark this often (wall seconds)
PROBE_EVERY_S = 2.0
#: the probe kernel, three parts of about 10 ms each, none of the
#: program's code: random gathers over 64 MiB plus a sort (memory
#: bound, like the engines), a JSON round trip and a dict walk (the
#: interpreter, like the service and the folding glue), and 64 KiB
#: writes and reads through a pipe (system calls, like the container
#: I/O).  One part alone followed the chain's drift less well.
PROBE_SRC = """
import json, os, statistics, sys, time
import numpy as np
rng = np.random.default_rng(7)
big = rng.integers(0, 1 << 40, size=1 << 23)
idx = rng.integers(0, 1 << 23, size=1 << 18)
doc = {f"k{i}": {"a": list(range(i % 7)), "s": "x" * (i % 13), "f": i / 2}
       for i in range(2500)}
chunk = bytes(1 << 16)
def kernel():
    s = np.sort(big[idx] >> 12)
    m = (big[: 1 << 20] * 3 + 1) >> 2
    acc = int(np.count_nonzero(np.diff(s))) + int(m[-1] & 1)
    for v in json.loads(json.dumps(doc)).values():
        acc += len(v["a"]) + len(v["s"].upper()) + int(v["f"])
    r, w = os.pipe()
    for _ in range(800):
        os.write(w, chunk)
        acc += len(os.read(r, 1 << 16))
    os.close(r)
    os.close(w)
    return acc
kernel()
for _ in sys.stdin:
    times = []
    for _ in range(int(sys.argv[1])):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    print(statistics.median(times), flush=True)
"""

#: CPU time (user + system) of this process, all threads, in seconds
cpu_s = time.process_time


def process_cpu_s(pid: int) -> float:
    """CPU time of another process, all its threads, in seconds.

    Reads the process's CPU-time clock: ``MAKE_PROCESS_CPUCLOCK(pid,
    CPUCLOCK_SCHED)`` of the Linux ABI, the id ``clock_getcpuclockid``
    would return.  Nanosecond resolution, unlike the tick counts in
    ``/proc/<pid>/stat``.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def process_tree(pid: int) -> list[int]:
    """*pid* and every live descendant (the server's fold workers)."""
    pids = [pid]
    for p in pids:  # the list grows while it is walked
        for children in Path(f"/proc/{p}/task").glob("*/children"):
            try:
                pids += [int(c) for c in children.read_text().split()]
            except FileNotFoundError:
                pass  # the thread ended meanwhile
    return pids


class HostProbe:
    """How fast the host runs the benchmark's kind of code right now.

    A process of its own holds a fixed NumPy kernel (:data:`PROBE_SRC`)
    and times it in CPU seconds whenever :meth:`mark` asks.  The
    benchmark waits meanwhile, so the two never run at once, and the
    probe's arrays stay out of the benchmark's own peak RSS.  Each
    timed part of a run lies between two marks; its times are scaled by
    ``PROBE_REF_S / mean(the two marks)``, which reads them at the
    reference speed.  A change to the program cannot move the marks.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_SRC, str(PROBE_REPS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        #: CPU seconds of every mark, in order
        self.marks: list[float] = []
        self.mark()

    def mark(self) -> float:
        """Time the kernel; return the scale of the part since the last mark."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe process ended")
        self.marks.append(float(line))
        return PROBE_REF_S / (sum(self.marks[-2:]) / len(self.marks[-2:]))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: program inputs plus the time split."""

    name: str
    kind: str  # "hpcg" or "gups"
    size: dict
    engine: str
    period: int
    #: share of ``--seconds`` spent in the service phase
    service_share: float
    setup_reps: int = 5

    def make_workload(self, seed: int):
        if self.kind == "hpcg":
            return HpcgWorkload(HpcgConfig(**self.size))
        return RandomAccessWorkload(RandomAccessConfig(seed=seed, **self.size))

    def session_config(self, seed: int) -> SessionConfig:
        # ASLR off (like ``setarch -R``): with it on, the vectorized
        # engine's cost moves by about 20% from seed to seed with the
        # layout alone, which would swamp every bound.  The seed still
        # drives sampling jitter, latency noise and the GUPS updates.
        return SessionConfig(
            seed=seed,
            engine=self.engine,
            tracer=TracerConfig(load_period=self.period, store_period=self.period),
            address_space=AddressSpaceConfig(aslr=False),
        )

    def params(self) -> dict:
        return {
            "kind": self.kind,
            **self.size,
            "engine": self.engine,
            "period": self.period,
            "service_share": self.service_share,
            "setup_reps": self.setup_reps,
            "clients": 1,
            "server_workers": 1,
        }


def _hpcg(n: int, nlevels: int, iterations: int) -> dict:
    return {"nx": n, "ny": n, "nz": n, "nlevels": nlevels, "n_iterations": iterations}


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("hpcg-sim", "hpcg", _hpcg(16, 2, 1), "vectorized", 100, 0.15),
        WorkloadSpec(
            "gups-sim", "gups",
            {"table_bytes": 128 << 20, "updates_per_iteration": 65_536, "iterations": 2},
            "vectorized", 100, 0.15,
        ),
        WorkloadSpec("hpcg-analyze", "hpcg", _hpcg(24, 3, 5), "analytic", 40, 0.3),
    )
}

#: Same workloads at test size (seconds, not minutes, for all three).
TINY_WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("hpcg-sim", "hpcg", _hpcg(8, 2, 2), "vectorized", 100, 0.3, 1),
        WorkloadSpec(
            "gups-sim", "gups",
            {"table_bytes": 1 << 20, "updates_per_iteration": 1024, "iterations": 2},
            "vectorized", 16, 0.3, 1,
        ),
        WorkloadSpec("hpcg-analyze", "hpcg", _hpcg(8, 2, 3), "analytic", 20, 0.3, 1),
    )
}


# ---------------------------------------------------------------------------
# Correctness bookkeeping.
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """Attempted operations and the failures among them.

    Operations are chain repetitions, service requests and correctness
    checks.  Failures are non-2xx/304 responses, client exceptions,
    digest mismatches and validator errors.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# Chain phase.
# ---------------------------------------------------------------------------
@dataclass
class RepResult:
    """Timings, counts and digests of one chain repetition."""

    traced: bool
    setup_s: float
    turnaround_s: float
    turnaround_wall_s: float
    simulate_s: float
    accesses: int
    stream_s: list[float]
    n_samples: int
    trace_digest: str
    fold_digest: str
    instances: int
    container_bytes: int
    sim_cycles: float
    batches: int
    samples_kept: int
    samples_dropped: int
    chain_span: object = None
    stream_spans: list = field(default_factory=list)
    #: host-speed scale of this repetition (:meth:`HostProbe.mark`); the
    #: CPU times above are as measured
    scale: float = 1.0
    #: this process's peak RSS during the repetition, MiB
    peak_rss_mb: float = 0.0


def timed_setup(spec: WorkloadSpec, seed: int):
    """Session build plus ``Workload.setup``; returns (session, workload, CPU s)."""
    t0 = cpu_s()
    session = Session(spec.session_config(seed))
    workload = spec.make_workload(seed)
    # Workload.trace does exactly this before setup; the benchmark
    # splits setup from run to time them apart.
    session.tracer.trace.metadata["workload"] = workload.name
    workload.setup(session.tracer)
    return session, workload, cpu_s() - t0


def chain_rep(spec: WorkloadSpec, seed: int, path: Path, rec, outcome: Outcome) -> RepResult:
    """One timed run of the chain, then its (untimed) output checks.

    Times are CPU seconds of this process; the turnaround's wall time
    is kept beside it for the span table, whose spans are wall time.
    """
    session, workload, setup_s = timed_setup(spec, seed)
    if rec.enabled:
        instrument_session(rec, session)
    machine, tracer = session.machine, session.tracer
    c = machine.counters
    ops0, cycles0, batches0 = c.loads + c.stores, c.cycles, machine.batches_executed
    kept0 = machine.samples_emitted
    dropped0 = machine.samples_dropped_mpx + machine.samples_dropped_latency

    with rec.open("chain") as chain:
        t0, wall0 = cpu_s(), time.perf_counter()
        rec.call("workloads.run", workload.run, tracer)
        trace = rec.call("extrae.finalize", tracer.finalize)
        t_sim = cpu_s()
        rec.call("extrae.save", trace.save, path)
        loaded = rec.call("extrae.load", Trace.load, path)
        report = rec.call("folding.fold", fold_trace, loaded)
        if spec.kind == "hpcg":
            rec.call("analysis.figure1", build_figure1, report)
        t_end, wall_end = cpu_s(), time.perf_counter()
    stream_s, stream_spans = [], []
    while sum(stream_s) < STREAM_MIN_S:
        with rec.open("folding.stream_fold") as stream_scope:
            t0_stream = cpu_s()
            streamed = stream_fold_trace(path, directions=DIRECTIONS)
            stream_s.append(cpu_s() - t0_stream)
        stream_spans.append(stream_scope.span)

    md = trace.metadata
    accesses = int(md["total_loads"] + md["total_stores"] - ops0)
    digest = trace.digest()
    outcome.check(loaded.digest() == digest, "saved+reloaded trace digest differs")
    resident = fold_digest(report)
    outcome.check(
        fold_digest(streamed.performance) == resident,
        "streamed counters fold digest differs from the resident fold",
    )
    result = RepResult(
        traced=rec.enabled,
        setup_s=setup_s,
        turnaround_s=t_end - t0,
        turnaround_wall_s=wall_end - wall0,
        simulate_s=t_sim - t0,
        accesses=accesses,
        stream_s=stream_s,
        n_samples=trace.n_samples,
        trace_digest=digest,
        fold_digest=resident,
        instances=int(report.instances.n),
        container_bytes=path.stat().st_size,
        sim_cycles=float(c.cycles - cycles0),
        batches=machine.batches_executed - batches0,
        samples_kept=machine.samples_emitted - kept0,
        samples_dropped=(
            machine.samples_dropped_mpx + machine.samples_dropped_latency - dropped0
        ),
        chain_span=chain.span,
        stream_spans=stream_spans,
    )
    loaded.close()
    return result


# ---------------------------------------------------------------------------
# Service process and closed-loop clients.
# ---------------------------------------------------------------------------
class ServerProcess:
    """``bsc-memtools-serve`` in its own process (and process group)."""

    def __init__(self, root: Path, src: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.log_path = root.parent / f"{root.name}.log"
        self._log = self.log_path.open("w")
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.cli import main_serve; sys.exit(main_serve(sys.argv[2:]))"
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, str(src), "--root", str(root),
             "--port", "0", "--workers", "1"],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.port = 0

    def wait_ready(self) -> None:
        """Block until the listen line is logged and ``/v1/healthz`` answers."""
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "analysis server did not start:\n" + self.log_path.read_text()
                )
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    self.port = int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if not self.port:
                time.sleep(0.005)
        with ServiceClient(HOST, self.port) as client:
            client.healthz()
        #: CPU seconds the server took from launch until it answered
        self.start_cpu_s = process_cpu_s(self.proc.pid)

    def stop(self) -> None:
        """Interrupt (the server shuts its pool down), then reap the group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._log.close()


@dataclass
class ClientLog:
    """What the closed-loop client saw."""

    cold: list[float] = field(default_factory=list)
    warm: list[float] = field(default_factory=list)
    completed: int = 0
    #: scaled CPU seconds of every completed request
    cpu_s: float = 0.0
    #: (grid, direction) -> payload digests seen
    payloads: dict = field(default_factory=dict)


def _client_loop(server, digest, deadline, window, probe, rec, outcome, log):
    """The client's rounds until *deadline* (at least one round).

    A round: one cold fold at a grid value not used before and the
    other two directions at that fold key (together one *cold* sample:
    what it costs to serve all three Figure-1 directions of a new fold
    key), then warm folds (half revalidated with the ETag, half full
    bodies) and window and regions queries (one *warm* sample each).

    A request costs the client thread's CPU time plus that of the
    server process and its fold workers while the request is in
    flight.  The client waits for each reply, so nothing else runs in
    the service meanwhile.  Every :data:`PROBE_EVERY_S` the loop pauses
    for a probe mark, and the costs since the last mark are scaled.
    """
    client = ServiceClient(HOST, server.port)
    rnd = 0
    cold, warm, costs = [], [], []  # since the last probe mark
    next_mark = time.perf_counter() + PROBE_EVERY_S
    try:
        while rnd == 0 or time.perf_counter() < deadline:
            grid = FIRST_GRID + rnd
            plan = [("cold", d, grid, True) for d in DIRECTIONS]
            plan += [
                ("warm", DIRECTIONS[i % 3], grid, i % 2 == 0)
                for i in range(WARM_FOLDS_PER_ROUND)
            ]
            plan += [("warm", "window", None, None), ("warm", "regions", None, None)] * (
                WARM_QUERY_PAIRS_PER_ROUND
            )
            cold_s, cold_ok = 0.0, True
            for bucket, what, g, revalidate in plan:
                try:
                    pids = process_tree(server.proc.pid)
                    server0 = sum(map(process_cpu_s, pids))
                    t0 = time.thread_time()
                    if what == "window":
                        rec.call("service.request", client.window, digest, *window)
                    elif what == "regions":
                        rec.call("service.request", client.regions, digest)
                    else:
                        payload = rec.call(
                            "service.request", client.fold, digest, what,
                            grid=g, revalidate=revalidate,
                        )
                        log.payloads.setdefault((g, what), set()).add(
                            payload["payload_digest"]
                        )
                    cost = time.thread_time() - t0
                    cost += sum(map(process_cpu_s, pids)) - server0
                except (ServiceError, OSError, http.client.HTTPException, ValueError) as exc:
                    outcome.check(False, f"client {what}: {exc!r}")
                    cold_ok &= bucket != "cold"
                    client.close()
                    client = ServiceClient(HOST, server.port)
                    continue
                outcome.check(True, "")
                log.completed += 1
                costs.append(cost)
                if bucket == "cold":
                    cold_s += cost
                else:
                    warm.append(cost)
            if cold_ok:
                cold.append(cold_s)
            rnd += 1
            if time.perf_counter() >= next_mark or time.perf_counter() >= deadline:
                scale = probe.mark()
                log.cold += [x * scale for x in cold]
                log.warm += [x * scale for x in warm]
                log.cpu_s += sum(costs) * scale
                cold, warm, costs = [], [], []
                next_mark = time.perf_counter() + PROBE_EVERY_S
    finally:
        client.close()


@dataclass
class ServiceResult:
    cold: list[float]
    warm: list[float]
    completed: int
    cpu_s: float
    loop_wall_s: float
    put_s: float
    first_fold_s: float
    counters: dict
    server_rss_mb: float


def timed_put(root: Path, path: Path, rec):
    """``TraceRepo.put`` of *path* into the repository at *root*.

    Returns (repository, entry, CPU seconds).
    """
    repo = TraceRepo(root)
    t0 = cpu_s()
    entry = rec.call("repo.put", repo.put, path)
    return repo, entry, cpu_s() - t0


def service_phase(
    server, path: Path, seconds: float, probe: HostProbe, rec, outcome
) -> ServiceResult:
    """Publish *path*, warm the worker, drive the closed loop, verify.

    The put's time and every request cost are scaled by the host probe.
    """
    repo, entry, put_s = timed_put(server.root, path, rec)
    digest = entry.digest
    span_ns = float(entry.meta.get("duration_ns") or 0.0)
    window = (0.495 * span_ns, 0.505 * span_ns)

    log = ClientLog()
    with ServiceClient(HOST, server.port) as client:
        t0 = time.perf_counter()
        warm_up = client.fold(digest, "counters", grid=WARMUP_GRID)
        first_fold_s = time.perf_counter() - t0
    log.payloads[(WARMUP_GRID, "counters")] = {warm_up["payload_digest"]}
    put_s *= probe.mark()

    t0 = time.perf_counter()
    with rec.open("service.loop"):
        _client_loop(server, digest, t0 + seconds, window, probe, rec, outcome, log)
    loop_wall_s = time.perf_counter() - t0
    with ServiceClient(HOST, server.port) as client:
        counters = client.stats()["counters"]
    rss = peak_rss_mb(server.proc.pid)

    _verify_payloads(repo.path(digest), [log], outcome)
    return ServiceResult(
        cold=log.cold,
        warm=log.warm,
        completed=log.completed,
        cpu_s=log.cpu_s,
        loop_wall_s=loop_wall_s,
        put_s=put_s,
        first_fold_s=first_fold_s,
        counters=counters,
        server_rss_mb=rss,
    )


def _verify_payloads(container: Path, logs, outcome: Outcome) -> None:
    """Every served fold payload must equal a direct fold's payload.

    ``fold_trace`` is ``FoldPlan.from_trace(...).fold(...)``; building
    the plan once keeps the per-grid reference folds affordable.
    """
    seen: dict = {}
    for log in logs:
        for key, digests in log.payloads.items():
            seen.setdefault(key, set()).update(digests)
    builders = {
        "counters": counters_payload, "address": address_payload, "lines": lines_payload,
    }
    with Trace.load(container) as trace:
        plan = FoldPlan.from_trace(trace)
        for grid in sorted({g for g, _ in seen}):
            report = plan.fold(grid_points=grid)
            for direction in DIRECTIONS:
                got = seen.get((grid, direction))
                if got is None:
                    continue
                want = builders[direction](report)["payload_digest"]
                outcome.check(
                    got == {want},
                    f"served {direction} payload at grid {grid} differs from "
                    f"the direct fold ({sorted(got)} != {want})",
                )


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------
@dataclass
class RunResult:
    spec: WorkloadSpec
    seed: int
    outcome: Outcome
    reps: list[RepResult]
    setup_samples: list[float]
    start_samples: list[float]
    put_samples: list[float]
    service: ServiceResult
    recorder: object
    #: CPU seconds of every host probe mark
    probe_marks: list[float]


def run_workload(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    *,
    traced: bool,
    workdir: Path,
    src: Path,
    pins: dict | None = None,
    warmup: WorkloadSpec | None = None,
) -> RunResult:
    """Set up, run the chain and the service phases, check every output.

    *warmup* (a small spec of the same workload) runs the chain once,
    untimed, so lazy imports and first-call costs stay out of the
    first timed repetition.  With *traced*, chain repetitions alternate
    untraced and traced (so the tracing overhead is measured in the
    same run) and the service phase is traced.  A repetition starts
    only while the previous one's duration still fits in the chain
    share of *seconds*.
    """
    outcome = Outcome()
    rec = SpanRecorder(f"{spec.name}-seed{seed}-pid{os.getpid()}") if traced else NullRecorder()
    untraced = NullRecorder()
    work = workdir / f"{spec.name}-seed{seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    server = None
    probe = HostProbe()
    try:
        if warmup is not None:
            chain_rep(warmup, seed, work / "warmup.bsctrace", untraced, outcome)
            probe.mark()
        setup_samples, start_samples = [], []
        for i in range(spec.setup_reps):
            _session, _workload, setup_s = timed_setup(spec, seed)
            del _session, _workload
            candidate = ServerProcess(work / f"repo{i}", src)
            try:
                candidate.wait_ready()
            except BaseException:
                candidate.stop()
                raise
            scale = probe.mark()
            setup_samples.append(setup_s * scale)
            start_samples.append(candidate.start_cpu_s * scale)
            if server is not None:
                server.stop()
            server = candidate

        path = work / "trace.bsctrace"
        chain_s = seconds * (1.0 - spec.service_share)
        reps: list[RepResult] = []
        t_start, last_rep_s = time.perf_counter(), 0.0
        while len(reps) < (2 if traced else 1) or (
            time.perf_counter() - t_start + last_rep_s <= chain_s
        ):
            traced_rep = traced and len(reps) % 2 == 1
            t0 = time.perf_counter()
            reset_peak_rss()
            rep = chain_rep(spec, seed, path, rec if traced_rep else untraced, outcome)
            rep.peak_rss_mb = peak_rss_mb()
            outcome.check(True, "")
            reps.append(rep)
            gc.collect()
            rep.scale = probe.mark()
            last_rep_s = time.perf_counter() - t0
        first = reps[0]
        for rep in reps[1:]:
            outcome.check(
                (rep.trace_digest, rep.fold_digest) == (first.trace_digest, first.fold_digest),
                "repeated run of the same seed gave a different trace",
            )
        pinned = (pins or {}).get(spec.name)
        if pinned is not None and seed == pins.get("seed"):
            outcome.check(
                first.trace_digest == pinned["trace_digest"],
                f"trace digest {first.trace_digest} != pinned {pinned['trace_digest']}",
            )
            outcome.check(
                first.fold_digest == pinned["fold_digest"],
                f"fold digest {first.fold_digest} != pinned {pinned['fold_digest']}",
            )
        with Trace.load(path) as trace:
            report = validate_trace(trace, spec.session_config(seed).hierarchy)
            outcome.check(report.ok, f"validate_trace: {report.summary()}")

        # the last put (into the server's repository) is the service's own
        put_samples = []
        for i in range(spec.setup_reps - 1):
            put_samples.append(timed_put(work / f"put{i}", path, untraced)[2])
            shutil.rmtree(work / f"put{i}")
        scale = probe.mark()
        put_samples = [x * scale for x in put_samples]
        service = service_phase(
            server, path, max(seconds * spec.service_share, 0.1), probe, rec, outcome
        )
        put_samples.append(service.put_s)
        return RunResult(
            spec=spec,
            seed=seed,
            outcome=outcome,
            reps=reps,
            setup_samples=setup_samples + [r.setup_s * r.scale for r in reps],
            start_samples=start_samples,
            put_samples=put_samples,
            service=service,
            recorder=rec,
            probe_marks=probe.marks,
        )
    finally:
        probe.close()
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:
            pass  # another run still uses it


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")

