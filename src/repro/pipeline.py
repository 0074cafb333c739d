"""High-level API: wire a full session and run workloads in one call.

A *session* is the complete substrate stack — address space (with
ASLR), allocator, binary image, memory engine, machine with PEBS and
multiplexing, tracer — built from a single seed.  This is the entry
point downstream users (and the examples, benchmarks and CLI) go
through:

>>> from repro.pipeline import SessionConfig, run_workload
>>> from repro.workloads import HpcgConfig, HpcgWorkload
>>> trace = run_workload(HpcgWorkload(HpcgConfig(nx=16, ny=16, nz=16,
...     nlevels=2, n_iterations=3)), SessionConfig(seed=1))
>>> trace.n_samples > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.figures import Figure1, build_figure1
from repro.extrae.trace import Trace
from repro.extrae.tracer import Tracer, TracerConfig
from repro.folding.report import FoldedReport, fold_trace
from repro.memsim.engines import ENGINE_NAMES, make_engine
from repro.memsim.hierarchy import HierarchyConfig
from repro.simproc.calibration import MachineCalibration
from repro.simproc.machine import Machine
from repro.simproc.noise import NoiseModel
from repro.util.rng import RngStreams
from repro.vmem.allocator import Allocator
from repro.vmem.binimage import BinaryImage
from repro.vmem.layout import AddressSpace, AddressSpaceConfig
from repro.workloads.base import Workload

__all__ = [
    "Session",
    "SessionConfig",
    "analyze_hpcg",
    "analyze_hpcg_ranks",
    "publish_trace",
    "run_workload",
]


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to build a reproducible session.

    Parameters
    ----------
    seed:
        Root seed: drives ASLR, PEBS randomization and latency jitter
        through named substreams (two sessions with the same seed are
        bit-identical).
    engine:
        ``"analytic"`` (closed-form, use for paper-scale problems),
        ``"precise"`` (per-access cache simulation, use for small
        problems and validation) or ``"vectorized"`` (batch replay of
        the precise hierarchy — identical results, an order of
        magnitude faster).
    """

    seed: int = 0
    engine: str = "analytic"
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    calibration: MachineCalibration = field(default_factory=MachineCalibration)
    tracer: TracerConfig = field(default_factory=TracerConfig)
    address_space: AddressSpaceConfig = field(default_factory=AddressSpaceConfig)
    #: optional OS-noise injection (None = quiet machine)
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINE_NAMES)}, "
                f"got {self.engine!r}"
            )

    def with_seed(self, seed: int) -> "SessionConfig":
        return replace(self, seed=seed)


class Session:
    """A fully wired substrate stack."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()
        self.streams = RngStreams(self.config.seed)
        self.space = AddressSpace(self.streams.get("aslr"), self.config.address_space)
        self.allocator = Allocator(self.space)
        self.image = BinaryImage(self.space)
        engine = make_engine(
            self.config.engine, self.config.hierarchy, rng=self.streams.get("memsim")
        )
        # The default backend keeps its historical stream name ("pebs")
        # so existing seeds reproduce bit-identical traces; any other
        # backend draws from its own named substream.
        backend = self.config.tracer.sampler
        sampler_rng = self.streams.get(
            "pebs" if backend == "pebs" else f"sampler.{backend}"
        )
        self.machine = Machine(
            engine=engine,
            calibration=self.config.calibration,
            sampler=self.config.tracer.build_sampler(sampler_rng),
            multiplex=self.config.tracer.build_multiplex(),
            noise=self.config.noise,
            noise_rng=self.streams.get("noise"),
        )
        self.tracer = Tracer(self.machine, self.allocator, self.image, self.config.tracer)
        self.tracer.trace.metadata.update(
            {"seed": self.config.seed, "engine": self.config.engine}
        )

    def run(self, workload: Workload) -> Trace:
        """Trace *workload* (setup, run, finalize)."""
        return workload.trace(self.tracer)


def run_workload(
    workload: Workload,
    config: SessionConfig | None = None,
    *,
    validate: bool = False,
    sampler: str | None = None,
) -> Trace:
    """One-shot: build a session and trace *workload*.

    With ``validate=True`` the finished trace is passed through the
    invariant checkers (:mod:`repro.validate.invariants`) against the
    session's hierarchy configuration and a
    :class:`~repro.validate.invariants.ValidationError` is raised on
    any violation — equivalent to setting ``TracerConfig.self_check``
    but decided at the call site.

    *sampler* overrides the sampling backend of the session's tracer
    configuration (``"pebs"`` or ``"spe"``) without spelling out a
    full :class:`~repro.extrae.tracer.TracerConfig`.
    """
    config = config or SessionConfig()
    if sampler is not None and sampler != config.tracer.sampler:
        config = replace(config, tracer=replace(config.tracer, sampler=sampler))
    session = Session(config)
    trace = session.run(workload)
    if validate:
        from repro.validate.invariants import validate_trace

        validate_trace(trace, session.config.hierarchy).raise_on_error()
    return trace


def publish_trace(trace, repo_root=None, *, extra_meta: dict | None = None):
    """Store a finished trace in the content-addressed repository.

    The pipeline-level face of :meth:`repro.repo.TraceRepo.put`:
    *trace* (a :class:`~repro.extrae.trace.Trace` or a container path)
    is stored under its content digest in the repository at
    *repo_root* (default: ``$REPRO_TRACE_REPO``, else
    ``~/.local/share/repro/traces``) and becomes servable by
    ``bsc-memtools-serve``.  Returns the :class:`~repro.repo.RepoEntry`.
    """
    from repro.repo import TraceRepo

    return TraceRepo(repo_root).put(trace, extra_meta=extra_meta)


def analyze_hpcg(
    trace: Trace,
    bandwidth: float = 0.015,
    grid_points: int = 201,
    cache=None,
) -> tuple[FoldedReport, Figure1]:
    """Fold an HPCG trace and run the full §III analysis.

    Pass a :class:`repro.folding.cache.FoldCache` as *cache* to serve
    repeated analyses of the same trace from disk.
    """
    report = fold_trace(
        trace, grid_points=grid_points, bandwidth=bandwidth, cache=cache
    )
    return report, build_figure1(report)


def analyze_hpcg_ranks(
    results,
    bandwidth: float = 0.015,
    grid_points: int = 201,
    max_workers: int | None = None,
    cache=None,
    rep_budget: int | None = None,
    rep_seed: int = 0,
):
    """Cluster-level §III analysis over a full rank-set run.

    Folds every rank of *results* (a :meth:`repro.parallel.RankSet.run`
    result list) through the pooled per-rank fold map, merges the
    folded curves into the instance-weighted
    :class:`~repro.analysis.ranks.ClusterReport`, and runs the paper's
    single-task Figure-1 analysis on the representative interior rank.

    Returns ``(cluster, report, figure)`` — the cluster report plus the
    interior rank's :class:`~repro.folding.report.FoldedReport` and
    :class:`~repro.analysis.figures.Figure1`.

    With *rep_budget* each rank folds only that many representative
    instances (extrapolated, seeded by *rep_seed*); the interior rank's
    single-task report stays exact.
    """
    from repro.analysis.ranks import build_cluster_report, fold_ranks

    results = list(results)
    if not results:
        raise ValueError("cannot analyze zero ranks")
    folds = fold_ranks(
        results,
        grid_points=grid_points,
        bandwidth=bandwidth,
        max_workers=max_workers,
        cache=cache,
        rep_budget=rep_budget,
        rep_seed=rep_seed,
    )
    cluster = build_cluster_report(folds)
    interior = results[len(results) // 2]
    report, figure = analyze_hpcg(
        interior.trace, bandwidth=bandwidth, grid_points=grid_points,
        cache=cache,
    )
    return cluster, report, figure
