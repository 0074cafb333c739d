"""Multi-rank substrate.

The paper runs HPCG on 24 MPI ranks and folds one task's trace.  This
package simulates a 1-D rank stack: each rank owns its own session
(address space with independent ASLR, allocator, machine, tracer) and
runs the same local workload with its position-dependent halo
configuration.  Ranks are simulated independently — halo exchange
traffic is modeled inside each rank's stream (see
``HpcgWorkload._halo_exchange``) because only the *addresses* of halo
data matter to the memory analysis, not the values.

:mod:`repro.parallel.sweeps` runs fold parameter sweeps
(bandwidth/grid points against one shared
:class:`~repro.folding.plan.FoldPlan` per worker) and seed-stability
sweeps.  Every pooled path here, and
:func:`repro.analysis.ranks.fold_ranks`, goes through the one process
pool map of :mod:`repro.parallel.pool` and its failure policy.
"""

from repro.parallel.ranks import (
    RankResult,
    RankSet,
    RankSummary,
    derive_rank_config,
)
from repro.parallel.sweeps import (
    SeedResult,
    SweepPoint,
    SweepResult,
    fold_sweep,
    seed_sweep,
)

__all__ = [
    "RankResult",
    "RankSet",
    "RankSummary",
    "derive_rank_config",
    "SeedResult",
    "SweepPoint",
    "SweepResult",
    "fold_sweep",
    "seed_sweep",
]
