"""Memory-bounded frontier BFS over Cayley/super-Cayley graphs.

The compiled engine (:mod:`repro.core.compiled`) materialises all
``k!`` nodes before any analysis runs, which walls the paper's sweeps
at ``k <= 9``.  This package explores the same graphs **without a node
table**: encoded uint8 state matrices, batched per-generator expansion,
one sort-once dedup kernel over packed state keys, a byte budget
that fixes batch sizes, and crash-resumable spill-to-disk frontiers.
Layer profiles, diameters and first hops are byte-identical to the
compiled BFS (same tie-breaks); pair distances come from
meet-in-the-middle bidirectional search.

Entry points: :class:`FrontierBFS` / :func:`frontier_profile` for the
identity-rooted layer profile, :class:`ShardedFrontierBFS` /
:func:`sharded_frontier_profile` for the owner-computes parallel
version across worker processes, :func:`identity_distance` /
:func:`pair_distance` for point queries, and
:class:`~repro.frontier.spill.FrontierRunDir` for the run-dir
machinery behind ``--spill-dir`` / ``--resume``.
"""

from .bidirectional import identity_distance, pair_distance
from .encoding import (
    MAX_BITPACK_K,
    MAX_EXACT_KEY_K,
    StateCountError,
    expand_states,
    generator_columns,
    identity_state,
    inverse_generator_columns,
    make_key_fn,
)
from .engine import DEFAULT_MEMORY_BUDGET, FrontierBFS, FrontierResult
from .partition import PHI64, log2_ceil, owner_of, partition_by_owner
from .sharded import ShardedFrontierBFS, ShardWorkerDied
from .spill import (
    FrontierRunDir,
    SpillError,
    active_run_dirs,
    reset_active_runs_after_fork,
)


def frontier_profile(graph, **kwargs) -> FrontierResult:
    """One-shot identity-rooted frontier BFS (see :class:`FrontierBFS`)."""
    return FrontierBFS(graph, **kwargs).run()


def sharded_frontier_profile(graph, **kwargs) -> FrontierResult:
    """One-shot sharded profile (see :class:`ShardedFrontierBFS`)."""
    return ShardedFrontierBFS(graph, **kwargs).run()


__all__ = [
    "MAX_BITPACK_K",
    "MAX_EXACT_KEY_K",
    "DEFAULT_MEMORY_BUDGET",
    "PHI64",
    "FrontierBFS",
    "FrontierResult",
    "FrontierRunDir",
    "ShardWorkerDied",
    "ShardedFrontierBFS",
    "SpillError",
    "StateCountError",
    "active_run_dirs",
    "expand_states",
    "frontier_profile",
    "generator_columns",
    "identity_distance",
    "identity_state",
    "inverse_generator_columns",
    "log2_ceil",
    "make_key_fn",
    "owner_of",
    "pair_distance",
    "partition_by_owner",
    "reset_active_runs_after_fork",
    "sharded_frontier_profile",
]
