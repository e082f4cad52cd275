"""Meet-in-the-middle point distances without a node table.

A single-source BFS to depth ``d`` touches ``O(degree^d)`` states; two
balls meeting in the middle touch ``O(degree^{d/2})`` each — the only
practical way to sample pair distances at ``k = 11..12`` where even the
frontier profile is hours of work.  By vertex transitivity every pair
distance is an identity distance: ``d(s, t) = d(id, s⁻¹t)`` (left
translation is an automorphism, valid for directed families too), so
the forward ball grows from the identity along the generators and the
backward ball grows from the relative label along the *inverse*
generators (predecessor expansion).

Termination: after both sides have completed depths ``(F, B)``, every
path of length ``<= F + B`` has produced a meet (a shortest path's
position-``i`` node sits in forward layer ``i`` and backward layer
``L - i``; some split with ``i <= F`` and ``L - i <= B`` exists whenever
``L <= F + B``).  So once ``best <= F + B`` the best meet *is* the
distance.  Keys are exact for ``k <= 20``
(:func:`~repro.frontier.encoding.make_key_fn`), which covers every
target in the paper's range; beyond that a hash collision could
under-report a distance with probability ~``m² / 2⁶⁴``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.permutations import Permutation
from .encoding import (
    check_state_count,
    chunk_rows,
    dedup_batch,
    expand_states,
    generator_columns,
    identity_state,
    in_any,
    in_sorted,
    inverse_generator_columns,
    key_bits,
    make_key_fn,
    merge_sorted,
)

#: hard stop for runaway searches on disconnected directed families.
DEFAULT_MAX_DEPTH = 512


class _Ball:
    """One side of the search: a growing BFS ball with per-layer keys
    (for meet depths) and all of them merged (``visited``, for dedup)."""

    def __init__(self, root: np.ndarray, columns, key_fn, key_width: int,
                 chunk: int):
        self.columns = columns
        self.key_fn = key_fn
        self.key_width = key_width
        self.chunk = chunk
        self.frontier: List[np.ndarray] = [root]
        self.visited = key_fn(root)
        self.layer_keys: List[np.ndarray] = [self.visited]
        self.depth = 0
        self.size = 1
        self.exhausted = False

    def expand(self) -> Optional[np.ndarray]:
        """Grow one layer; returns its sorted keys (None if exhausted)."""
        new_chunks: List[np.ndarray] = []
        new_keys: List[np.ndarray] = []
        for block in self.frontier:
            for lo in range(0, block.shape[0], self.chunk):
                cand = expand_states(block[lo:lo + self.chunk], self.columns)
                sel, fresh_keys = dedup_batch(
                    self.key_fn(cand), [self.visited] + new_keys,
                    self.key_width, in_any,
                )
                if sel.size:
                    new_chunks.append(cand[sel])
                    new_keys.append(fresh_keys)
        if not new_chunks:
            self.exhausted = True
            self.frontier = []
            return None
        merged = merge_sorted(*new_keys)
        self.visited = merge_sorted(self.visited, merged)
        self.frontier = new_chunks
        self.layer_keys.append(merged)
        self.depth += 1
        self.size += int(merged.size)
        check_state_count(self.size, new_chunks[0].shape[1], "ball")
        return merged


def identity_distance(
    graph,
    target: Permutation,
    memory_budget_bytes: int = 64 * 1024 * 1024,
    key_seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> int:
    """Distance from the identity to ``target`` by bidirectional BFS.

    Returns ``-1`` when ``target`` is unreachable (non-generating sets
    on directed families).  Memory: each side's batches are sized from
    half the budget; every visited key is kept twice (16 bytes per
    state): per layer for meet depths, merged for dedup.
    """
    k = graph.k
    if target.k != k:
        raise ValueError(f"size mismatch: {target.k} vs {k}")
    if target.is_identity():
        return 0
    key_fn, _ = make_key_fn(k, key_seed)
    chunk = chunk_rows(memory_budget_bytes // 2, k, graph.degree)
    root_f = identity_state(k)
    root_b = np.asarray(target.symbols, dtype=root_f.dtype)[None, :]
    width = key_bits(k)
    forward = _Ball(root_f, generator_columns(graph), key_fn, width, chunk)
    backward = _Ball(
        root_b, inverse_generator_columns(graph), key_fn, width, chunk
    )
    best = -1

    def note_meets(new_keys: np.ndarray, new_depth: int, other: _Ball,
                   best: int) -> int:
        # the first layer met is the nearest: later ones only add depth
        for j, ref in enumerate(other.layer_keys):
            if in_sorted(new_keys, ref).any():
                return new_depth + j if best < 0 else min(best, new_depth + j)
        return best

    while best < 0 or best > forward.depth + backward.depth:
        side, other = (
            (forward, backward)
            if forward.size <= backward.size and not forward.exhausted
            else (backward, forward)
        )
        if side.exhausted:
            side, other = other, side
        if side.exhausted:
            break  # both balls complete: best (or -1) is final
        new_keys = side.expand()
        if new_keys is not None:
            best = note_meets(new_keys, side.depth, other, best)
        if forward.depth + backward.depth > max_depth:
            raise RuntimeError(
                f"bidirectional search exceeded max_depth={max_depth} "
                f"on {graph.name}"
            )
    return best


def pair_distance(
    graph,
    source: Permutation,
    target: Permutation,
    memory_budget_bytes: int = 64 * 1024 * 1024,
    key_seed: int = 0,
) -> int:
    """Directed distance ``source -> target`` via one left translation:
    ``d(s, t) = d(id, s⁻¹t)``."""
    return identity_distance(
        graph, source.inverse() * target,
        memory_budget_bytes=memory_budget_bytes, key_seed=key_seed,
    )
