"""Memory-bounded frontier BFS: layer profiles without a node table.

:class:`FrontierBFS` explores a Cayley/super-Cayley graph from the
identity one layer at a time, holding only the current frontier (as an
encoded state matrix), a bounded window of visited-state *keys*, and —
when a spill dir is given — streaming completed layers through ``.npy``
segments on disk.  Peak memory is governed by ``memory_budget_bytes``,
not by ``k!``: the budget fixes the expansion batch size
(:func:`~repro.frontier.encoding.chunk_rows`) and the spill threshold,
so MS(9,1)'s 3.6M-state profile completes in tens of MB where
:class:`~repro.core.compiled.CompiledGraph` would want hundreds.

Dedup window
------------
For **undirected** families (inverse-closed generator sets) a candidate
at depth ``d+1`` can only collide with depths ``d-1``, ``d`` or ``d+1``
(adjacent nodes differ by at most one in identity-distance), so the
window is the previous and current layers' keys merged into one sorted
array.  **Directed** families (rotator nuclei) lack that symmetry, so
it holds *all* visited layers' keys — 8 bytes per state, still far
below a materialised table.  The accumulating next layer's keys ride
along as a few sorted chunks.

Tie-break parity
----------------
Candidates are generated frontier-major, generator-minor
(:func:`~repro.frontier.encoding.expand_states`) and deduped
first-occurrence-wins, batch by batch in frontier order — the exact
discovery order of the compiled whole-frontier BFS.  Layer contents,
their order, and first-hop tags are therefore byte-identical to
``CompiledGraph`` (asserted by ``tests/test_frontier.py``) and
invariant under ``memory_budget_bytes``: shrinking the budget changes
batch counts, never results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from ..core.tablestore import store_digest
from ..obs import get_registry, get_tracer
from .encoding import (
    STATE_DTYPE,
    check_state_count,
    chunk_rows,
    dedup_batch,
    expand_states,
    generator_columns,
    identity_state,
    in_any,
    key_bits,
    make_key_fn,
    merge_sorted,
)
from .spill import FrontierRunDir, SpillError

#: default exploration budget: enough for MS(9,1) with lots of headroom,
#: a fraction of the materialised-table footprint at the same k.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

#: per-batch phases timed into the ``frontier.phase_seconds`` counter.
PHASES = ("expand", "key", "dedup", "spill")


@dataclass
class FrontierResult:
    """Everything a frontier run produces (layer profile first)."""

    network: str
    k: int
    layer_sizes: List[int]
    num_states: int
    diameter: int
    batches: int
    candidates: int
    memory_budget_bytes: int
    chunk_rows: int
    exact_keys: bool
    undirected: bool
    spill_segments: int = 0
    spilled_bytes: int = 0
    resumed_from: Optional[int] = None
    elapsed_seconds: float = 0.0
    run_dir: Optional[str] = None
    #: worker processes that produced the profile (1 = in-process).
    workers: int = 1
    #: True when a ``max_depth`` cap stopped the search before the
    #: frontier emptied — ``diameter`` is then only a lower bound.
    truncated: bool = False
    #: sharded runs only: closed all-to-all exchange accounting
    #: (see :class:`~repro.frontier.sharded.ShardedFrontierBFS`).
    exchange: Optional[dict] = None
    #: populated only with ``keep_layers=True`` (small-k testing):
    #: per-layer state matrices in discovery order, plus first-hop tags
    #: when ``track_first_hop`` was on.
    layers: Optional[List[np.ndarray]] = None
    layer_tags: Optional[List[np.ndarray]] = None

    @property
    def dedup_ratio(self) -> float:
        """Accepted states per generated candidate (1.0 = no waste)."""
        return self.num_states / self.candidates if self.candidates else 1.0

    def row(self) -> dict:
        row = {
            "network": self.network,
            "k": self.k,
            "num_states": self.num_states,
            "diameter": self.diameter,
            "layer_sizes": list(self.layer_sizes),
            "batches": self.batches,
            "dedup_ratio": round(self.dedup_ratio, 6),
            "memory_budget_bytes": self.memory_budget_bytes,
            "chunk_rows": self.chunk_rows,
            "exact_keys": self.exact_keys,
            "spill_segments": self.spill_segments,
            "spilled_bytes": self.spilled_bytes,
            "resumed_from": self.resumed_from,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "workers": self.workers,
        }
        if self.truncated:
            row["truncated"] = True
        if self.exchange is not None:
            row["exchange"] = dict(self.exchange)
        return row


class FrontierBFS:
    """One identity-rooted, memory-bounded BFS over ``graph``.

    Parameters
    ----------
    graph:
        any :class:`~repro.core.cayley.CayleyGraph`; ``k`` may exceed
        the compiled engine's materialisation ceiling.
    memory_budget_bytes:
        working-set target; drives batch size and spill threshold.
    spill_dir:
        run directory for on-disk frontiers.  Without it, completed
        layers' *states* are dropped as soon as the next layer is done
        (keys are retained per the dedup window) — fine for profiles,
        required off for ``resume``.
    resume:
        reopen ``spill_dir`` from its last journaled layer instead of
        starting over (the journal must match this graph's digest).
    track_first_hop:
        carry the generator index of each state's first hop (the
        routing-table column) through expansion.
    keep_layers:
        retain every layer's states (and tags) in the result — testing
        aid, defeats the memory bound.
    on_layer:
        callback ``(depth, size)`` after each completed (and, when
        spilling, journaled) layer — progress hooks and crash tests.
    cleanup:
        remove the run dir when the search completes (kept on error).
    max_depth:
        stop after completing this layer (None = run until the
        frontier empties).  A capped run sets ``truncated`` on its
        result and its ``diameter`` is only a lower bound — this is a
        throughput-measurement aid (``bench_frontier_sharded``), not a
        profile mode.
    """

    def __init__(
        self,
        graph,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        spill_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        track_first_hop: bool = False,
        keep_layers: bool = False,
        key_seed: int = 0,
        on_layer: Optional[Callable[[int, int], None]] = None,
        cleanup: bool = True,
        max_depth: Optional[int] = None,
    ):
        if graph.k > 255:
            raise ValueError("uint8 state encoding requires k <= 255")
        if resume and spill_dir is None:
            raise ValueError("resume requires a spill_dir")
        self.graph = graph
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.resume = resume
        self.track_first_hop = track_first_hop
        self.keep_layers = keep_layers
        self.key_seed = key_seed
        self.on_layer = on_layer
        self.cleanup = cleanup
        self.max_depth = max_depth

    # -- public API -----------------------------------------------------

    def run(self) -> FrontierResult:
        graph = self.graph
        k = graph.k
        columns = generator_columns(graph)
        degree = len(columns)
        key_fn, exact = make_key_fn(k, self.key_seed)
        undirected = graph.is_undirectable()
        chunk = chunk_rows(
            self.memory_budget_bytes, k, degree, self.track_first_hop
        )
        spill_threshold = max(4096, self.memory_budget_bytes // 4)
        registry = get_registry()
        started = time.perf_counter()

        run: Optional[FrontierRunDir] = None
        if self.spill_dir is not None:
            digest = store_digest(graph)
            meta = {
                "network": graph.name,
                "k": k,
                "memory_budget_bytes": self.memory_budget_bytes,
                "track_first_hop": self.track_first_hop,
            }
            if self.resume:
                run = FrontierRunDir.resume(self.spill_dir, digest)
                if run.complete:
                    raise SpillError(
                        f"run at {self.spill_dir} already completed — "
                        "nothing to resume"
                    )
            else:
                run = FrontierRunDir.create(self.spill_dir, digest, meta)

        state = _SearchState(
            key_fn=key_fn, undirected=undirected, degree=degree,
            track_first_hop=self.track_first_hop, key_width=key_bits(k),
        )
        result = FrontierResult(
            network=graph.name, k=k, layer_sizes=[], num_states=0,
            diameter=0, batches=0, candidates=0,
            memory_budget_bytes=self.memory_budget_bytes,
            chunk_rows=chunk, exact_keys=exact, undirected=undirected,
            layers=[] if self.keep_layers else None,
            layer_tags=(
                [] if (self.keep_layers and self.track_first_hop) else None
            ),
        )

        with get_tracer().span(
            "frontier.bfs", network=graph.name, k=k,
            budget=self.memory_budget_bytes,
        ) as span:
            try:
                if run is not None and self.resume and run.layers:
                    self._restore(run, state, result)
                else:
                    self._seed_identity(run, state, result, k)
                self._explore(
                    run, state, result, columns, chunk,
                    spill_threshold, registry,
                )
            except BaseException:
                if run is not None:
                    run.abandon()  # journaled layers stay for --resume
                raise
            if run is not None:
                result.spill_segments = sum(
                    len(e["segments"]) for e in run.layers
                )
                run.finish(cleanup=self.cleanup)
                if not self.cleanup:
                    result.run_dir = str(run.path)
            result.diameter = len(result.layer_sizes) - 1
            result.elapsed_seconds = time.perf_counter() - started
            span.set(
                depth=result.diameter, states=result.num_states,
                batches=result.batches,
            )
        return result

    # -- setup ----------------------------------------------------------

    def _seed_identity(self, run, state, result, k: int) -> None:
        root = identity_state(k)
        state.frontier = _RamLayer([root], [np.zeros(1, dtype=np.uint8)]
                                   if self.track_first_hop else None)
        state.load_window(0, lambda d: state.key_fn(root))
        result.layer_sizes.append(1)
        result.num_states += 1
        if result.layers is not None:
            result.layers.append(root.copy())
            if result.layer_tags is not None:
                result.layer_tags.append(np.full(1, -1, dtype=np.int16))
        if run is not None:
            names = run.write_segment(
                0, 0, root,
                np.zeros(1, dtype=np.uint8) if self.track_first_hop
                else None,
            )
            run.commit_layer(0, 1, names[:1], names[1:])
        if self.on_layer is not None:
            self.on_layer(0, 1)

    def _restore(self, run, state, result) -> None:
        """Rebuild the in-RAM search window from a journaled run dir."""
        depth = len(run.layers) - 1
        result.resumed_from = depth
        for entry in run.layers:
            result.layer_sizes.append(int(entry["size"]))
            result.num_states += int(entry["size"])
        if self.keep_layers:
            raise SpillError("keep_layers cannot be combined with resume")

        def layer_keys(d: int) -> np.ndarray:
            parts = [state.key_fn(seg) for seg in run.load_layer(d)]
            return np.sort(np.concatenate(parts))

        state.frontier = _DiskLayer(run, depth, self.track_first_hop)
        state.load_window(depth, layer_keys)

    # -- the layer loop --------------------------------------------------

    def _explore(self, run, state, result, columns, chunk,
                 spill_threshold, registry) -> None:
        depth = len(result.layer_sizes) - 1
        width_gauge = registry.gauge("frontier.layer_width")
        dedup_gauge = registry.gauge("frontier.dedup_ratio")
        spill_counter = registry.counter("frontier.spill_bytes")
        batch_hist = registry.histogram("frontier.batch_seconds")
        phase_counter = registry.counter("frontier.phase_seconds")
        net = self.graph.name

        while True:
            new = _LayerBuilder(
                run=run, depth=depth + 1, threshold=spill_threshold,
                track_tags=self.track_first_hop,
            )
            layer_candidates = 0
            for states, tags in state.frontier.pieces(chunk):
                stamps = [time.perf_counter()]
                cand = expand_states(states, columns)
                stamps.append(time.perf_counter())
                keys = state.key_fn(cand)
                stamps.append(time.perf_counter())
                sel, new_keys = dedup_batch(
                    keys, state.guard() + new.key_chunks,
                    state.key_width, in_any,
                )
                stamps.append(time.perf_counter())
                if sel.size:
                    sel_tags = None
                    if self.track_first_hop:
                        sel_tags = (
                            (sel % state.degree).astype(np.uint8)
                            if depth == 0 else tags[sel // state.degree]
                        )
                    new.add(cand[sel], new_keys, sel_tags)
                stamps.append(time.perf_counter())
                for phase, t0, t1 in zip(PHASES, stamps, stamps[1:]):
                    phase_counter.inc(t1 - t0, network=net, phase=phase)
                layer_candidates += int(keys.size)
                result.batches += 1
                batch_hist.observe(stamps[-1] - stamps[0], network=net)
                check_state_count(
                    result.num_states + new.size, self.graph.k, net
                )
            size = new.size
            if not size:
                result.candidates += layer_candidates
                break
            depth += 1
            state.frontier.discard()
            ram_states, ram_tags = new.seal()
            if run is not None:
                run.commit_layer(
                    depth, size, new.segment_names, new.tag_segment_names
                )
                state.frontier = _DiskLayer(
                    run, depth, self.track_first_hop
                )
            else:
                state.frontier = _RamLayer(ram_states, ram_tags)
            result.layer_sizes.append(size)
            result.num_states += size
            result.candidates += layer_candidates
            result.spilled_bytes += new.spilled_bytes
            if new.spilled_bytes:
                spill_counter.inc(new.spilled_bytes, network=net)
            width_gauge.set(size, network=net, depth=str(depth))
            dedup_gauge.set(
                size / layer_candidates if layer_candidates else 1.0,
                network=net,
            )
            if result.layers is not None:
                pieces = list(state.frontier.pieces(1 << 30))
                result.layers.append(np.concatenate([p for p, _ in pieces]))
                if result.layer_tags is not None:
                    result.layer_tags.append(np.concatenate(
                        [t for _, t in pieces]
                    ).astype(np.int16))
            state.rotate(new.merged_keys())
            if self.on_layer is not None:
                self.on_layer(depth, size)
            if self.max_depth is not None and depth >= self.max_depth:
                result.truncated = True
                break


# ----------------------------------------------------------------------
# Internal plumbing
# ----------------------------------------------------------------------


@dataclass
class _SearchState:
    """The dedup window (``seen``: one sorted key array) plus the
    current frontier."""

    key_fn: Callable
    undirected: bool
    degree: int
    track_first_hop: bool
    key_width: int
    frontier: object = None
    cur_keys: np.ndarray = None
    seen: np.ndarray = None

    def load_window(self, depth: int,
                    layer_keys: Callable[[int], np.ndarray]) -> None:
        """Set the window at ``depth`` from each layer's sorted keys
        (only the last two layers' for undirected families)."""
        first = max(0, depth - 1) if self.undirected else 0
        keys = [layer_keys(d) for d in range(first, depth + 1)]
        self.cur_keys = keys[-1]
        self.seen = merge_sorted(*keys)

    def guard(self) -> List[np.ndarray]:
        return [self.seen]

    def rotate(self, new_keys: np.ndarray) -> None:
        older = self.cur_keys if self.undirected else self.seen
        self.seen = merge_sorted(older, new_keys)
        self.cur_keys = new_keys


def _slices(states: np.ndarray, tags: Optional[np.ndarray],
            chunk_rows: int):
    for lo in range(0, states.shape[0], chunk_rows):
        hi = lo + chunk_rows
        yield states[lo:hi], (tags[lo:hi] if tags is not None else None)


class _RamLayer:
    """A frontier held in RAM as a list of state chunks."""

    def __init__(self, chunks: List[np.ndarray],
                 tag_chunks: Optional[List[np.ndarray]] = None):
        self.chunks = chunks
        self.tag_chunks = tag_chunks

    def pieces(self, chunk_rows: int):
        tag_chunks = self.tag_chunks or [None] * len(self.chunks)
        for states, tags in zip(self.chunks, tag_chunks):
            yield from _slices(states, tags, chunk_rows)

    def discard(self) -> None:
        self.chunks = []
        self.tag_chunks = None


class _DiskLayer:
    """A journaled frontier streamed from its spill segments."""

    def __init__(self, run: FrontierRunDir, depth: int,
                 track_tags: bool):
        self.run = run
        self.depth = depth
        self.track_tags = track_tags

    def pieces(self, chunk_rows: int):
        entry = self.run.layers[self.depth]
        for i, name in enumerate(entry["segments"]):
            tags = (
                np.load(self.run.path / entry["tag_segments"][i])
                if self.track_tags else None
            )
            yield from _slices(
                np.load(self.run.path / name), tags, chunk_rows
            )

    def discard(self) -> None:  # segments stay on disk for resume
        pass


class _LayerBuilder:
    """Accumulates the next layer, flushing to spill segments when the
    in-RAM pending block crosses the threshold."""

    def __init__(self, run: Optional[FrontierRunDir], depth: int,
                 threshold: int, track_tags: bool):
        self.run = run
        self.depth = depth
        self.threshold = threshold
        self.track_tags = track_tags
        self.pending: List[np.ndarray] = []
        self.pending_tags: List[np.ndarray] = []
        self.pending_bytes = 0
        self.key_chunks: List[np.ndarray] = []
        self.segment_names: List[str] = []
        self.tag_segment_names: List[str] = []
        self.spilled_bytes = 0
        self.size = 0

    def add(self, states: np.ndarray, sorted_keys: np.ndarray,
            tags: Optional[np.ndarray]) -> None:
        states = np.ascontiguousarray(states, dtype=STATE_DTYPE)
        self.pending.append(states)
        if tags is not None:
            self.pending_tags.append(tags)
        self.pending_bytes += states.nbytes
        self.size += states.shape[0]
        # binary-counter merging keeps O(log batches) sorted chunks
        chunks = self.key_chunks
        chunks.append(sorted_keys)
        while len(chunks) > 1 and chunks[-2].size <= 2 * chunks[-1].size:
            tail = chunks.pop()
            chunks[-1] = merge_sorted(chunks[-1], tail)
        if self.run is not None and self.pending_bytes >= self.threshold:
            self._flush()

    def _flush(self) -> None:
        if not self.pending:
            return
        states = np.concatenate(self.pending)
        tags = (
            np.concatenate(self.pending_tags) if self.pending_tags
            else None
        )
        names = self.run.write_segment(
            self.depth, len(self.segment_names), states, tags
        )
        self.segment_names.append(names[0])
        if tags is not None:
            self.tag_segment_names.append(names[1])
        self.spilled_bytes += states.nbytes + (
            tags.nbytes if tags is not None else 0
        )
        self.pending, self.pending_tags, self.pending_bytes = [], [], 0

    def seal(self):
        """Finish the layer; returns the RAM chunks (states, tags) —
        empty when everything went to disk."""
        if self.run is not None:
            self._flush()
            return [], None
        return self.pending, (
            self.pending_tags if self.track_tags else None
        )

    def merged_keys(self) -> np.ndarray:
        chunks = self.key_chunks or [np.empty(0, dtype=np.uint64)]
        return chunks[0] if len(chunks) == 1 else merge_sorted(*chunks)
