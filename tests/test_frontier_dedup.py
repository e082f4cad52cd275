"""Tests for the frontier dedup kernel and its key width.

:func:`repro.frontier.encoding.dedup_batch` is the one dedup step every
frontier engine runs.  These tests hold it to the algorithm it
replaced (membership on unsorted keys, then ``np.unique`` first
positions — kept below as the oracle), pin the bit-pack key to the
shift-and-sum definition that spill files and shard ownership depend
on, check the per-candidate memory model against measured
allocations, and check that a broken dedup fails fast instead of
exploring forever.
"""

import multiprocessing
import signal
import time
import tracemalloc
from contextlib import contextmanager
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frontier.encoding as encoding
from repro.core.permutations import Permutation
from repro.frontier import (
    FrontierBFS,
    ShardedFrontierBFS,
    StateCountError,
    identity_distance,
    make_key_fn,
)
from repro.frontier.encoding import (
    candidate_bytes,
    dedup_batch,
    expand_states,
    generator_columns,
    identity_state,
    in_any,
    key_bits,
)
from repro.networks import make_network
from repro.obs import MetricsRegistry, use_registry


def seed_dedup(keys, guard):
    """The dedup the kernel replaced: probe every candidate, then keep
    each fresh key's first position."""
    fresh = np.nonzero(~in_any(keys, guard))[0]
    if not fresh.size:
        return fresh, np.empty(0, dtype=np.uint64)
    _, first_pos = np.unique(keys[fresh], return_index=True)
    first_pos.sort()
    sel = fresh[first_pos]
    return sel, np.sort(keys[sel])


@st.composite
def batches(draw, width):
    """Keys below ``2**width`` with repeats, plus a multi-array guard
    that holds some of them and some unrelated keys."""
    top = (1 << width) - 1
    pool = draw(st.lists(
        st.integers(0, top), min_size=1, max_size=40, unique=True,
    ))
    keys = draw(st.lists(st.sampled_from(pool), max_size=200))
    outsiders = st.integers(0, top)
    guard = draw(st.lists(
        st.lists(st.sampled_from(pool) | outsiders, max_size=30),
        max_size=4,
    ))
    return (
        np.array(keys, dtype=np.uint64),
        [np.unique(np.array(g, dtype=np.uint64)) for g in guard],
    )


class TestDedupKernel:
    @settings(max_examples=150, deadline=None)
    @given(batch=batches(width=24))
    def test_packed_word_branch_matches_seed(self, batch):
        keys, guard = batch
        sel, new_keys = dedup_batch(keys, guard, key_width=24)
        want_sel, want_keys = seed_dedup(keys, guard)
        assert sel.tolist() == want_sel.tolist()
        assert new_keys.tolist() == want_keys.tolist()

    @settings(max_examples=150, deadline=None)
    @given(batch=batches(width=64))
    def test_argsort_branch_matches_seed(self, batch):
        # a 64-bit width leaves no room for a position: stable argsort
        keys, guard = batch
        sel, new_keys = dedup_batch(keys, guard, key_width=64)
        want_sel, want_keys = seed_dedup(keys, guard)
        assert sel.tolist() == want_sel.tolist()
        assert new_keys.tolist() == want_keys.tolist()

    def test_branch_follows_width_and_batch_size(self):
        # 62 key bits + 2 position bits fit a word; 5 rows need 3
        keys = np.array([3, 1, 3, 2, 1], dtype=np.uint64) << np.uint64(60)
        for width in (62, 64):
            sel, new_keys = dedup_batch(keys, [], key_width=width)
            assert sel.tolist() == [0, 1, 3]
            assert new_keys.tolist() == sorted(keys[[0, 1, 3]].tolist())

    def test_empty_batch(self):
        sel, new_keys = dedup_batch(
            np.empty(0, dtype=np.uint64), [], key_width=40
        )
        assert sel.size == 0 and new_keys.size == 0

    def test_membership_sees_sorted_queries(self):
        seen = []

        def member(values, refs):
            seen.append(values.copy())
            return in_any(values, refs)

        keys = np.array([9, 4, 7, 4, 1, 9], dtype=np.uint64)
        dedup_batch(keys, [np.array([7], dtype=np.uint64)], 8, member)
        assert seen[0].tolist() == [1, 4, 7, 9]


class TestKeys:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_bitpack_equals_shift_and_sum(self, k):
        rng = np.random.default_rng(k)
        rows = np.stack(
            [rng.permutation(k) + 1 for _ in range(300)]
        ).astype(np.uint8)
        shifts = np.arange(k, dtype=np.uint64) * np.uint64(4)
        want = (
            (rows.astype(np.uint64) - np.uint64(1)) << shifts
        ).sum(axis=1, dtype=np.uint64)
        key_fn, exact = make_key_fn(k)
        assert exact
        got = key_fn(rows)
        assert got.dtype == np.uint64
        assert got.tolist() == want.tolist()
        assert int(got.max()) < 1 << key_bits(k)

    def test_width_follows_the_key_choice(self, monkeypatch):
        assert key_bits(10) == 40
        assert key_bits(18) == (factorial(18) - 1).bit_length()
        monkeypatch.setattr(encoding, "MAX_BITPACK_K", 0)
        assert key_bits(10) == 22  # Lehmer ranks: 10! - 1 < 2**22
        key_fn, exact = make_key_fn(10)
        labels = np.array([list(range(10, 0, -1))], dtype=np.uint8)
        assert exact and int(key_fn(labels)[0]) == factorial(10) - 1
        monkeypatch.setattr(encoding, "MAX_EXACT_KEY_K", 0)
        _fn, exact = make_key_fn(10)
        assert not exact
        assert key_bits(10) == 64


class TestMemoryModel:
    @pytest.mark.parametrize("family,kwargs,force_hash", [
        ("MS", {"l": 3, "n": 2}, False),   # k=7, one-word bit-pack
        ("MS", {"l": 9, "n": 1}, False),   # k=10, two-word bit-pack
        ("MS", {"l": 9, "n": 1}, True),    # k=10, hash keys, argsort
    ])
    def test_batch_peak_within_candidate_bytes(
        self, monkeypatch, family, kwargs, force_hash
    ):
        if force_hash:
            monkeypatch.setattr(encoding, "MAX_BITPACK_K", 0)
            monkeypatch.setattr(encoding, "MAX_EXACT_KEY_K", 0)
        net = make_network(family, **kwargs)
        k = net.k
        columns = generator_columns(net)
        key_fn, _exact = make_key_fn(k)
        rng = np.random.default_rng(0)
        states = np.stack(
            [rng.permutation(k) + 1 for _ in range(4000)]
        ).astype(np.uint8)
        guard = [np.unique(key_fn(states[:1000]))]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cand = expand_states(states, columns)
            keys = key_fn(cand)
            dedup_batch(keys, guard, key_bits(k))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= cand.shape[0] * candidate_bytes(k)


@contextmanager
def deadline(seconds):
    """Fail (instead of hanging) when the block overruns."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def wide_key_fn(k, seed=0):
    """A key function wider than the width the engine packs: hashed
    64-bit keys where ``key_bits(k)`` promises ``4k`` bits.  The kernel
    then truncates each key by a batch-size-dependent amount, so
    visited states stop matching and the search would never end."""
    exact_fn, _exact = make_key_fn(k, seed)

    def keys(states):
        acc = exact_fn(states) * np.uint64(0x9E3779B97F4A7C15)
        return acc ^ (acc >> np.uint64(29))

    return keys, True


class TestBrokenDedupFailsFast:
    def test_single_process_raises_state_count_error(self, monkeypatch):
        import repro.frontier.engine as engine

        monkeypatch.setattr(engine, "make_key_fn", wide_key_fn)
        net = make_network("MS", l=2, n=3)
        started = time.monotonic()
        with deadline(60), pytest.raises(StateCountError, match="7!"):
            FrontierBFS(net, memory_budget_bytes=1 << 16).run()
        assert time.monotonic() - started < 30

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the patched key function only by fork",
    )
    def test_sharded_coordinator_raises_state_count_error(
        self, monkeypatch
    ):
        import repro.frontier.sharded as sharded

        monkeypatch.setattr(sharded, "make_key_fn", wide_key_fn)
        net = make_network("MS", l=2, n=3)
        started = time.monotonic()
        with deadline(60), pytest.raises(StateCountError, match="7!"):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=1 << 17,
            ).run()
        assert time.monotonic() - started < 30


class TestPhaseSeconds:
    def test_every_batch_phase_is_timed(self):
        net = make_network("MS", l=3, n=2)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = FrontierBFS(net, memory_budget_bytes=1 << 18).run()
        rows = registry.snapshot()["counters"]["frontier.phase_seconds"]
        phases = {row["labels"]["phase"]: row["value"] for row in rows}
        assert set(phases) == {"expand", "key", "dedup", "spill"}
        assert all(value >= 0 for value in phases.values())
        assert sum(phases.values()) <= result.elapsed_seconds


class TestBidirectionalWindow:
    @pytest.mark.parametrize("family", ["MS", "MR"])
    def test_every_target_matches_compiled(self, family):
        # balls dedup against one merged visited array and stop at the
        # nearest met layer; check both on every target of a small graph
        net = make_network(family, l=2, n=2)
        distances = net.compiled().distances
        for rank in range(net.num_nodes):
            target = Permutation.unrank(net.k, rank)
            assert identity_distance(
                net, target, memory_budget_bytes=1 << 14
            ) == int(distances[rank])

    @pytest.mark.parametrize("family", ["MS", "MR"])
    def test_ball_layers_are_the_bfs_profile(self, family):
        from repro.frontier.bidirectional import _Ball

        net = make_network(family, l=2, n=3)
        k = net.k
        key_fn, _exact = make_key_fn(k)
        ball = _Ball(identity_state(k), generator_columns(net), key_fn,
                     key_bits(k), chunk=64)
        for _ in range(net.num_nodes):  # a broken dedup raises first
            if ball.expand() is None:
                break
        assert ball.exhausted
        sizes = [int(keys.size) for keys in ball.layer_keys]
        starts = net.compiled().layer_starts
        assert sizes == np.diff(starts).tolist()
        assert ball.visited.tolist() == sorted(
            np.concatenate(ball.layer_keys).tolist()
        )
