"""Tests for packed-word frontier states and validated spill resume.

For ``k <= 16`` a frontier state is one uint64 word (its bit-pack key)
and every generator is a shift/mask :class:`~repro.frontier.encoding
.WordProgram`.  These tests hold the programs to the column gathers
they replace (pack after gather, order included) on all ten families,
round-trip the packing, pin the codec's choice and wire format, check
that both encodings give byte-identical layers and first hops, and
check that a damaged, mistyped or foreign run dir fails resume with
:class:`~repro.frontier.spill.SpillError`.
"""

import json
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frontier.encoding as encoding
from repro.frontier import (
    FrontierBFS,
    ShardedFrontierBFS,
    SpillError,
    expand_states,
    generator_columns,
    inverse_generator_columns,
    make_key_fn,
)
from repro.frontier.encoding import (
    StateCodec,
    WordProgram,
    pack_words,
    unpack_words,
)
from repro.frontier.spill import JOURNAL_FORMAT
from repro.obs import MetricsRegistry, use_registry
from repro.networks import make_network
from repro.networks.registry import FAMILIES


def random_rows(rng, k, m):
    return np.stack(
        [rng.permutation(k) + 1 for _ in range(m)]
    ).astype(np.uint8)


@st.composite
def networks_up_to_16(draw):
    """Any of the ten families at a size with ``k <= 16``."""
    family = draw(st.sampled_from(sorted(FAMILIES) + ["IS"]))
    if family == "IS":
        return make_network("IS", k=draw(st.integers(2, 16)))
    l = draw(st.integers(2, 5))
    n = draw(st.integers(1, 15 // l))
    return make_network(family, l=l, n=n)


class TestWordPrograms:
    @settings(max_examples=120, deadline=None)
    @given(net=networks_up_to_16(), seed=st.integers(0, 2 ** 32 - 1),
           m=st.integers(1, 40))
    def test_program_equals_pack_after_gather(self, net, seed, m):
        k = net.k
        rows = random_rows(np.random.default_rng(seed), k, m)
        words = pack_words(rows)
        for columns in (generator_columns(net),
                        inverse_generator_columns(net)):
            program = WordProgram(columns)
            assert len(program) == len(columns)
            got = expand_states(words, program)
            want = pack_words(expand_states(rows, columns))
            assert got.dtype == np.uint64
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("k", range(1, 17))
    def test_pack_unpack_round_trip(self, k):
        rows = random_rows(np.random.default_rng(k), k, 200)
        words = pack_words(rows)
        assert words.dtype == np.uint64 and words.shape == (200,)
        back = unpack_words(words, k)
        assert back.dtype == np.uint8
        assert np.array_equal(back, rows)
        # the word is the bit-pack key, so key == state
        key_fn, _exact = make_key_fn(k)
        assert np.array_equal(key_fn(rows), words)


class TestStateCodec:
    def test_words_up_to_16_rows_beyond(self):
        assert StateCodec(16, None).encoding == "words"
        assert StateCodec(17, make_key_fn(17)[0]).encoding == "rows"

    @pytest.mark.parametrize("force_rows", [False, True])
    def test_wire_round_trip(self, monkeypatch, force_rows):
        if force_rows:
            monkeypatch.setattr(encoding, "MAX_BITPACK_K", 0)
        k = 9
        codec = StateCodec(k, make_key_fn(k)[0])
        assert codec.encoding == ("rows" if force_rows else "words")
        states = codec.encode(random_rows(np.random.default_rng(3), k, 50))
        keys = codec.key_fn(states)
        idx = np.array([4, 0, 17, 17, 49])
        part = codec.take(states, keys, idx)
        arrays = codec.wire(*part)
        assert len(arrays) == (2 if force_rows else 1)
        assert sum(a.nbytes for a in arrays) == idx.size * codec.wire_bytes
        for got in (codec.unwire(arrays), codec.from_buffer(
                b"".join(a.tobytes() for a in arrays), idx.size)):
            assert np.array_equal(got[0], states[idx])
            assert np.array_equal(got[1], keys[idx])


class TestEncodingsAgree:
    @pytest.mark.parametrize("family,kwargs", [
        ("MS", {"l": 2, "n": 3}), ("MR", {"l": 3, "n": 2}),
        ("RIS", {"l": 2, "n": 2}), ("IS", {"k": 5}),
    ])
    def test_layers_and_first_hops_identical(self, monkeypatch, family,
                                             kwargs):
        net = make_network(family, **kwargs)

        def run():
            return FrontierBFS(
                net, memory_budget_bytes=1 << 14, keep_layers=True,
                track_first_hop=True,
            ).run()

        words = run()
        monkeypatch.setattr(encoding, "MAX_BITPACK_K", 0)
        rows = run()
        assert words.layer_sizes == rows.layer_sizes
        for a, b in zip(words.layers, rows.layers):
            assert a.dtype == b.dtype == np.uint8
            assert np.array_equal(a, b)
        for a, b in zip(words.layer_tags, rows.layer_tags):
            assert np.array_equal(a, b)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the patched encoding only by fork",
    )
    def test_sharded_ships_eight_bytes_per_word(self, monkeypatch):
        net = make_network("MS", l=2, n=3)
        books = ShardedFrontierBFS(
            net, workers=2, memory_budget_bytes=1 << 18,
        ).run().exchange
        assert books["closed"]
        assert books["shipped_bytes"] % 8 == 0
        assert 0 < books["shipped_bytes"] <= 8 * books["sent_rows"]
        monkeypatch.setattr(encoding, "MAX_BITPACK_K", 0)
        rows = ShardedFrontierBFS(
            net, workers=2, memory_budget_bytes=1 << 18,
        ).run().exchange
        assert rows["shipped_bytes"] % (net.k + 8) == 0


def crashed_run(run_dir, stop_after, family="MS", l=5, n=1):
    """A spilled run stopped right after journaling ``stop_after``."""
    net = make_network(family, l=l, n=n)

    def stop(depth, _size):
        if depth == stop_after:
            raise KeyboardInterrupt()

    with pytest.raises(KeyboardInterrupt):
        FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            on_layer=stop,
        ).run()
    return net


def resume(net, run_dir):
    return FrontierBFS(
        net, memory_budget_bytes=16_384, spill_dir=run_dir, resume=True,
    ).run()


class TestSpillResume:
    def test_journal_records_words(self, tmp_path):
        net = make_network("MS", l=2, n=3)
        run_dir = tmp_path / "run"
        result = FrontierBFS(
            net, memory_budget_bytes=16_384, spill_dir=run_dir,
            cleanup=False,
        ).run()
        journal = json.loads((run_dir / "journal.json").read_text())
        assert journal["format"] == JOURNAL_FORMAT == 2
        assert journal["encoding"] == "words" and journal["k"] == net.k
        segment = np.load(run_dir / journal["layers"][3]["segments"][0])
        assert segment.dtype == np.uint64 and segment.ndim == 1
        # every layer is counted, the identity's seed segment included
        assert result.spilled_bytes == 8 * result.num_states

    def test_spilled_bytes_count_the_seed_segment(self, tmp_path):
        """Result and ``frontier.spill_bytes`` counter agree with the
        bytes on disk: 8 bytes per state, 7! states, identity included;
        the sharded coordinator reports the same figure."""
        net = make_network("MS", l=2, n=3)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = FrontierBFS(
                net, memory_budget_bytes=16_384, spill_dir=tmp_path / "a",
            ).run()
        assert result.spilled_bytes == 8 * math.factorial(7)
        assert registry.counter("frontier.spill_bytes").value(
            network=net.name
        ) == result.spilled_bytes
        sharded = ShardedFrontierBFS(
            net, workers=2, memory_budget_bytes=2 << 16,
            spill_dir=tmp_path / "b",
        ).run()
        assert sharded.spilled_bytes == 8 * math.factorial(7)

    def test_truncated_segment_raises_spill_error(self, tmp_path):
        run_dir = tmp_path / "run"
        net = crashed_run(run_dir, stop_after=4)
        segment = run_dir / "layer_0004_0000.npy"
        blob = segment.read_bytes()
        segment.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(SpillError, match="unreadable segment"):
            resume(net, run_dir)

    def test_mistyped_segment_raises_spill_error(self, tmp_path):
        run_dir = tmp_path / "run"
        net = crashed_run(run_dir, stop_after=4)
        segment = run_dir / "layer_0004_0000.npy"
        np.save(segment, unpack_words(np.load(segment), net.k))
        with pytest.raises(SpillError, match="not this run's words"):
            resume(net, run_dir)

    def test_short_layer_raises_spill_error(self, tmp_path):
        run_dir = tmp_path / "run"
        net = crashed_run(run_dir, stop_after=4)
        segment = run_dir / "layer_0004_0000.npy"
        np.save(segment, np.load(segment)[:-1])
        with pytest.raises(SpillError, match="journaled states"):
            resume(net, run_dir)

    def test_format_1_journal_raises_spill_error(self, tmp_path):
        run_dir = tmp_path / "run"
        net = crashed_run(run_dir, stop_after=2)
        path = run_dir / "journal.json"
        journal = json.loads(path.read_text())
        journal["format"] = 1
        del journal["encoding"]
        path.write_text(json.dumps(journal))
        with pytest.raises(SpillError, match="format 1"):
            resume(net, run_dir)

    def test_other_encoding_raises_spill_error(self, tmp_path,
                                               monkeypatch):
        run_dir = tmp_path / "run"
        net = crashed_run(run_dir, stop_after=2)
        monkeypatch.setattr(encoding, "MAX_BITPACK_K", 0)
        with pytest.raises(SpillError, match="'words' states"):
            resume(net, run_dir)

    def test_sharded_truncated_segment_raises_spill_error(self, tmp_path):
        """A damaged shard segment fails sharded resume with the same
        :class:`SpillError` as single-process resume, not as a worker
        death."""
        net = make_network("MS", l=5, n=1)
        run_dir = tmp_path / "run"

        def stop(depth, _size):
            if depth == 4:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, on_layer=stop,
            ).run()
        segment = run_dir / "shard-0" / "layer_0004_0000.npy"
        blob = segment.read_bytes()
        segment.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(SpillError, match="unreadable segment"):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, resume=True,
            ).run()

    def test_sharded_resume_rejects_old_coordinator_format(self, tmp_path):
        net = make_network("MS", l=2, n=3)
        run_dir = tmp_path / "run"

        def stop(depth, _size):
            if depth == 2:
                raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, on_layer=stop,
            ).run()
        path = run_dir / "coordinator.json"
        meta = json.loads(path.read_text())
        assert meta["encoding"] == "words"
        meta["format"] = 1
        path.write_text(json.dumps(meta))
        with pytest.raises(SpillError, match="format 1"):
            ShardedFrontierBFS(
                net, workers=2, memory_budget_bytes=2 << 16,
                spill_dir=run_dir, resume=True,
            ).run()
