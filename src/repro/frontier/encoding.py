"""Encoded states and hashable keys for table-free graph exploration.

The frontier engine never materialises the ``k!`` node table; it holds
only the states currently in play, in one of two representations
chosen by :func:`_key_scheme` (see :class:`StateCodec`):

* **words** (``k <= 16``) — a state is one uint64 word, nibble ``i``
  holding ``symbol(i) - 1``.  That word is bit-equal to the state's
  bit-pack key, so **the key is the state**: no key pass, 8 bytes per
  state in RAM, on disk and on the wire.  Every generator only moves
  symbols between positions, so it compiles to a
  :class:`WordProgram`: positions grouped by displacement, one shift
  and one mask per group;
* **rows** (``k > 16``) — a state is its ``(k,)`` uint8 one-line label,
  the byte layout of :attr:`repro.core.compiled.CompiledGraph.labels`.
  Generator ``g`` sends row ``u`` to ``u[g_cols]`` (``(u * g)(i) =
  u(g(i))``), one fancy-index per generator, and each row folds into a
  uint64 key: the Lehmer rank for ``k <= 20`` (``20! < 2^63``, exact),
  beyond that a seeded multiply-fold hash with a documented
  (astronomically small) collision probability.

Either way dedup runs on flat uint64 keys: :func:`dedup_batch`, the
one kernel every engine runs on a candidate batch, sorts once, keeps
each key's first occurrence, probes the survivors against the visited
window with sorted-query :func:`in_any`, and restores first-occurrence
order.
"""

from __future__ import annotations

from math import factorial
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..core.compiled import rank_array

#: largest ``k`` whose labels bit-pack into a uint64 (4 bits/symbol).
MAX_BITPACK_K = 16

#: largest ``k`` whose Lehmer rank fits a uint64 (``20! < 2^63``).
MAX_EXACT_KEY_K = 20

#: dtype of state matrices (symbols ``1..k``, so ``k <= 255``).
STATE_DTYPE = np.uint8


class StateCountError(RuntimeError):
    """A search counted more distinct states than the ``k!``
    permutations of ``k`` symbols: its keys or its dedup are broken.
    Raised at the first batch past the bound instead of exploring
    forever."""


def check_state_count(num_states: int, k: int, network: str) -> None:
    """Raise :class:`StateCountError` when ``num_states > k!``."""
    if num_states > factorial(k):
        raise StateCountError(
            f"{network}: {num_states} distinct states exceed "
            f"{k}! = {factorial(k)}; the key function or the dedup "
            "kernel merged keys wrongly"
        )


def identity_state(k: int) -> np.ndarray:
    """The ``(1, k)`` state matrix holding only the identity label."""
    return np.arange(1, k + 1, dtype=STATE_DTYPE)[None, :]


def generator_columns(graph) -> List[np.ndarray]:
    """Per-generator gather columns: applying generator ``g`` to a
    state matrix ``s`` is ``s[:, cols[g]]``."""
    return [
        np.asarray(g.perm.symbols, dtype=np.int64) - 1
        for g in graph.generators
    ]


def inverse_generator_columns(graph) -> List[np.ndarray]:
    """Gather columns of the *inverse* generators — expanding with
    these walks edges backwards (predecessors), which is what the
    backward half of a bidirectional search and reverse BFS need."""
    return [
        np.asarray(g.perm.inverse().symbols, dtype=np.int64) - 1
        for g in graph.generators
    ]


class WordProgram:
    """A generator set compiled to shift/mask programs on packed words.

    Generator ``g`` puts the symbol at position ``cols[i]`` into
    position ``i``; on a packed word that moves nibble ``i + d`` to
    nibble ``i`` with ``d = cols[i] - i``.  Positions sharing a
    displacement ``d`` move together, so each group is one shift (right
    by ``4d``, left by ``-4d`` when ``d < 0``) and one mask of the
    group's target nibbles, and the groups OR into the moved word.
    Transpositions, block swaps, rotations and insertions have at most
    three displacements, so a generator costs a handful of word
    operations whatever ``k`` is.  Built once per run from the gather
    columns (:func:`generator_columns` or
    :func:`inverse_generator_columns`).
    """

    def __init__(self, columns: Sequence[np.ndarray]):
        self.programs = []
        for cols in columns:
            groups: dict = {}
            for i, src in enumerate(np.asarray(cols).tolist()):
                groups.setdefault(src - i, []).append(i)
            self.programs.append([
                (
                    np.right_shift if d > 0 else np.left_shift,
                    np.uint64(4 * abs(d)),
                    np.uint64(sum(0xF << (4 * i) for i in targets)),
                )
                for d, targets in sorted(groups.items())
            ])

    def __len__(self) -> int:
        return len(self.programs)

    def apply(self, words: np.ndarray) -> np.ndarray:
        """Every generator applied to every word, row-major and
        generator-minor like :func:`expand_states` on rows.  Each
        generator fills one contiguous row of a ``(degree, m)`` block;
        the final transposed copy restores candidate order."""
        m = words.shape[0]
        out = np.empty((len(self.programs), m), dtype=np.uint64)
        scratch = np.empty(m, dtype=np.uint64)
        for moved, program in zip(out, self.programs):
            for j, (shift, bits, mask) in enumerate(program):
                dst = scratch if j else moved
                if bits:
                    shift(words, bits, out=dst)
                    dst &= mask
                else:
                    np.bitwise_and(words, mask, out=dst)
                if j:
                    moved |= scratch
        return out.T.reshape(-1)


def expand_states(states: np.ndarray, columns) -> np.ndarray:
    """All neighbours of ``states`` in **row-major, generator-minor**
    order: result row ``r`` is generator ``r % degree`` applied to
    state row ``r // degree`` — the exact candidate order of the
    compiled whole-frontier BFS, so first-occurrence dedup breaks ties
    identically.

    ``columns`` is either a list of gather columns (``(m, k)`` uint8
    rows in, rows out) or a :class:`WordProgram` (``(m,)`` packed
    words in, words out) — whichever :meth:`StateCodec.moves` built.
    """
    if isinstance(columns, WordProgram):
        return columns.apply(states)
    m, k = states.shape
    degree = len(columns)
    out = np.empty((m, degree, k), dtype=states.dtype)
    for gi, cols in enumerate(columns):
        out[:, gi, :] = states[:, cols]
    return out.reshape(m * degree, k)


def _key_scheme(k: int) -> Tuple[str, int]:
    """The one decision behind :func:`make_key_fn` and :func:`key_bits`:
    which key family ``k`` symbols get, and how many low bits its keys
    occupy."""
    if k <= MAX_BITPACK_K:
        return "bitpack", 4 * k
    if k <= MAX_EXACT_KEY_K:
        return "lehmer", (factorial(k) - 1).bit_length()
    return "hash", 64


def key_bits(k: int) -> int:
    """Width of the keys ``make_key_fn(k)`` returns: every key is
    below ``2 ** key_bits(k)``.  :func:`dedup_batch` packs a key and a
    batch position into one uint64 word when the two widths fit."""
    return _key_scheme(k)[1]


_NIBBLE_MASKS = tuple(np.uint64(m) for m in (
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
))
_FOLD_SHIFTS = tuple(np.uint64(s) for s in (4, 8, 16))


def _nibble_fold(word: np.ndarray) -> np.ndarray:
    """Eight bytes (each ``< 16``) of a little-endian word -> the
    32-bit value holding byte ``i`` in nibble ``i``."""
    word = word | (word >> _FOLD_SHIFTS[0])
    word &= _NIBBLE_MASKS[0]
    for shift, mask in zip(_FOLD_SHIFTS[1:], _NIBBLE_MASKS[1:]):
        word |= word >> shift
        word &= mask
    return word


_HIGH_HALF = np.uint64(32)


def pack_words(rows: np.ndarray) -> np.ndarray:
    """``(m, k)`` label rows (``k <= 16``) -> ``(m,)`` uint64 words,
    nibble ``i`` holding ``symbol(i) - 1``.

    Each row is padded to 16 bytes, viewed as two little-endian uint64
    words, and each word's bytes fold into nibbles — no ``(m, k)``
    uint64 intermediate.
    """
    k = rows.shape[1]
    padded = np.zeros((rows.shape[0], 16), dtype=np.uint8)
    np.subtract(rows, 1, out=padded[:, :k])
    halves = padded.view("<u8")
    words = _nibble_fold(halves[:, 0])
    if k > 8:
        words |= _nibble_fold(halves[:, 1]) << _HIGH_HALF
    return words.astype(np.uint64, copy=False)


def unpack_words(words: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`pack_words`: ``(m,)`` words -> ``(m, k)``
    uint8 label rows."""
    shifts = np.arange(k, dtype=np.uint64) * np.uint64(4)
    rows = (words[:, None] >> shifts) & np.uint64(0xF)
    return (rows + np.uint64(1)).astype(STATE_DTYPE)


def make_key_fn(k: int, seed: int = 0) -> Tuple[Callable, bool]:
    """The state->uint64 key function for ``k`` symbols.

    Returns ``(fn, exact)``: ``fn`` maps an ``(m, k)`` state matrix to
    an ``(m,)`` uint64 key array; ``exact`` is True when the mapping is
    injective (bit-pack for ``k <= 16``, Lehmer rank for ``k <= 20``).
    For larger ``k`` the keys are a seeded multiply-fold hash — dedup
    may (with probability ~``m^2 / 2^64``) merge two distinct states,
    which callers surface via :class:`~repro.frontier.engine
    .FrontierBFS`'s ``exact_keys`` flag.

    The bit-pack key is ``sum((s[i] - 1) << 4 i)`` (:func:`pack_words`),
    the word a state *is* on the word path of :class:`StateCodec`.
    """
    scheme, _bits = _key_scheme(k)
    if scheme == "bitpack":
        return pack_words, True
    if scheme == "lehmer":
        def _lehmer(states: np.ndarray) -> np.ndarray:
            return rank_array(states).astype(np.uint64)

        return _lehmer, True
    rng = np.random.default_rng(seed)
    mult = rng.integers(1, 2 ** 63, size=k, dtype=np.uint64) | np.uint64(1)

    def _hash(states: np.ndarray) -> np.ndarray:
        acc = (states.astype(np.uint64) * mult).sum(
            axis=1, dtype=np.uint64
        )
        # fmix64 finalizer: spread the low-entropy sum over all bits.
        acc ^= acc >> np.uint64(33)
        acc *= np.uint64(0xFF51AFD7ED558CCD)
        acc ^= acc >> np.uint64(33)
        return acc

    return _hash, False


def state_encoding(k: int) -> str:
    """How states of ``k`` symbols are held: ``"words"`` (one packed
    uint64, the bit-pack branch of :func:`_key_scheme`) or ``"rows"``
    (uint8 label rows)."""
    return "words" if _key_scheme(k)[0] == "bitpack" else "rows"


def _states_are_keys(states: np.ndarray) -> np.ndarray:
    return states


class StateCodec:
    """How one run holds its states, read from :func:`_key_scheme`.

    ``encoding`` is :func:`state_encoding` of ``k``: ``"words"`` (a
    state is its packed uint64 key, generators are
    :class:`WordProgram` s) or ``"rows"`` (uint8 label rows, gather
    columns, and ``row_key_fn`` — the row -> key function of
    :func:`make_key_fn` — folding them into keys).  Engines build one
    per run and use it for everything representation-specific: roots,
    moves, keys, the wire format, and the label rows handed back to
    callers.
    """

    def __init__(self, k: int, row_key_fn: Callable):
        self.k = k
        self.encoding = state_encoding(k)
        self.words = self.encoding == "words"
        #: candidate states -> uint64 keys (the states themselves on
        #: the word path, so the key pass costs nothing).
        self.key_fn = _states_are_keys if self.words else row_key_fn
        self.key_width = key_bits(k)
        #: bytes one exchanged row ships: its key, plus the label row
        #: when the key is not the state.
        self.wire_bytes = 8 if self.words else k + 8

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """``(m, k)`` label rows -> this run's states."""
        if self.words:
            return pack_words(rows)
        return np.ascontiguousarray(rows, dtype=STATE_DTYPE)

    def decode(self, states: np.ndarray) -> np.ndarray:
        """This run's states -> ``(m, k)`` uint8 label rows."""
        return unpack_words(states, self.k) if self.words else states

    def moves(self, graph, inverse: bool = False):
        """The generators (or their inverses, for predecessor
        expansion) in the form :func:`expand_states` takes for these
        states, compiled once per run."""
        columns = (
            inverse_generator_columns(graph) if inverse
            else generator_columns(graph)
        )
        return WordProgram(columns) if self.words else columns

    def take(self, states: np.ndarray, keys: np.ndarray,
             idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows ``idx`` of a batch as ``(states, keys)`` — one gathered
        array serving as both on the word path."""
        part = keys[idx]
        return (part if self.words else states[idx]), part

    def wire(self, states: np.ndarray, keys: np.ndarray
             ) -> Tuple[np.ndarray, ...]:
        """The arrays that carry ``(states, keys)`` to another process,
        keys first: only the keys on the word path."""
        return (keys,) if self.words else (keys, states)

    def unwire(self, arrays: Sequence[np.ndarray]
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`wire`: ``(states, keys)``."""
        keys = arrays[0]
        return (keys if self.words else arrays[1]), keys

    def from_buffer(self, buf: bytes, rows: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(states, keys)`` from the bytes of :meth:`wire`'s arrays
        written back to back."""
        keys = np.frombuffer(buf, dtype=np.uint64, count=rows)
        if self.words:
            return keys, keys
        states = np.frombuffer(
            buf, dtype=STATE_DTYPE, offset=rows * 8, count=rows * self.k
        ).reshape(rows, self.k)
        return states, keys


def in_sorted(values: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a *sorted* key array."""
    if sorted_ref.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_ref, values)
    np.minimum(idx, sorted_ref.size - 1, out=idx)
    return sorted_ref[idx] == values


def in_any(
    values: np.ndarray, sorted_refs: Sequence[np.ndarray]
) -> np.ndarray:
    """Membership in the union of several sorted key arrays."""
    seen = np.zeros(values.shape, dtype=bool)
    for ref in sorted_refs:
        if ref.size:
            todo = ~seen
            if not todo.any():
                break
            seen[todo] = in_sorted(values[todo], ref)
    return seen


def merge_sorted(*runs: np.ndarray) -> np.ndarray:
    """One sorted key array from sorted runs (the stable sort, timsort
    for uint64, merges runs in linear passes)."""
    out = np.concatenate(runs)
    out.sort(kind="stable")
    return out


def dedup_batch(
    keys: np.ndarray,
    guard: Sequence[np.ndarray],
    key_width: int,
    member: Callable = in_any,
) -> Tuple[np.ndarray, np.ndarray]:
    """First occurrences of the keys absent from every ``guard`` array.

    Returns ``(sel, new_keys)``: ``sel`` holds the ascending batch
    positions of each new key's first occurrence (first-occurrence
    wins, so discovery order is the candidate order), and
    ``new_keys`` is ``keys[sel]`` sorted — ready to join the guard.

    One sort serves every step.  When ``key_width`` (from
    :func:`key_bits`) plus the bits of a batch position fit in 64, each
    key is packed with its position into one word, ``key << pos_bits |
    position``, and the words are sorted; equal keys then sit together
    ordered by position.  Wider keys fall back to one stable argsort.
    An adjacent-unique pass keeps each key's first position, the
    *sorted* unique keys are probed with ``member`` (``searchsorted``
    on sorted queries walks the guard in order), and sorting the
    surviving positions restores first-occurrence order.

    ``member`` is :func:`in_any` by default; each engine passes the
    ``in_any`` it imported, so a wrapper installed in that engine's
    module (as ``perfbench/frontier_child.py`` does) times membership.
    """
    if not keys.size:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint64)
    unique_keys, first_pos = _first_occurrences(keys, key_width)
    fresh = ~member(unique_keys, guard)
    sel = np.sort(first_pos[fresh]).astype(np.intp, copy=False)
    return sel, unique_keys[fresh]


def _first_occurrences(
    keys: np.ndarray, key_width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys and the batch position of each one's first
    occurrence (its sort scratch is freed on return)."""
    n = int(keys.size)
    pos_bits = max(1, (n - 1).bit_length())
    if key_width + pos_bits <= 64:
        shift = np.uint64(pos_bits)
        words = keys << shift
        words |= np.arange(n, dtype=np.uint64)
        words.sort()
        sorted_keys = words >> shift
        positions = words
        positions &= np.uint64((1 << pos_bits) - 1)
    else:
        positions = np.argsort(keys, kind="stable")
        sorted_keys = keys[positions]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return sorted_keys[first], positions[first]


#: :func:`dedup_batch` scratch per candidate at its peak, the probe:
#: the unique keys and their first positions (16 bytes),
#: :func:`in_any`'s copy of the unmatched queries (8), the
#: ``searchsorted`` index and the gathered guard keys (16) and three
#: masks (3) — 43, rounded up.  The sort before it needs less (packed
#: words or argsort index, sorted keys, a mask, the unique keys and
#: positions: 33) and frees its scratch before the probe starts.
DEDUP_SCRATCH_BYTES = 48


def candidate_bytes(k: int, track_first_hop: bool = False) -> int:
    """Peak bytes one candidate costs while a batch is expanded, keyed
    and deduped.

    An optional first-hop tag (1) lives through the whole batch, and so
    does the candidate: one packed word (8) that is also its key on the
    word path (:class:`StateCodec`), else a label row (``k``) plus its
    uint64 key (8).  On top of them sits the larger of two scratch
    peaks that never overlap: the expansion's or key function's, and
    :data:`DEDUP_SCRATCH_BYTES`.  A :class:`WordProgram` holds its
    ``(degree, m)`` block while copying it into candidate order, plus
    one word of scratch per frontier row (16 at most); the key
    functions hold the comparison row plus rank and digit temporaries
    (Lehmer), or the widened uint64 row and its product with the
    multipliers (hash).
    """
    scheme, _bits = _key_scheme(k)
    if scheme == "bitpack":
        held, scratch = 8, 16
    else:
        held, scratch = k + 8, (k + 24 if scheme == "lehmer" else 16 * k)
    tag = 1 if track_first_hop else 0
    return held + tag + max(scratch, DEDUP_SCRATCH_BYTES)


def chunk_rows(
    memory_budget_bytes: int, k: int, degree: int,
    track_first_hop: bool = False,
) -> int:
    """Frontier rows per expansion batch under a byte budget.

    One frontier row yields ``degree`` candidates of
    :func:`candidate_bytes` each.  Half the budget goes to this
    workspace (the other half covers retained keys and the
    accumulating next layer), with a floor of 32 rows so a
    pathological budget still makes progress.
    """
    per_row = max(1, degree) * candidate_bytes(k, track_first_hop)
    return max(32, int(memory_budget_bytes) // (2 * per_row))
