"""Encoded states and hashable keys for table-free graph exploration.

The frontier engine never materialises the ``k!`` node table; a set of
nodes is an ``(m, k)`` **state matrix** — one uint8 one-line label per
row, the exact byte layout of
:attr:`repro.core.compiled.CompiledGraph.labels` but holding only the
states currently in play.  Everything the engine does reduces to three
primitives defined here:

* **move application** — generator ``g`` sends label row ``u`` to
  ``u[g_cols]`` (``(u * g)(i) = u(g(i))``, the same column gather the
  compiled move tables are built from), so "expand a frontier through
  every generator" is one fancy-index per generator;
* **keys** — each state row folds into one uint64 so that dedup becomes
  ``sort`` + ``searchsorted`` over flat integer arrays.  For ``k <= 16``
  the key is the label bit-packed 4 bits per symbol (injective: equal
  keys *are* equal states); for ``k <= 20`` it is the Lehmer rank
  (``20! < 2^63``, still exact); beyond that a seeded multiply-fold
  hash with a documented (astronomically small) collision probability;
* **dedup** — :func:`dedup_batch`, the one kernel every engine runs on
  a candidate batch: sort once, keep each key's first occurrence,
  probe the survivors against the visited window with sorted-query
  :func:`in_any`, and restore first-occurrence order.
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


def expand_states(
    states: np.ndarray, columns: Sequence[np.ndarray]
) -> np.ndarray:
    """All neighbours of ``states`` in **row-major, generator-minor**
    order: result row ``r`` is generator ``r % degree`` applied to
    state row ``r // degree`` — the exact candidate order of the
    compiled whole-frontier BFS, so first-occurrence dedup breaks ties
    identically."""
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


def make_key_fn(k: int, seed: int = 0) -> Tuple[Callable, bool]:
    """The state->uint64 key function for ``k`` symbols.

    Returns ``(fn, exact)``: ``fn`` maps an ``(m, k)`` state matrix to
    an ``(m,)`` uint64 key array; ``exact`` is True when the mapping is
    injective (bit-pack for ``k <= 16``, Lehmer rank for ``k <= 20``).
    For larger ``k`` the keys are a seeded multiply-fold hash — dedup
    may (with probability ~``m^2 / 2^64``) merge two distinct states,
    which callers surface via :class:`~repro.frontier.engine
    .FrontierBFS`'s ``exact_keys`` flag.

    The bit-pack key is ``sum((s[i] - 1) << 4 i)``.  It is computed by
    padding each row to 16 bytes, viewing them as two little-endian
    uint64 words and folding each word's bytes into nibbles — no
    ``(m, k)`` uint64 intermediate.
    """
    scheme, _bits = _key_scheme(k)
    if scheme == "bitpack":
        high = np.uint64(32)

        def _bitpack(states: np.ndarray) -> np.ndarray:
            padded = np.zeros((states.shape[0], 16), dtype=np.uint8)
            np.subtract(states, 1, out=padded[:, :k])
            words = padded.view("<u8")
            keys = _nibble_fold(words[:, 0])
            if k > 8:
                keys |= _nibble_fold(words[:, 1]) << high
            return keys.astype(np.uint64, copy=False)

        return _bitpack, True
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

    The candidate's state row (``k``), its uint64 key (8) and an
    optional first-hop tag (1) live through the whole batch.  On top
    of them sits the larger of two scratch peaks that never overlap:
    the key function's and :data:`DEDUP_SCRATCH_BYTES`.  The key
    function's follows :func:`make_key_fn`'s choice of key: the 16-byte
    padded row plus two 8-byte fold temporaries (bit-pack), the
    comparison row plus rank and digit temporaries (Lehmer), or the
    widened uint64 row and its product with the multipliers (hash).
    """
    scheme, _bits = _key_scheme(k)
    key_scratch = {"bitpack": 32, "lehmer": k + 24}.get(scheme, 16 * k)
    scratch = max(key_scratch, DEDUP_SCRATCH_BYTES)
    return k + 8 + (1 if track_first_hop else 0) + scratch


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
