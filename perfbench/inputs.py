"""Seeded, vectorised input generation for every workload.

Nothing here imports the program under test: inputs are plain numpy
arrays and strings, built from the ``--seed`` the benchmark was given,
so the program only ever receives the generated inputs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def permuted_labels(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """``m`` uniform random permutations of ``1..k`` as an ``(m, k)``
    uint8 symbol matrix (one ``Generator.permuted`` pass over an
    identity matrix)."""
    identity = np.tile(np.arange(1, k + 1, dtype=np.uint8), (m, 1))
    return rng.permuted(identity, axis=1)


def digit_strings(labels: np.ndarray) -> List[str]:
    """Rows of a ``k <= 9`` symbol matrix as canonical digit strings."""
    m, k = labels.shape
    if k > 9:
        raise ValueError("digit strings need k <= 9")
    text = (labels + np.uint8(48)).tobytes().decode("ascii")
    return [text[i * k:(i + 1) * k] for i in range(m)]


def uniform_pair_batches(
    rng: np.random.Generator, count: int, pairs_per_request: int, k: int
) -> List[List[List[str]]]:
    """``count`` request pair lists, each ``pairs_per_request`` uniform
    random ``[source, target]`` digit-string pairs."""
    strings = digit_strings(
        permuted_labels(rng, 2 * count * pairs_per_request, k)
    )
    it = iter(strings)
    return [
        [[next(it), next(it)] for _ in range(pairs_per_request)]
        for _ in range(count)
    ]


def zipf_indices(
    rng: np.random.Generator, n: int, pool: int, s: float
) -> np.ndarray:
    """``n`` draws from a finite Zipf(``s``) law over ``pool`` items.
    Rank ``r`` is mapped to a seeded random pool slot, so popularity is
    independent of how the pool was built."""
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** s
    ranks = rng.choice(pool, size=n, p=weights / weights.sum())
    return rng.permutation(pool)[ranks]


def poisson_schedule(
    rng: np.random.Generator, rate: float, seconds: float
) -> np.ndarray:
    """Send offsets (seconds from start) of a Poisson arrival process at
    ``rate`` per second over ``seconds``, conditioned on its expected
    count: ``rate * seconds`` sorted uniform offsets.  Every seed then
    offers the same load, and only the arrival pattern varies."""
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def compose(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise ``u * w`` with ``(u * w)(i) = u(w(i))`` on symbol
    matrices (symbols ``1..k``), the library's composition order."""
    return np.take_along_axis(u, w.astype(np.int64) - 1, axis=1)


def relative(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``u^-1 * v``: by vertex symmetry the distance from ``u``
    to ``v`` is the identity distance of this label."""
    inv = np.empty_like(u)
    rows = np.arange(u.shape[0])[:, None]
    inv[rows, u.astype(np.int64) - 1] = np.arange(
        1, u.shape[1] + 1, dtype=u.dtype
    )
    return compose(inv, v)


def stratified_counts(
    classes: Dict[int, int], total: int
) -> Dict[int, int]:
    """Split ``total`` draws across distance classes in proportion to
    their pool frequencies (largest remainder), so every run asks the
    same mix of easy and hard pairs."""
    size = sum(classes.values())
    quotas = {d: total * n / size for d, n in classes.items()}
    counts = {d: int(q) for d, q in quotas.items()}
    short = total - sum(counts.values())
    for d in sorted(quotas, key=lambda d: (counts[d] - quotas[d], d))[
        :short
    ]:
        counts[d] += 1
    return {d: c for d, c in counts.items() if c}


def stratified_pairs(
    rng: np.random.Generator,
    pool: Sequence[Tuple[Sequence[int], int]],
    total: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``total`` pairs ``(u, v)`` with ``u`` uniform and ``u^-1 v``
    drawn from the reference pool of uniform relative labels with known
    distances, stratified by distance."""
    by_class: Dict[int, List[int]] = {}
    for i, (_, d) in enumerate(pool):
        by_class.setdefault(int(d), []).append(i)
    counts = stratified_counts(
        {d: len(ix) for d, ix in by_class.items()}, total
    )
    chosen: List[int] = []
    for d in sorted(counts):
        chosen.extend(
            rng.choice(by_class[d], size=counts[d], replace=False).tolist()
        )
    chosen = rng.permutation(np.asarray(chosen)).tolist()
    k = len(pool[0][0])
    w = np.asarray([pool[i][0] for i in chosen], dtype=np.uint8)
    u = permuted_labels(rng, len(chosen), k)
    return u, compose(u, w)
