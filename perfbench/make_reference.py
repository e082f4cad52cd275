"""Regenerate ``perfbench/reference.json``, the answers the benchmark's
output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

* ``ms91_layers``: the MS(9,1) layer profile recorded in
  ``benchmarks/results/BENCH_frontier.json`` (diameter 13, 10! states).
* ``mr42_layers``: the MR(4,2) profile from the compiled engine's BFS,
  an oracle independent of the frontier engines.
* ``ms101_pool``: uniform random relative labels ``w`` on S_11 with
  their MS(10,1) identity distances.  A pair ``(u, u * w)`` has distance
  ``d(e, w)`` by vertex symmetry, so every k=11 pair the benchmark asks
  has a stored answer, whatever its seed.  Takes about a minute.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.permutations import Permutation
from repro.frontier import identity_distance
from repro.io import network_from_spec

HERE = Path(__file__).resolve().parent
POOL_SEED = 20261017
POOL_SIZE = 512


def main() -> None:
    root = HERE.parent
    flagship = json.loads(
        (root / "benchmarks/results/BENCH_frontier.json").read_text()
    )["flagship"]
    mr42 = network_from_spec({"family": "MR", "l": 4, "n": 2})
    ms101 = network_from_spec({"family": "MS", "l": 10, "n": 1})
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        w = [int(x) for x in rng.permutation(ms101.k) + 1]
        pool.append([w, identity_distance(ms101, Permutation(w))])
    reference = {
        "ms91_layers": flagship["layer_sizes"],
        "mr42_layers": [int(x) for x in
                        mr42.compiled().distance_distribution()],
        "ms101_pool_seed": POOL_SEED,
        "ms101_pool": pool,
    }
    (HERE / "reference.json").write_text(
        json.dumps(reference, separators=(",", ":")) + "\n"
    )


if __name__ == "__main__":
    main()
