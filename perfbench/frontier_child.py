"""Child process that drives the frontier engines for one workload.

Reads a JSON job on stdin, runs it against the checkout's ``repro``
package and prints one JSON object on its last stdout line.  Times are
``time.monotonic()`` stamps, comparable with the parent's.

With ``"trace": true`` the public functions each layer calls are
wrapped from here (the package itself is not modified) and their
time and counts are reported under ``"trace"``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Probe:
    """Accumulates wall time and counts of wrapped calls."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, fn, name, count=None):
        seconds, counts = self.seconds, self.counts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            seconds[name] += clock() - t0
            if count is not None:
                counts[name] += count(args, out)
            return out

        return timed


def _install_frontier_probes(probe: Probe) -> None:
    """Wrap the encoding and spill calls the single-process engine
    makes (it looks them up in its own module namespace)."""
    from repro.frontier import engine, spill

    engine.expand_states = probe.wrap(
        engine.expand_states, "expand", lambda a, out: out.shape[0]
    )
    engine.in_any = probe.wrap(
        engine.in_any, "membership", lambda a, out: a[0].size
    )
    make_key_fn = engine.make_key_fn

    def wrapped_make_key_fn(*args, **kwargs):
        fn, exact = make_key_fn(*args, **kwargs)
        return probe.wrap(fn, "key"), exact

    engine.make_key_fn = wrapped_make_key_fn
    run_dir = spill.FrontierRunDir
    run_dir.write_segment = probe.wrap(
        run_dir.write_segment, "spill_write",
        lambda a, out: a[3].nbytes + (
            a[4].nbytes if len(a) > 4 and a[4] is not None else 0
        ),
    )
    run_dir.commit_layer = probe.wrap(run_dir.commit_layer, "spill_commit")


def run_profiles(job: dict) -> dict:
    from repro.frontier import FrontierBFS, ShardedFrontierBFS
    from repro.io import network_from_spec

    probe = Probe()
    registry = None
    if job.get("trace"):
        if job["engine"] == "single":
            _install_frontier_probes(probe)
        else:
            from repro.obs import MetricsRegistry, set_registry

            registry = MetricsRegistry()
            set_registry(registry)
    net = network_from_spec(job["spec"])
    spill_root = job.get("spill_dir")
    profiles = []
    ready = None
    first_started = time.monotonic()
    while True:
        layer_stamps = []

        def on_layer(depth, size, stamps=layer_stamps):
            stamps.append(time.monotonic())

        kwargs = dict(on_layer=on_layer, max_depth=job.get("max_depth"))
        if spill_root:
            kwargs["spill_dir"] = str(
                Path(spill_root) / f"spill-{len(profiles)}"
            )
        if job["engine"] == "single":
            bfs = FrontierBFS(net, **kwargs)
        else:
            bfs = ShardedFrontierBFS(net, workers=job["workers"], **kwargs)
        cpu0 = _cpu_children()
        t0 = time.monotonic()
        result = bfs.run()
        t1 = time.monotonic()
        if ready is None:
            ready = layer_stamps[0]
        steps = [b - a for a, b in zip(layer_stamps, layer_stamps[1:])]
        profiles.append({
            "seconds": t1 - t0,
            "spawn_s": layer_stamps[0] - t0,
            "layer_s_max": max(steps) if steps else 0.0,
            "layer_sizes": list(result.layer_sizes),
            "states": result.num_states,
            "diameter": result.diameter,
            "batches": result.batches,
            "candidates": result.candidates,
            "dedup_ratio": result.dedup_ratio,
            "spilled_bytes": result.spilled_bytes,
            "exchange": result.exchange,
            "worker_cpu_s": _cpu_children() - cpu0,
            "run_dir_left": bool(kwargs.get("spill_dir"))
            and Path(kwargs["spill_dir"]).exists(),
        })
        if time.monotonic() - first_started >= job.get("seconds", 0):
            break
    out = {"ready": ready, "profiles": profiles}
    if job.get("trace"):
        out["trace"] = {
            "seconds": dict(probe.seconds), "counts": dict(probe.counts),
        }
        if registry is not None:
            hist = registry.snapshot()["histograms"].get(
                "frontier.shard.barrier_wait_seconds", []
            )
            out["trace"]["barrier_wait_s"] = sum(
                row["sum"] for row in hist
            )
    return out


def run_pairs(job: dict) -> dict:
    from repro.core.permutations import Permutation
    from repro.frontier import pair_distance
    from repro.io import network_from_spec

    net = network_from_spec(job["spec"])
    warm_u, warm_v = job["warm"]
    pair_distance(net, Permutation(warm_u), Permutation(warm_v))
    ready = time.monotonic()
    rounds = []
    while job.get("max_rounds") != len(rounds):
        index = len(rounds) % len(job["rounds"])
        u_rows, v_rows = job["rounds"][index]
        distances, times = [], []
        for u, v in zip(u_rows, v_rows):
            source, target = Permutation(u), Permutation(v)
            t0 = time.perf_counter()
            distances.append(pair_distance(net, source, target))
            times.append(time.perf_counter() - t0)
        rounds.append({"round": index, "distances": distances,
                       "times": times})
        if time.monotonic() - ready >= job.get("seconds", 0):
            break
    return {"ready": ready, "rounds": rounds}


def main() -> int:
    job = json.loads(sys.stdin.read())
    runner = run_pairs if job["mode"] == "pairs" else run_profiles
    print(json.dumps(runner(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
