"""The frontier workloads: whole-graph profiles and k=11 pair searches.

Each run starts fresh child processes (``frontier_child.py``): four
set-up probes that stop after the first layer (or first answer), then
the measured run.  Without ``--trace`` nothing is wrapped; with it, the
measured run is repeated with the layer probes installed and the
difference is reported as the tracing overhead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    HERE,
    check,
    latency_summary,
    median,
    run_child_json,
)
from inputs import relative, stratified_pairs

CHILD = [sys.executable, str(HERE / "frontier_child.py")]
MS91 = {"family": "MS", "l": 9, "n": 1}
MR42 = {"family": "MR", "l": 4, "n": 2}
MS101 = {"family": "MS", "l": 10, "n": 1}

#: per-operation latency limits behind ``slo_attainment``.
SLO_SECONDS = {
    "frontier": 60.0,           # one MS(9,1) profile
    "frontier-directed": 10.0,  # one MR(4,2) profile
    "frontier-sharded": 60.0,   # one W=2 MS(9,1) profile
    "frontier-pairs": 5.0,      # one k=11 pair
}
SHARDED_WORKERS = 2
#: extra cold starts per run for ``setup_s``; a frontier start is mostly
#: interpreter and numpy import time, which swings with host load.
PROBES = 4
PAIRS_PER_ROUND = 32
PAIR_ROUNDS = 16
CHILD_TIMEOUT = 170.0


def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _profile_job(workload: str, tmp: Path) -> dict:
    if workload == "frontier":
        return {"mode": "profile", "spec": MS91, "engine": "single",
                "spill_dir": str(tmp)}
    if workload == "frontier-directed":
        return {"mode": "profile", "spec": MR42, "engine": "single"}
    return {"mode": "profile", "spec": MS91, "engine": "sharded",
            "workers": SHARDED_WORKERS}


def _pairs_job(seed: int) -> dict:
    pool = reference()["ms101_pool"]
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(PAIR_ROUNDS):
        u, v = stratified_pairs(rng, pool, PAIRS_PER_ROUND)
        rounds.append([u.tolist(), v.tolist()])
    easiest = min(pool, key=lambda item: item[1])[0]
    warm_u = rng.permuted(np.arange(1, 12))
    warm_v = warm_u[np.asarray(easiest) - 1]
    return {"mode": "pairs", "spec": MS101, "rounds": rounds,
            "warm": [warm_u.tolist(), warm_v.tolist()]}


def _setup_samples(job: dict, tmp: Path, pgids: List[int]) -> List[float]:
    samples = []
    for _ in range(PROBES):
        probe = dict(job, seconds=0)
        if job["mode"] == "pairs":
            probe["max_rounds"] = 0
            probe["rounds"] = []
        else:
            probe["max_depth"] = 1
        out = run_child_json(CHILD, tmp, probe, CHILD_TIMEOUT, pgids)
        samples.append(out["ready"] - out["_spawned"])
    return samples


def measure(workload: str, seed: int, seconds: float, tmp: Path,
            trace: bool, failures: List[str], pgids: List[int]) -> Dict:
    """One run of a frontier workload; returns metrics and per-layer
    numbers (``per_layer`` only when traced)."""
    if workload == "frontier-pairs":
        job = _pairs_job(seed)
    else:
        job = _profile_job(workload, tmp)
    job["seconds"] = seconds
    setup = _setup_samples(job, tmp, pgids)
    out = run_child_json(CHILD, tmp, job, CHILD_TIMEOUT, pgids)
    setup.append(out["ready"] - out["_spawned"])

    def score(out: dict):
        if workload == "frontier-pairs":
            return _pairs_metrics(job, out, failures)
        return _profile_metrics(workload, out, failures)

    e2e, attempted, failed = score(out)
    e2e["setup_s"] = median(setup)
    result = {"e2e": e2e, "attempted": attempted, "failed": failed,
              "notes": [f"setup samples (s): {setup}"]}
    if trace:
        traced = run_child_json(CHILD, tmp, dict(job, trace=True),
                                CHILD_TIMEOUT, pgids)
        traced_e2e = score(traced)[0]
        result["per_layer"] = _per_layer(workload, traced)
        result["per_layer"]["trace.overhead"] = (
            e2e["throughput_per_s"] / traced_e2e["throughput_per_s"] - 1.0
        )
        result["notes"].append(
            "traced pass throughput_per_s "
            f"{traced_e2e['throughput_per_s']:.1f} vs untraced "
            f"{e2e['throughput_per_s']:.1f}"
        )
    return result


def _profile_ok(workload: str, prof: dict, expected: List[int],
                failures: List[str]) -> bool:
    """Output checks on one profile: the reference layer sizes (10! or
    9! states, diameter 13 or 14), no spill dir left, and for sharded
    runs closed exchange books.  The sharded reference is the
    single-process profile."""
    sizes = prof["layer_sizes"]
    total, diameter = (362880, 14) if workload == "frontier-directed" \
        else (3628800, 13)
    ok = check(sizes == expected and sum(sizes) == total
               and prof["diameter"] == diameter,
               f"{workload}: layer sizes {sizes} (diameter "
               f"{prof['diameter']}) != reference {expected}", failures)
    ok &= check(not prof["run_dir_left"],
                f"{workload} left its spill dir behind", failures)
    books = prof.get("exchange")
    if books is not None:
        ok &= check(books["closed"]
                    and books["sent_rows"] == books["received_rows"]
                    == books["deduped_in"] + books["discarded"]
                    and books["deduped_in"] == total - 1,
                    f"sharded exchange books do not close: {books}",
                    failures)
    return ok


def _profile_metrics(workload: str, out: dict, failures: List[str]):
    ref = reference()
    expected = ref["mr42_layers"] if workload == "frontier-directed" \
        else ref["ms91_layers"]
    profiles = out["profiles"]
    good = sum(_profile_ok(workload, p, expected, failures)
               for p in profiles)
    times = [p["seconds"] for p in profiles]
    lat = latency_summary([t * 1000.0 for t in times])
    limit = SLO_SECONDS[workload]
    e2e = {
        "throughput_per_s": median([p["states"] / p["seconds"]
                                    for p in profiles]),
        "latency_p50_ms": lat["p50"],
        "latency_mean_ms": lat["mean"],
        "slo_attainment": sum(t <= limit for t in times) / len(times),
        "ops_ok_ratio": good / len(profiles),
    }
    return e2e, len(profiles), len(profiles) - good


def _pairs_metrics(job: dict, out: dict, failures: List[str]):
    from repro.core.permutations import Permutation
    from repro.io import network_from_spec
    from repro.serve.engine import algorithmic_route

    pool = {tuple(w): d for w, d in reference()["ms101_pool"]}
    net = network_from_spec(MS101)
    odd = all(g.perm.parity() == 1 for g in net.generators)
    check(odd, "MS(10,1) has an even generator; parity check invalid",
          failures)
    times: List[float] = []
    bad = 0
    for rnd in out["rounds"]:
        u_rows, v_rows = job["rounds"][rnd["round"]]
        u = np.asarray(u_rows, dtype=np.uint8)
        v = np.asarray(v_rows, dtype=np.uint8)
        rel = relative(u, v)
        for i, d in enumerate(rnd["distances"]):
            w = Permutation(rel[i].tolist())
            word = algorithmic_route(
                net, Permutation(u_rows[i]), Permutation(v_rows[i])
            )
            ok = (d == pool.get(tuple(rel[i].tolist()))
                  and d % 2 == w.parity() and d <= len(word))
            bad += not ok
        times.extend(rnd["times"])
    check(bad == 0, f"{bad} k=11 pair distances failed the reference, "
          "parity or route-length check", failures)
    limit = SLO_SECONDS["frontier-pairs"]
    lat = latency_summary([t * 1000.0 for t in times])
    e2e = {
        "throughput_per_s": len(times) / sum(times),
        "latency_p50_ms": lat["p50"],
        "latency_mean_ms": lat["mean"],
        "slo_attainment": sum(t <= limit for t in times) / len(times),
        "ops_ok_ratio": (len(times) - bad) / len(times),
    }
    return e2e, len(times), bad


def _per_layer(workload: str, out: dict) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    if workload == "frontier-pairs":
        times = [t * 1000.0 for r in out["rounds"] for t in r["times"]]
        layers["frontier.bidirectional.pair_ms.p50"] = median(times)
        layers["frontier.bidirectional.pair_ms.max"] = max(times)
        return layers
    profiles = out["profiles"]
    n = len(profiles)
    run_s = sum(p["seconds"] for p in profiles) / n
    if workload == "frontier-sharded":
        books = profiles[0]["exchange"]
        cpu = sum(p["worker_cpu_s"] for p in profiles) / n
        layers.update({
            "frontier.sharded.spawn_s": profiles[0]["spawn_s"],
            "frontier.sharded.exchange_rows": books["sent_rows"],
            "frontier.sharded.exchange_bytes": books["shipped_bytes"],
            "frontier.sharded.slab_chunks": books["slab_chunks"],
            "frontier.sharded.barrier_wait_s":
                out["trace"]["barrier_wait_s"] / n,
            "frontier.sharded.worker_cpu_s": cpu,
            "frontier.sharded.cpu_utilisation":
                cpu / (run_s * SHARDED_WORKERS),
        })
        return layers
    sec = out["trace"]["seconds"]
    cnt = out["trace"]["counts"]
    child = sum(sec.get(key, 0.0) for key in
                ("expand", "key", "membership", "spill_write",
                 "spill_commit")) / n
    layers.update({
        "frontier.encoding.expand_s": sec.get("expand", 0.0) / n,
        "frontier.encoding.candidates": cnt.get("expand", 0) / n,
        "frontier.encoding.key_s": sec.get("key", 0.0) / n,
        "frontier.encoding.membership_s": sec.get("membership", 0.0) / n,
        "frontier.encoding.membership_queries":
            cnt.get("membership", 0) / n,
        "frontier.engine.run_s": run_s,
        "frontier.engine.other_s": run_s - child,
        "frontier.engine.batches": profiles[0]["batches"],
        "frontier.engine.dedup_ratio": profiles[0]["dedup_ratio"],
        "frontier.engine.layer_s.max": max(p["layer_s_max"]
                                            for p in profiles),
        "frontier.spill.write_s": sec.get("spill_write", 0.0) / n,
        "frontier.spill.bytes": cnt.get("spill_write", 0) / n,
        "frontier.spill.commit_s": sec.get("spill_commit", 0.0) / n,
    })
    return layers
