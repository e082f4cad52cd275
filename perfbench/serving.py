"""The serving workloads: ``repro serve`` over JSON, ``repro cluster``
over the binary protocol.

The program under test runs as a child process (``python -m repro
serve`` / ``repro cluster``); this process is only the load client,
which keeps every per-request latency sample.  Set-up is timed from
spawning the program to its first OK answer for each op of the mix,
three times per run (two probes, then the measured session).

A traced run (``--trace 1``) adds a traced session on a fresh program,
reads the ``stats``/``metrics`` admin ops before and after it, and
replays the workload's own bytes and requests through the public
functions of ``serve.wire``, ``serve.engine`` and ``core.compiled`` in
this process.  ``cluster-binary`` also replays its stream straight to
the replica's port on a third fresh program, for the router hop.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    CheckFailed,
    Child,
    check,
    latency_summary,
    median,
)
from inputs import (
    digit_strings,
    permuted_labels,
    poisson_schedule,
    relative,
    uniform_pair_batches,
    zipf_indices,
)

SPEC = {"family": "MS", "l": 8, "n": 1}
K = 9
PAIRS_PER_REQUEST = 16
CONNECTIONS = 2
#: open-loop arrival rate of ``cluster-binary`` (recorded in
#: BENCHMARK.json): about half of the highest rate at which the seed code
#: kept p99 under ``SLO_MS`` on a 2-CPU host (~200 req/s).
CLUSTER_RATE = 100.0
POOL_SIZE = 1024
ZIPF_S = 1.1
#: latency limit behind ``slo_attainment`` on both serving workloads.
SLO_MS = 50.0
REQUEST_TIMEOUT_S = 5.0
PROBES = 2
START_TIMEOUT_S = 90.0
CHECK_SAMPLE = 256
REPLAY_REQUESTS = 1200
WIRE_LIMIT = 16 * 1024 * 1024


# ----------------------------------------------------------------------
# The program under test
# ----------------------------------------------------------------------


def _addr(line: str, marker: str) -> Tuple[str, int]:
    token = line.split(marker, 1)[1].split()[0]
    host, port = token.rsplit(":", 1)
    return host, int(port)


class Program:
    """One ``repro serve`` or ``repro cluster`` child process."""

    def __init__(self, workload: str, tmp: Path, pgids: List[int]):
        argv = [sys.executable, "-m", "repro"]
        if workload == "serve-json":
            argv += ["serve", "--port", "0", "--warm", json.dumps(SPEC)]
        else:
            argv += ["cluster", "--replicas", "1",
                     "--replication-factor", "1",
                     "--shards-per-replica", "1",
                     "--port", "0", "--warm", json.dumps(SPEC)]
        self.child = Child(argv, tmp)
        pgids.append(self.child.pgid)
        self.replica: Optional[Tuple[str, int]] = None
        if workload == "serve-json":
            self.front = _addr(self.child.wait_for_line(
                "serving on ", START_TIMEOUT_S), "serving on ")
        else:
            self.front = _addr(self.child.wait_for_line(
                "routing on ", START_TIMEOUT_S), "routing on ")
            self.replica = _addr(self.child.wait_for_line(
                "replica-0: ", 1.0), "replica-0: ")

    @property
    def started(self) -> float:
        return self.child.started

    def stop(self, failures: List[str]) -> None:
        code = self.child.stop()
        check(code == 0, f"program exited {code} at shutdown (non-zero "
              "means its request books did not close)", failures)


async def _settled_stats(addr: Tuple[str, int]) -> dict:
    """The ``stats`` snapshot once its books close.  Behind the router a
    replica also answers health probes, which may be in flight at any
    one instant; a book that stays open for 5 s is a real leak."""
    for _ in range(50):
        stats = await _admin(addr, "stats")
        if stats["closed"]:
            break
        await asyncio.sleep(0.1)
    return stats


async def _admin(addr: Tuple[str, int], op: str) -> dict:
    reader, writer = await asyncio.open_connection(*addr, limit=WIRE_LIMIT)
    try:
        writer.write(json.dumps({"op": op, "id": 1}).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), 10.0)
    finally:
        writer.close()
        await writer.wait_closed()
    response = json.loads(line)
    if not response.get("ok"):
        raise CheckFailed(f"admin op {op} failed: {response}")
    return response["result"]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


class JsonRequests:
    """Unique uniform distance requests, generated in seeded chunks."""

    CHUNK = 2048

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.next_id = 1
        self.buffer: List[list] = []
        self._refill()

    def _refill(self) -> None:
        self.buffer = uniform_pair_batches(
            self.rng, self.CHUNK, PAIRS_PER_REQUEST, K
        )[::-1]

    def next(self) -> dict:
        if not self.buffer:
            self._refill()
        request = {"op": "distance", "network": SPEC,
                   "pairs": self.buffer.pop(), "id": self.next_id}
        self.next_id += 1
        return request


def _cluster_stream(seed: int, seconds: float):
    """The pool of request dicts, their frames, the Poisson send
    offsets and the Zipf body choice for each send."""
    from repro.serve import wire

    rng = np.random.default_rng(seed)
    pool = []
    batches = uniform_pair_batches(rng, POOL_SIZE, PAIRS_PER_REQUEST, K)
    ops = rng.permutation(
        ["distance"] * (POOL_SIZE // 2) + ["route"] * (POOL_SIZE // 2)
    )
    for op, pairs in zip(ops, batches):
        pool.append({"op": str(op), "network": SPEC, "pairs": pairs})
    frames = [wire.parse_frame(wire.encode_request(r)) for r in pool]
    due = poisson_schedule(rng, CLUSTER_RATE, seconds)
    index = zipf_indices(rng, len(due), POOL_SIZE, ZIPF_S)
    return pool, frames, due, index


def _warm_requests(seed: int, ops: List[str]) -> List[dict]:
    rng = np.random.default_rng([seed, 1])
    strings = digit_strings(permuted_labels(rng, 2 * len(ops), K))
    return [
        {"op": op, "network": SPEC,
         "pairs": [[strings[2 * i], strings[2 * i + 1]]]}
        for i, op in enumerate(ops)
    ]


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


async def _first_ok(workload: str, program: Program, seed: int) -> float:
    """Seconds from spawn until each op of the mix was answered OK."""
    from repro.serve import wire

    ops = ["distance"] if workload == "serve-json" else ["distance", "route"]
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        try:
            reader, writer = await asyncio.open_connection(
                *program.front, limit=WIRE_LIMIT)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            await asyncio.sleep(0.01)
    try:
        for i, request in enumerate(_warm_requests(seed, ops)):
            request["id"] = i + 1
            if workload == "serve-json":
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                response = json.loads(await asyncio.wait_for(
                    reader.readline(), START_TIMEOUT_S))
            else:
                writer.write(wire.encode_request(request))
                await writer.drain()
                response = wire.decode_response(await _read_frame(
                    reader, START_TIMEOUT_S))
            if not response.get("ok"):
                raise CheckFailed(f"first {request['op']} failed: {response}")
    finally:
        writer.close()
        await writer.wait_closed()
    return time.monotonic() - program.started


async def _read_frame(reader, timeout: float):
    from repro.serve import wire

    head = await asyncio.wait_for(
        reader.readexactly(wire.HEADER_LEN), timeout)
    _, _, _, _, _, header_len, payload_len = wire.HEADER.unpack(head)
    body = await reader.readexactly(header_len + payload_len)
    return wire.parse_frame(head + body)


class Pass:
    """Every per-request sample of one load pass."""

    def __init__(self):
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.latency_ms: List[float] = []
        self.elapsed = 0.0
        self.exchanges: List[tuple] = []  # (request, response) kept
        self.encode_us: List[float] = []
        self.decode_us: List[float] = []
        self.late_ms: List[float] = []


async def _closed_loop(addr, seconds: float, requests: JsonRequests,
                       keep: bool) -> Pass:
    result = Pass()
    clock = time.perf_counter
    deadline = clock() + seconds

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(
            *addr, limit=WIRE_LIMIT)
        try:
            while clock() < deadline:
                request = requests.next()
                t0 = clock()
                data = json.dumps(request).encode() + b"\n"
                t1 = clock()
                writer.write(data)
                await writer.drain()
                result.sent += 1
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), REQUEST_TIMEOUT_S)
                except asyncio.TimeoutError:
                    result.failed += 1
                    return  # the stream is out of step; stop this client
                t2 = clock()
                response = json.loads(line)
                t3 = clock()
                if response.get("ok") is True \
                        and response.get("id") == request["id"]:
                    result.ok += 1
                    result.latency_ms.append((t3 - t0) * 1000.0)
                else:
                    result.failed += 1
                result.exchanges.append((request, response))
                if keep:
                    result.encode_us.append((t1 - t0) * 1e6)
                    result.decode_us.append((t3 - t2) * 1e6)
        finally:
            writer.close()
            await writer.wait_closed()

    started = clock()
    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    result.elapsed = clock() - started
    return result


async def _open_loop(addr, frames, due: np.ndarray, index: np.ndarray
                     ) -> Pass:
    """Poisson open loop: request ``i`` is due at ``start + due[i]``,
    goes out on connection ``i % 2`` and is timed from its due time."""
    from repro.serve import wire

    result = Pass()
    clock = time.perf_counter
    n = len(due)
    conns = [await asyncio.open_connection(*addr, limit=WIRE_LIMIT)
             for _ in range(CONNECTIONS)]
    received = [None] * n
    raw: List[Optional[object]] = [None] * n
    ok = np.zeros(n, dtype=bool)
    start = clock() + 0.05

    async def sender() -> None:
        for i in range(n):
            t_due = start + float(due[i])
            delay = t_due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            result.late_ms.append((clock() - t_due) * 1000.0)
            writer = conns[i % CONNECTIONS][1]
            writer.write(frames[index[i]].with_id(i + 1))
            result.sent += 1
            await writer.drain()

    async def receiver(reader, expected: int) -> None:
        for _ in range(expected):
            frame = await _read_frame(reader, None)
            i = frame.request_id - 1
            if not 0 <= i < n or received[i] is not None:
                raise CheckFailed(f"response with unexpected id "
                                  f"{frame.request_id}")
            received[i] = clock()
            ok[i] = bool(frame.flags & wire.FLAG_OK)
            raw[i] = frame

    expected = [len(range(c, n, CONNECTIONS)) for c in range(CONNECTIONS)]
    receivers = asyncio.gather(*(
        receiver(conns[c][0], expected[c]) for c in range(CONNECTIONS)
    ))
    await sender()
    try:
        await asyncio.wait_for(
            receivers, max(0.1, start + float(due[-1]) + REQUEST_TIMEOUT_S
                           - clock()))
    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
            ConnectionError):
        pass  # whatever is still missing counts as failed
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()
    last = max((t for t in received if t is not None), default=clock())
    result.elapsed = last - start
    for i in range(n):
        if received[i] is None or not ok[i]:
            result.failed += 1
            continue
        latency = (received[i] - (start + float(due[i]))) * 1000.0
        if latency > REQUEST_TIMEOUT_S * 1000.0:
            result.failed += 1
            continue
        result.ok += 1
        result.latency_ms.append(latency)
        result.exchanges.append((i, raw[i]))
    return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


class Oracle:
    """In-process ``CompiledGraph`` lookups for the served network."""

    def __init__(self):
        from repro.core.compiled import rank_array
        from repro.io import network_from_spec

        net = network_from_spec(SPEC)
        self.rank_array = rank_array
        self.dist = net.compiled().distances
        self.cols = {g.name: np.asarray(g.perm.symbols, dtype=np.int64) - 1
                     for g in net.generators}

    def distances(self, pairs) -> np.ndarray:
        flat = [s for pair in pairs for s in pair]
        labels = (np.frombuffer("".join(flat).encode(), dtype=np.uint8)
                  - np.uint8(48)).reshape(len(pairs), 2, K)
        rel = relative(labels[:, 0], labels[:, 1])
        return self.dist[self.rank_array(rel)]

    def route_ok(self, source: str, target: str, word: List[str],
                 distance: int) -> bool:
        label = np.frombuffer(source.encode(), dtype=np.uint8) - 48
        for name in word:
            cols = self.cols.get(name)
            if cols is None:
                return False
            label = label[cols]
        return "".join(map(str, label)) == target and len(word) == distance


def _check_answers(oracle: Oracle, pairs_answers, failures: List[str],
                   rng: np.random.Generator) -> int:
    """``pairs_answers``: (request dict, result dict) per OK response.
    Checks a seeded sample; returns how many requests were checked."""
    if not pairs_answers:
        failures.append("no OK responses to check")
        return 0
    take = rng.choice(len(pairs_answers),
                      size=min(CHECK_SAMPLE, len(pairs_answers)),
                      replace=False)
    bad = 0
    for j in take:
        request, result = pairs_answers[j]
        expected = oracle.distances(request["pairs"])
        if request["op"] == "distance":
            bad += list(result.get("distances", [])) != expected.tolist()
        else:
            routes = result.get("routes", [])
            bad += len(routes) != len(expected) or not all(
                oracle.route_ok(r["source"], r["target"], r["word"], int(d))
                for r, d in zip(routes, expected)
            )
    check(bad == 0, f"{bad} of {len(take)} sampled responses disagree "
          "with the in-process CompiledGraph (distance or route walk)",
          failures)
    return len(take)


# ----------------------------------------------------------------------
# Metric helpers
# ----------------------------------------------------------------------


def _counter(snapshot: dict, name: str, **labels) -> float:
    rows = snapshot.get("counters", {}).get(name, [])
    return float(sum(
        row["value"] for row in rows
        if all(row["labels"].get(k) == v for k, v in labels.items())
    ))


def _hist(snapshot: dict, name: str) -> Tuple[float, float, Optional[float]]:
    rows = snapshot.get("histograms", {}).get(name, [])
    count = sum(row["count"] for row in rows)
    total = sum(row["sum"] for row in rows)
    p50 = max((row["p50"] for row in rows), default=None)
    return float(count), float(total), p50


def _e2e(result: Pass) -> Dict[str, float]:
    attempted = max(1, result.sent)
    if not result.latency_ms:
        raise CheckFailed("no request was answered OK")
    lat = latency_summary(result.latency_ms)
    within = sum(1 for x in result.latency_ms if x <= SLO_MS)
    return {
        "throughput_per_s": result.ok / result.elapsed,
        "latency_p50_ms": lat["p50"],
        "latency_mean_ms": lat["mean"],
        "slo_attainment": within / attempted,
        "ops_ok_ratio": result.ok / attempted,
    }


def _describe(result: Pass) -> str:
    lat = latency_summary(result.latency_ms)
    return (f"sent {result.sent}, ok {result.ok}, failed {result.failed}; "
            f"latency samples {lat['count']}, mean {lat['mean']:.3f} ms, "
            f"p50 {lat['p50']:.3f} ms, "
            f"p90 {lat['p90']:.3f} ms, p99 {lat['p99']:.3f} ms, "
            f"{lat['beyond_p99']} beyond p99, max {lat['max']:.3f} ms")


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------


def _session(workload: str, seed: int, seconds: float, tmp: Path,
             pgids: List[int], failures: List[str], target: str = "front",
             admin: bool = False, keep: bool = False) -> dict:
    """Start the program, time its set-up, run one load pass against
    ``target`` (``front`` or ``replica``) and stop it."""
    program = Program(workload, tmp, pgids)
    try:
        return asyncio.run(_drive(workload, program, seed, seconds,
                                  failures, target, admin, keep))
    finally:
        program.stop(failures)


async def _drive(workload, program, seed, seconds, failures, target,
                 admin, keep) -> dict:
    setup = await _first_ok(workload, program, seed)
    addr = program.front if target == "front" else program.replica
    server_addr = program.replica or program.front
    out: Dict[str, object] = {"setup": setup}
    if admin:
        out["server_before"] = await _admin(server_addr, "stats")
        out["metrics_before"] = await _admin(server_addr, "metrics")
        if workload == "cluster-binary":
            out["router_before"] = await _admin(program.front, "stats")
    if workload == "serve-json":
        result = await _closed_loop(
            addr, seconds, JsonRequests(np.random.default_rng(seed)), keep)
    else:
        stream = _cluster_stream(seed, seconds)
        out["stream"] = stream
        result = await _open_loop(addr, stream[1], stream[2], stream[3])
    out["pass"] = result
    if admin:
        if workload == "cluster-binary":
            out["router_after"] = await _settled_stats(program.front)
            await asyncio.sleep(0.6)  # shard workers ship metrics at 4 Hz
        out["server_after"] = await _settled_stats(server_addr)
        out["metrics_after"] = await _admin(server_addr, "metrics")
    return out


def _answers(workload: str, session: dict) -> list:
    """(request dict, result dict) for every OK response of a pass."""
    from repro.serve import wire

    result: Pass = session["pass"]
    if workload == "serve-json":
        return [(req, resp["result"]) for req, resp in result.exchanges
                if resp.get("ok")]
    pool, _, _, index = session["stream"]
    return [(pool[index[i]], wire.decode_response(frame)["result"])
            for i, frame in result.exchanges]


def _books(workload: str, session: dict, failures: List[str]) -> None:
    """The server's and router's stats books close, and the front end
    received exactly what this client sent plus the admin ops that
    followed the opening ``stats`` snapshot."""
    sent = session["pass"].sent
    after = session["server_after"]
    check(after["closed"], f"server books do not close: {after}", failures)
    if workload == "serve-json":
        got = after["received"] - session["server_before"]["received"]
        check(got == sent + 2, f"server received {got} requests, client "
              f"sent {sent} plus 1 metrics and 1 stats", failures)
        return
    router = session["router_after"]
    check(router["closed"], f"router books do not close: {router}",
          failures)
    got = router["received"] - session["router_before"]["received"]
    check(got == sent + 1, f"router received {got} requests, client sent "
          f"{sent} plus 1 stats", failures)


# ----------------------------------------------------------------------
# Per-layer replays
# ----------------------------------------------------------------------


def _per_request_us(fn, items) -> float:
    clock = time.perf_counter
    samples = []
    for item in items:
        t0 = clock()
        fn(item)
        samples.append((clock() - t0) * 1e6)
    return median(samples)


def _replay_json_decode(bodies: List[bytes]) -> float:
    from repro.serve import wire

    async def run() -> float:
        reader = asyncio.StreamReader(limit=WIRE_LIMIT)
        reader.feed_data(b"".join(bodies))
        reader.feed_eof()
        clock = time.perf_counter
        samples = []
        while True:
            t0 = clock()
            message = await wire.read_message(reader)
            if message is None:
                break
            json.loads(message)
            samples.append((clock() - t0) * 1e6)
        return median(samples)

    return asyncio.run(run())


def _replay_engine(requests: List[dict], batch: int) -> Dict[str, float]:
    """``QueryEngine.execute_many`` on the workload's own decoded
    requests, cut into batches of the size the server observed.  Metrics
    are on, as in ``repro serve``."""
    from repro.obs import MetricsRegistry, get_registry, set_registry
    from repro.serve import QueryEngine

    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        engine = QueryEngine()
        engine.network(SPEC)
        # one untimed request per op builds what the served program
        # built while answering its set-up requests
        engine.execute_many(list({r["op"]: r for r in requests}.values()))
        clock = time.perf_counter

        def replay(items: List[dict]) -> Tuple[float, int]:
            """Total seconds and batch count; the hot cache starts empty
            and then hits or misses as it did for the served stream."""
            engine.bump_epoch("replay")
            total, batches = 0.0, 0
            for lo in range(0, len(items), batch):
                t0 = clock()
                responses = engine.execute_many(items[lo:lo + batch])
                total += clock() - t0
                batches += 1
                if not all(r.get("ok") for r in responses):
                    raise CheckFailed("engine replay returned an error")
            return total, batches

        total, batches = replay(requests)
        out = {"serve.engine.execute_many_ms": total * 1000.0 / batches}
        for op in ("distance", "route"):
            subset = [r for r in requests if r["op"] == op]
            if subset:
                out[f"serve.engine.{op}_us"] = (
                    replay(subset)[0] * 1e6 / len(subset))
        return out
    finally:
        set_registry(previous)


def _per_layer(workload: str, session: dict, direct: Optional[dict]
               ) -> Dict[str, float]:
    from repro.io import network_from_spec
    from repro.serve import wire

    result: Pass = session["pass"]
    p50 = latency_summary(result.latency_ms)["p50"]
    before, after = session["server_before"], session["server_after"]
    m0, m1 = session["metrics_before"], session["metrics_after"]
    layers: Dict[str, float] = {}

    net = network_from_spec(SPEC)
    t0 = time.perf_counter()
    net.compiled().distances
    layers["core.compiled.build_s"] = time.perf_counter() - t0

    count0, sum0, _ = _hist(m0, "serve.batch_size")
    count1, sum1, _ = _hist(m1, "serve.batch_size")
    mean_batch = (sum1 - sum0) / max(1.0, count1 - count0)
    hits = _counter(m1, "serve.hot_cache", event="hit") - _counter(
        m0, "serve.hot_cache", event="hit")
    misses = _counter(m1, "serve.hot_cache", event="miss") - _counter(
        m0, "serve.hot_cache", event="miss")
    layers.update({
        "serve.server.batches": after["batches"] - before["batches"],
        "serve.server.mean_batch": mean_batch,
        "serve.server.max_batch": after["max_batch"],
        "serve.server.batch_window_ms": after["batch_window_ms"],
        "serve.engine.coalesced_requests":
            _counter(m1, "serve.coalesced_requests")
            - _counter(m0, "serve.coalesced_requests"),
        "serve.engine.hot_hit_ratio": hits / max(1.0, hits + misses),
    })
    for key in ("received", "completed", "rejected", "timeouts",
                "malformed"):
        layers[f"serve.server.{key}"] = after[key] - before[key]

    batch = max(1, int(round(mean_batch)))
    if workload == "serve-json":
        exchanges = result.exchanges[:REPLAY_REQUESTS]
        requests = [req for req, _ in exchanges]
        bodies = [json.dumps(req).encode() + b"\n" for req in requests]
        responses = [resp for _, resp in exchanges]
        layers["serve.wire.client_encode_us"] = median(result.encode_us)
        layers["serve.wire.client_decode_us"] = median(result.decode_us)
        layers["serve.wire.decode_us"] = _replay_json_decode(bodies)
        layers["serve.wire.encode_response_us"] = _per_request_us(
            lambda r: json.dumps(r).encode() + b"\n", responses)
        layers.update(_replay_engine(
            [json.loads(body) for body in bodies], batch))
    else:
        pool, frames, _, index = session["stream"]
        sent = [frames[index[i]].with_id(i + 1)
                for i in range(min(len(index), REPLAY_REQUESTS))]
        replies = [frame for _, frame in result.exchanges[:REPLAY_REQUESTS]]
        layers["serve.wire.client_encode_us"] = _per_request_us(
            wire.encode_request, [pool[i] for i in index[:len(sent)]])
        layers["serve.wire.decode_us"] = _per_request_us(
            lambda raw: wire.decode_request(wire.parse_frame(raw)), sent)
        layers["serve.wire.encode_response_us"] = _per_request_us(
            wire.encode_response,
            [wire.decode_response(f) for f in replies])
        layers["serve.wire.client_decode_us"] = _per_request_us(
            lambda f: wire.decode_response(wire.parse_frame(f.raw)),
            replies)
        layers.update(_replay_engine(
            [wire.decode_request(wire.parse_frame(raw)) for raw in sent],
            batch))
        _, _, shard_p50 = _hist(m1, "serve.shard_request_ms")
        r0, r1 = session["router_before"], session["router_after"]
        layers.update({
            "serve.shard.request_ms.p50": shard_p50 or 0.0,
            "serve.shard.overloads":
                _counter(m1, "serve.shard_overloads")
                - _counter(m0, "serve.shard_overloads"),
            "serve.shard.worker_restarts":
                _counter(m1, "serve.worker_restarts")
                - _counter(m0, "serve.worker_restarts"),
            "loadgen.late_ms.p99": latency_summary(result.late_ms)["p99"],
        })
        for key in ("retries", "failovers", "received", "completed",
                    "failed"):
            layers[f"cluster.router.{key}"] = r1[key] - r0[key]
        if direct is not None:
            layers["cluster.router.hop_ms"] = p50 - latency_summary(
                direct["pass"].latency_ms)["p50"]
    path_ms = layers["serve.engine.execute_many_ms"] + sum(
        layers[f"serve.wire.{name}"] for name in
        ("client_encode_us", "decode_us", "encode_response_us",
         "client_decode_us")) / 1000.0
    if workload == "cluster-binary":
        path_ms -= layers["serve.wire.client_encode_us"] / 1000.0
    layers["serve.server.unattributed_ms"] = p50 - path_ms
    return layers


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, tmp: Path,
            trace: bool, failures: List[str], pgids: List[int]) -> dict:
    setup = []
    for _ in range(PROBES):
        program = Program(workload, tmp, pgids)
        try:
            setup.append(asyncio.run(_first_ok(workload, program, seed)))
        finally:
            program.stop(failures)
    main = _session(workload, seed, seconds, tmp, pgids, failures,
                    admin=True)
    setup.append(main["setup"])
    oracle = Oracle()
    rng = np.random.default_rng([seed, 2])
    e2e = _e2e(main["pass"])
    e2e["setup_s"] = median(setup)
    _books(workload, main, failures)
    checked = _check_answers(oracle, _answers(workload, main), failures, rng)
    notes = [f"setup samples (s): {setup}",
             f"{workload}: {_describe(main['pass'])}; "
             f"{checked} responses checked against CompiledGraph"]
    out = {"e2e": e2e, "attempted": main["pass"].sent,
           "failed": main["pass"].failed, "notes": notes}
    if workload == "cluster-binary":
        late = latency_summary(main["pass"].late_ms)
        notes.append(f"open-loop sender lateness p99 {late['p99']:.3f} ms, "
                     f"max {late['max']:.3f} ms")
    if trace:
        traced = _session(workload, seed, seconds, tmp, pgids, failures,
                          admin=True, keep=True)
        _books(workload, traced, failures)
        direct = None
        if workload == "cluster-binary":
            direct = _session(workload, seed, seconds, tmp, pgids,
                              failures, target="replica")
            notes.append("direct to replica: " + _describe(direct["pass"]))
        traced_e2e = _e2e(traced["pass"])
        out["per_layer"] = _per_layer(workload, traced, direct)
        out["per_layer"]["trace.overhead"] = (
            traced_e2e["latency_p50_ms"] / e2e["latency_p50_ms"] - 1.0)
        tail = latency_summary(traced["pass"].latency_ms)
        out["per_layer"]["loadgen.latency_p90_ms"] = tail["p90"]
        out["per_layer"]["loadgen.latency_p99_ms"] = tail["p99"]
        notes.append("traced pass: " + _describe(traced["pass"]))
    return out
