"""Tests for the replicated serving cluster (:mod:`repro.cluster`).

Four belts:

* **ring** — hypothesis pins the consistent-hash minimal-movement
  property exactly: on a join, a key's primary changes only *to* the
  joined replica; on a leave, only keys whose primary *was* the
  departed replica move — and the moved fraction stays near 1/N;
* **router mechanism** — failover retry answers each request exactly
  once with no duplicated response ids, draining closes accounting;
* **chaos schedule** — seeded kill/repair schedules are deterministic
  and respect ``min_alive``;
* **end-to-end smoke** — a live 3-replica cluster under loadgen with a
  mid-run kill keeps cluster-wide accounting closed (the CI gate), and
  a rolling restart of every replica loses nothing.
"""

import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ChaosEvent,
    ChaosRunner,
    ChaosSchedule,
    ClusterManager,
    HashRing,
)
from repro.serve import make_workload, run_loadgen, uniform_pairs, wire

MS22 = {"family": "MS", "l": 2, "n": 2}


def _small_cluster(replicas=3, **kwargs):
    kwargs.setdefault("warm_specs", (MS22,))
    kwargs.setdefault("probe_interval", 0.05)
    return ClusterManager(replicas=replicas, **kwargs)


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["r0", "r1", "r2"], seed=7)
        b = HashRing(["r0", "r1", "r2"], seed=7)
        for key in ("MS", "IS", "TN", "alpha", "beta"):
            assert a.nodes_for(key) == b.nodes_for(key)

    def test_seed_changes_placement(self):
        keys = [f"k{i}" for i in range(50)]
        a = HashRing(["r0", "r1", "r2"], seed=0)
        b = HashRing(["r0", "r1", "r2"], seed=1)
        assert any(a.primary(k) != b.primary(k) for k in keys)

    def test_replica_sets_distinct_and_sized(self):
        ring = HashRing(["r0", "r1", "r2"], replication_factor=2)
        for i in range(40):
            nodes = ring.nodes_for(f"key{i}")
            assert len(nodes) == 2
            assert len(set(nodes)) == 2

    def test_replication_factor_clipped_to_membership(self):
        ring = HashRing(["solo"], replication_factor=3)
        assert ring.nodes_for("x") == ["solo"]

    @given(
        n_replicas=st.integers(2, 6),
        n_keys=st.integers(10, 80),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_join_moves_keys_only_to_new_replica(
        self, n_replicas, n_keys, seed
    ):
        """Exact Karger property: after a join, any key whose primary
        changed must now be primaried on the joined replica."""
        ring = HashRing(
            [f"r{i}" for i in range(n_replicas)], seed=seed
        )
        keys = [f"key{i}" for i in range(n_keys)]
        before = {k: ring.nodes_for(k)[0] for k in keys}
        moved = ring.add("newcomer")
        changed = [k for k in keys if ring.primary(k) != before[k]]
        assert moved == len(changed)
        for key in changed:
            assert ring.primary(key) == "newcomer"
        # expected fraction ~ 1/(N+1); a purely fractional bound trips
        # on sampling noise at small n_keys, so allow absolute slack too
        assert len(changed) <= 3.0 * n_keys / (n_replicas + 1) + 3

    @given(
        n_replicas=st.integers(2, 6),
        n_keys=st.integers(10, 80),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_leave_moves_only_departed_replicas_keys(
        self, n_replicas, n_keys, seed
    ):
        """After a leave, a key's primary changes iff it was on the
        departed replica."""
        names = [f"r{i}" for i in range(n_replicas)]
        ring = HashRing(names, seed=seed)
        keys = [f"key{i}" for i in range(n_keys)]
        before = {k: ring.nodes_for(k)[0] for k in keys}
        victim = names[seed % n_replicas]
        moved = ring.remove(victim)
        changed = 0
        for key in keys:
            now = ring.primary(key)
            assert now != victim
            if before[key] == victim:
                changed += 1
            else:
                assert now == before[key], (
                    f"{key} moved without its primary departing"
                )
        assert moved == changed

    def test_movement_metric_counts(self):
        from repro.cluster.ring import MOVED_METRIC
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            ring = HashRing(["r0", "r1", "r2"])
            for i in range(30):
                ring.nodes_for(f"key{i}")
            moved = ring.remove("r1")
        assert moved > 0
        assert ring.moved_keys == moved
        assert registry.counter(MOVED_METRIC).total() == moved


# ----------------------------------------------------------------------
# Chaos schedules
# ----------------------------------------------------------------------


class TestChaosSchedule:
    def test_kill_one_deterministic(self):
        replicas = ["replica-0", "replica-1", "replica-2"]
        a = ChaosSchedule.kill_one(replicas, at=0.2, repair_after=0.3,
                                   seed=5)
        b = ChaosSchedule.kill_one(replicas, at=0.2, repair_after=0.3,
                                   seed=5)
        assert a.to_dicts() == b.to_dicts()
        assert [e.action for e in a.events] == ["kill", "restart"]
        assert a.events[1].at == pytest.approx(0.5)

    def test_random_respects_min_alive(self):
        replicas = [f"replica-{i}" for i in range(3)]
        schedule = ChaosSchedule.random(
            replicas, kills=6, span=1.0, repair_after=0.2, seed=3,
            min_alive=2,
        )
        dead = set()
        for event in schedule.events:
            if event.action == "kill":
                dead.add(event.replica)
                assert len(replicas) - len(dead) >= 2
            else:
                dead.discard(event.replica)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(at=-1.0, action="kill", replica="r")
        with pytest.raises(ValueError):
            ChaosEvent(at=0.0, action="explode", replica="r")

    def test_roundtrip(self):
        schedule = ChaosSchedule.random(
            ["a", "b", "c"], kills=2, seed=9
        )
        clone = ChaosSchedule.from_dicts(schedule.to_dicts())
        assert clone.to_dicts() == schedule.to_dicts()


# ----------------------------------------------------------------------
# Router mechanism
# ----------------------------------------------------------------------


class TestRouterFailover:
    def test_retry_never_duplicates_response_id(self):
        """Kill the workload's primary mid-stream: every request gets
        exactly one response, ids unique, accounting closed."""
        requests = make_workload("uniform", MS22, k=5, count=120,
                                 seed=4, batch=2)
        with _small_cluster() as cluster:
            primary = cluster.router.router.ring.primary("MS")
            responses = {}
            with socket.create_connection(
                (cluster.host, cluster.port), timeout=15
            ) as sock:
                fh = sock.makefile("rw")
                for i, request in enumerate(requests):
                    fh.write(json.dumps(dict(request, id=i)) + "\n")
                    fh.flush()
                    if i == 10:
                        cluster.kill(primary)
                    response = json.loads(fh.readline())
                    assert response["id"] == i
                    assert response["id"] not in responses
                    responses[response["id"]] = response
            stats = cluster.router.stats()
        assert len(responses) == len(requests)
        assert stats["closed"], stats
        # the kill mid-stream forced traffic off the primary
        assert stats["failovers"] > 0 or stats["retries"] > 0, stats

    def test_draining_backend_not_picked(self):
        requests = make_workload("uniform", MS22, k=5, count=20,
                                 seed=2, batch=2)
        with _small_cluster() as cluster:
            primary = cluster.router.router.ring.primary("MS")
            moved = cluster.router.start_drain(primary)
            assert moved >= 0
            result = run_loadgen(
                cluster.host, cluster.port, requests, concurrency=2
            )
            assert cluster.router.inflight(primary) == 0
            stats = cluster.router.stats()
        assert result.closed and result.errors == 0
        assert stats["replicas"][primary]["inflight"] == 0

    def test_all_replicas_down_fails_closed(self):
        with _small_cluster(replicas=2) as cluster:
            cluster.kill("replica-0")
            cluster.kill("replica-1")
            with socket.create_connection(
                (cluster.host, cluster.port), timeout=15
            ) as sock:
                fh = sock.makefile("rw")
                fh.write(json.dumps({
                    "id": 1, "op": "properties", "network": MS22,
                }) + "\n")
                fh.flush()
                response = json.loads(fh.readline())
            stats = cluster.router.stats()
        assert response["ok"] is False
        assert response["id"] == 1
        assert stats["closed"], stats
        assert stats["failed"] == 1

    def test_router_stats_op_inline(self):
        with _small_cluster(replicas=2) as cluster:
            with socket.create_connection(
                (cluster.host, cluster.port), timeout=15
            ) as sock:
                fh = sock.makefile("rw")
                fh.write(json.dumps({"id": 9, "op": "stats"}) + "\n")
                fh.flush()
                response = json.loads(fh.readline())
        assert response["ok"] is True and response["id"] == 9
        replicas = response["result"]["replicas"]
        assert set(replicas) == {"replica-0", "replica-1"}
        assert all(r["up"] for r in replicas.values())


# ----------------------------------------------------------------------
# End-to-end smoke (CI gate: -k smoke)
# ----------------------------------------------------------------------


class TestClusterSmoke:
    def test_cluster_chaos_smoke_closed_accounting(self):
        """The e2e gate: 3 replicas under loadgen, the workload's ring
        primary killed mid-run, every request answered exactly once."""
        requests = make_workload("uniform", MS22, k=5, count=200,
                                 seed=8, batch=4)
        with _small_cluster() as cluster:
            primary = cluster.router.router.ring.primary("MS")
            schedule = ChaosSchedule(
                [ChaosEvent(at=0.05, action="kill", replica=primary)]
            )
            with ChaosRunner(cluster, schedule) as chaos:
                result = run_loadgen(
                    cluster.host, cluster.port, requests,
                    concurrency=4,
                )
            assert chaos.applied, "chaos schedule never fired"
            stats = cluster.router.stats()
        assert result.closed, result.to_dict()
        assert result.sent == len(requests)
        assert result.timeouts == 0
        assert stats["closed"], stats
        # availability: the acceptance bar is >= 99 %
        assert result.ok / result.sent >= 0.99, result.to_dict()

    def test_rolling_restart_zero_failed_smoke(self):
        """Drain-based rolling restart of every replica while loadgen
        runs: zero failed requests, accounting closed."""
        requests = make_workload("uniform", MS22, k=5, count=200,
                                 seed=3, batch=4)
        with _small_cluster() as cluster:
            rolled = []
            roller = threading.Thread(
                target=lambda: rolled.extend(cluster.rolling_restart()),
                daemon=True,
            )
            roller.start()
            result = run_loadgen(
                cluster.host, cluster.port, requests, concurrency=4
            )
            roller.join(timeout=60)
            assert not roller.is_alive(), "rolling restart hung"
            stats = cluster.router.stats()
        assert rolled == ["replica-0", "replica-1", "replica-2"]
        assert result.closed and result.errors == 0, result.to_dict()
        assert result.ok == result.sent
        assert stats["closed"], stats
        restarts = sum(
            r.restarts for r in cluster.replicas.values()
        )
        assert restarts == 3

    def test_kill_restart_reconverges(self):
        """A killed replica restarted on its pinned port is marked UP
        again by the prober and serves traffic."""
        with _small_cluster() as cluster:
            port_before = cluster.replicas["replica-1"].port
            cluster.kill("replica-1")
            assert cluster.router.wait_state(
                "replica-1", up=False, timeout=10
            )
            cluster.restart("replica-1")
            assert cluster.replicas["replica-1"].port == port_before
            assert cluster.router.backends_up()["replica-1"]

    def test_cluster_sweep_rows_close(self):
        from repro.experiments import cluster_sweep

        rows = list(cluster_sweep(
            count=60, batch=4, concurrency=2,
            scenarios=("steady", "rolling"),
        ))
        assert [row.scenario for row in rows] == ["steady", "rolling"]
        for row in rows:
            assert row.closed, row
            assert row.errors == 0, row
            assert row.availability == 1.0
        assert rows[1].restarts == 3


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestClusterMetrics:
    def test_replica_up_gauge_tracks_kill(self):
        from repro.cluster.router import UP_METRIC
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            with _small_cluster(replicas=2) as cluster:
                cluster.kill("replica-0")
                assert cluster.router.wait_state(
                    "replica-0", up=False, timeout=10
                )
                gauge = registry.gauge(UP_METRIC)
                assert gauge.value(replica="replica-0") == 0
                assert gauge.value(replica="replica-1") == 1


# ----------------------------------------------------------------------
# Wire protocols through the router
# ----------------------------------------------------------------------


class TestRouterWire:
    def test_binary_loadgen_through_router(self):
        """Binary frames pass through the router untouched (id patch,
        no re-encode) with closed accounting on both sides."""
        requests = make_workload("uniform", MS22, k=5, count=60,
                                 seed=6, batch=4)
        with _small_cluster() as cluster:
            result = run_loadgen(
                cluster.host, cluster.port, requests, concurrency=3,
                protocol="binary",
            )
            stats = cluster.router.stats()
        assert result.closed, result.to_dict()
        assert result.ok == result.sent == len(requests)
        assert stats["closed"], stats
        assert stats["failovers"] == 0

    def test_binary_matches_json_through_router(self):
        """Same requests, both client protocols, one router: identical
        decoded responses — answers and errors alike."""
        import asyncio

        pairs = list(uniform_pairs(5, 8, seed=9))
        requests = [
            {"op": "distance", "network": MS22, "pairs": pairs},
            {"op": "route", "network": MS22, "pairs": pairs[:3],
             "algorithm": "table"},
            {"op": "route", "network": MS22, "pairs": pairs[:3],
             "algorithm": "algorithmic"},
            {"op": "neighbors", "network": MS22,
             "nodes": [pairs[0][0], pairs[1][1]]},
            {"op": "properties", "network": MS22},
            {"op": "distance", "network": {"family": "NOPE", "l": 2,
                                           "n": 2}, "pairs": pairs},
            {"op": "distance", "network": MS22,
             "pairs": [["12345"], ["1234", "54321"]]},
        ]

        async def _ask(host, port, protocol, request):
            reader, writer = await asyncio.open_connection(
                host, port, limit=wire.WIRE_LIMIT
            )
            writer.write(
                wire.encode_request(request) if protocol == "binary"
                else json.dumps(request).encode() + b"\n"
            )
            await writer.drain()
            message = await wire.read_message(reader)
            writer.close()
            return (
                wire.decode_response(message)
                if isinstance(message, wire.Frame)
                else json.loads(message)
            )

        answers = {"json": [], "binary": []}
        with _small_cluster(replicas=2) as cluster:
            for i, request in enumerate(requests):
                for protocol, got in answers.items():
                    got.append(wire.run(_ask(
                        cluster.host, cluster.port, protocol,
                        dict(request, id=i),
                    )))
            stats = cluster.router.stats()
        assert [r["ok"] for r in answers["json"]] == [True] * 5 + [False] * 2
        assert [r["id"] for r in answers["json"]] == list(range(len(requests)))
        assert answers["json"] == answers["binary"]
        assert stats["closed"], stats

    def test_replica_link_is_binary_only(self):
        """JSON clients, probes and a metrics fan-in: the replicas never
        see a JSON request — the router frames everything it forwards."""
        from repro.obs import MetricsRegistry, use_registry

        requests = make_workload("uniform", MS22, k=5, count=40,
                                 seed=5, batch=4)
        registry = MetricsRegistry()
        with use_registry(registry):
            with _small_cluster(replicas=2) as cluster:
                result = run_loadgen(
                    cluster.host, cluster.port, requests, concurrency=2,
                )
                with socket.create_connection(
                    (cluster.host, cluster.port), timeout=15
                ) as sock:
                    fh = sock.makefile("rw")
                    fh.write(json.dumps({"id": 1, "op": "metrics"}) + "\n")
                    fh.flush()
                    response = json.loads(fh.readline())
            proto = registry.counter("serve.proto")
            json_requests = proto.value(kind="json")
            binary_requests = proto.value(kind="binary")
        assert result.closed and result.ok == len(requests)
        assert response["ok"], response.get("error")
        assert json_requests == 0
        # every loadgen request, at least one probe and the fan-in
        assert binary_requests >= len(requests) + 2

    def test_over_64k_batch_through_router(self):
        """Regression for the 64 KiB ceiling on the router's two hops
        (client->router, router->replica): a large batch is answered,
        no failover, accounting closed."""
        pairs = list(uniform_pairs(5, 4096, seed=3))
        request = {"id": 1, "op": "distance", "network": MS22,
                   "pairs": pairs}
        assert len(json.dumps(request).encode()) > 64 * 1024
        with _small_cluster(replicas=2) as cluster:
            with socket.create_connection(
                (cluster.host, cluster.port), timeout=30
            ) as sock:
                fh = sock.makefile("rw")
                fh.write(json.dumps(request) + "\n")
                fh.flush()
                response = json.loads(fh.readline())
            stats = cluster.router.stats()
        assert response["ok"], response.get("error")
        assert len(response["result"]["distances"]) == len(pairs)
        assert stats["closed"], stats
        assert stats["failovers"] == 0 and stats["failed"] == 0

    def test_high_cardinality_metrics_fanin_no_failover(self):
        """Regression: a metrics fan-in whose per-replica answer is far
        over the old 64 KiB stream limit must not be misread as a dead
        backend — no BackendDied, no failover, replicas stay up."""
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry(max_label_sets=20000)
        with use_registry(registry):
            # the in-process replicas share this registry, so every
            # replica's ``metrics`` answer carries all 5000 series
            bloat = registry.counter("test.cardinality")
            for i in range(5000):
                bloat.inc(1, key=f"k{i:05d}")
            with _small_cluster(replicas=2) as cluster:
                with socket.create_connection(
                    (cluster.host, cluster.port), timeout=30
                ) as sock:
                    fh = sock.makefile("rw")
                    fh.write(json.dumps({"id": 2, "op": "metrics"})
                             + "\n")
                    fh.flush()
                    line = fh.readline()
                    response = json.loads(line)
                stats = cluster.router.stats()
                replica_stats = stats["replicas"]
        assert response["ok"], response.get("error")
        assert len(line.encode()) > 64 * 1024
        # every replica contributed to the merge — none dropped
        merged = response["result"]
        labels = {
            tuple(sorted(row.get("labels", {}).items()))
            for row in merged["counters"]["test.cardinality"]
        }
        assert any("replica-0" in str(label) for label in labels)
        assert any("replica-1" in str(label) for label in labels)
        assert stats["failovers"] == 0, stats
        assert all(r["up"] for r in replica_stats.values()), replica_stats
