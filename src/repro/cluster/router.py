"""Consistent-hash front proxy with health checks and failover.

:class:`ClusterRouter` is the cluster's single client-facing endpoint.
It takes either client protocol of
:class:`~repro.serve.server.QueryServer` — newline JSON or binary
frames (:mod:`repro.serve.wire`) — but instead of executing queries it
*places* them: each request hashes by its network family onto the
:class:`~repro.cluster.ring.HashRing` and is forwarded to the first
healthy replica in the family's preference list.

The protocol is decided once, at the client edge.  A binary client's
frame is the forwarded object as it arrived; a JSON client's line is
parsed once and framed with :func:`~repro.serve.wire.encode_request`.
From there one path serves both: the replica link speaks frames only,
over a persistent per-replica connection where each frame's
fixed-offset id is re-stamped to an internal call id (so many client
connections multiplex safely onto one backend socket), and the reply
step restores the client's own id and answers in the client's own
protocol.

Failure handling mirrors the paper's fault-tolerant routing at the
system level:

* **health checks** — a prober task per replica sends periodic
  ``properties`` probes (``stats`` when no probe spec is configured);
  connect failures and failed probes mark the replica DOWN and back
  off exponentially (capped), successes mark it UP and reset;
* **fast failure detection** — a severed backend connection fails
  every in-flight call immediately (no waiting for the next probe
  tick);
* **exactly-once retry** — queries are idempotent reads, so a call
  that dies with its replica is retried on a *different* surviving
  replica exactly once; a second failure is answered as an error.

Accounting is closed cluster-wide: every received request is answered
exactly once and ``received == completed + rejected + failed`` holds
at all times (``stats`` is answered inline and exempt, like the
server's).  Metrics flow through :mod:`repro.obs` under ``cluster.*``:
``cluster.router.retries``, ``cluster.router.failovers``,
``cluster.ring.moved_keys``, and per-replica ``cluster.replica_up``
health gauges.  A traced request of either protocol gets the
``router.route`` span between the client's and the replica's.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..obs import (
    LogHistogram,
    extract,
    get_registry,
    inject,
    merge_metrics_snapshots,
    record_event,
    start_span,
)
from ..serve import wire
from .ring import HashRing

DEFAULT_PROBE_INTERVAL = 0.25
DEFAULT_PROBE_TIMEOUT = 2.0
DEFAULT_MAX_BACKOFF = 1.0
DEFAULT_REQUEST_TIMEOUT = 5.0
DEFAULT_MAX_INFLIGHT = 1024

UP_METRIC = "cluster.replica_up"


class BackendDied(ConnectionError):
    """The replica connection severed while a call was in flight."""


#: a client request that carried no id (a JSON ``"id": null`` is an id
#: and is echoed back)
_NO_ID = object()


def _frame(request: Dict[str, object]) -> "wire.Frame":
    """A request dict as the parsed frame the replica link carries."""
    return wire.parse_frame(wire.encode_request(request))


class _Request:
    """One client request inside the router: the frame forwarded to a
    replica, its JSON header (placement key, op, trace context), and the
    client's protocol and own id for the reply step."""

    __slots__ = ("binary", "client_id", "frame", "header", "op")

    def __init__(self, message=None):
        self.binary = isinstance(message, wire.Frame)
        self.client_id = _NO_ID
        self.frame = message if self.binary else None
        self.header: Dict[str, object] = {}
        self.op = None
        if self.binary:
            self.op = wire.OP_NAMES.get(message.opcode)
            if message.has_id:
                self.client_id = message.request_id

    def parse(self, message) -> None:
        """Frame the request at the edge: a binary frame stays the
        forwarded object and only its JSON header is parsed; a JSON
        line is parsed once and framed.  Raises ``ValueError``
        (``WireError`` included) or ``TypeError`` on a malformed
        request."""
        if message is wire.OVERSIZED:
            raise ValueError(
                f"line over the {wire.WIRE_LIMIT}-byte wire limit"
            )
        if self.binary:
            self.header = message.header()
            self.header.pop("id", None)  # a frame's id is in its fixed header
        else:
            self.header = wire.decode_json_request(message)
            self.client_id = self.header.pop("id", _NO_ID)
            self.frame = _frame(self.header)
        self.op = self.header.get("op") or self.op


class _Backend:
    """One replica as the router sees it: address, health, socket,
    and the in-flight calls multiplexed onto it."""

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = port
        self.up = False
        self.draining = False
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.pending: Dict[int, asyncio.Future] = {}
        self.probes = 0
        self.probe_failures = 0
        self.transitions = 0
        self.down_at: Optional[float] = None
        self.up_at: Optional[float] = None

    @property
    def available(self) -> bool:
        return self.up and not self.draining

    def snapshot(self) -> Dict[str, object]:
        return {
            "up": self.up,
            "draining": self.draining,
            "inflight": len(self.pending),
            "probes": self.probes,
            "probe_failures": self.probe_failures,
            "transitions": self.transitions,
            "down_at": self.down_at,
            "up_at": self.up_at,
        }


class RouterStats:
    """Closed cluster-wide accounting for the front proxy."""

    def __init__(self):
        self.received = 0
        self.completed = 0
        self.rejected = 0
        self.failed = 0
        self.retries = 0
        self.failovers = 0
        self.started = time.monotonic()

    @property
    def closed(self) -> bool:
        return self.received == self.completed + self.rejected + self.failed


class ClusterRouter:
    """Route queries of either client protocol to a replica set over a
    hash ring.

    ``backends`` maps replica names to ``(host, port)`` addresses.
    ``probe_spec`` (a network spec dict) makes health probes real
    ``properties`` queries — exercising the replica's engine, not just
    its socket; without one, probes use the always-answerable ``stats``
    op.  ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).
    """

    def __init__(
        self,
        backends: Dict[str, Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        replication_factor: int = 2,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        probe_spec: Optional[Dict[str, object]] = None,
        ring_seed: int = 0,
    ):
        self.host = host
        self.port = port
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.max_backoff = max_backoff
        self.request_timeout = request_timeout
        self.max_inflight = max_inflight
        self.probe_spec = probe_spec
        self.stats_counters = RouterStats()
        self._latencies = LogHistogram()
        self.backends: Dict[str, _Backend] = {
            name: _Backend(name, addr[0], addr[1])
            for name, addr in backends.items()
        }
        self.ring = HashRing(
            sorted(self.backends),
            replication_factor=replication_factor,
            seed=ring_seed,
        )
        self._next_call_id = 0
        self._inflight = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._probers: List[asyncio.Task] = []
        self._clients: set = set()
        self._closing = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "ClusterRouter":
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=wire.WIRE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._probers = [
            asyncio.create_task(self._probe_loop(backend))
            for backend in self.backends.values()
        ]
        return self

    async def stop(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._clients):
            try:
                writer.close()
            except (ConnectionResetError, OSError):
                pass
        for task in self._probers:
            task.cancel()
        if self._probers:
            await asyncio.gather(*self._probers, return_exceptions=True)
        for backend in self.backends.values():
            self._sever(backend, "router shutting down")
            if backend.reader_task is not None:
                backend.reader_task.cancel()

    # -- backend connections --------------------------------------------

    async def _connect(self, backend: _Backend) -> None:
        reader, writer = await asyncio.open_connection(
            backend.host, backend.port, limit=wire.WIRE_LIMIT
        )
        backend.reader = reader
        backend.writer = writer
        backend.reader_task = asyncio.create_task(
            self._reader_loop(backend)
        )

    async def _reader_loop(self, backend: _Backend) -> None:
        """Resolve in-flight calls by the id echoed in each response
        frame; a severed connection fails everything pending
        *immediately*."""
        reader = backend.reader
        try:
            while True:
                try:
                    message = await wire.read_message(reader)
                except (wire.WireError, asyncio.IncompleteReadError):
                    break  # unsyncable / truncated frame: sever for real
                if message is None:
                    break
                if not isinstance(message, wire.Frame):
                    continue  # replicas answer frames with frames
                future = backend.pending.pop(
                    message.request_id if message.has_id else None, None
                )
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionResetError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._sever(backend, "connection lost")

    def _sever(self, backend: _Backend, reason: str) -> None:
        """Mark DOWN, close the socket, fail all in-flight calls."""
        was_up = backend.up
        backend.up = False
        if was_up:
            backend.transitions += 1
            backend.down_at = time.monotonic()
            record_event("router.replica-down", replica=backend.name,
                         reason=reason)
            registry = get_registry()
            if registry.enabled:
                registry.gauge(UP_METRIC).set(0, replica=backend.name)
        if backend.writer is not None:
            try:
                backend.writer.close()
            except (ConnectionResetError, OSError):
                pass
            backend.writer = None
            backend.reader = None
        for future in list(backend.pending.values()):
            if not future.done():
                future.set_exception(
                    BackendDied(f"{backend.name}: {reason}")
                )
        backend.pending.clear()

    def _mark_up(self, backend: _Backend) -> None:
        if not backend.up:
            backend.up = True
            backend.transitions += 1
            backend.up_at = time.monotonic()
            record_event("router.replica-up", replica=backend.name)
            registry = get_registry()
            if registry.enabled:
                registry.gauge(UP_METRIC).set(1, replica=backend.name)

    async def _probe_loop(self, backend: _Backend) -> None:
        """Connect (with capped exponential backoff) and probe."""
        backoff = self.probe_interval
        while not self._closing:
            if backend.writer is None:
                try:
                    await self._connect(backend)
                except (ConnectionRefusedError, OSError):
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.max_backoff)
                    continue
            backend.probes += 1
            if await self._probe_once(backend):
                self._mark_up(backend)
                backoff = self.probe_interval
                await asyncio.sleep(self.probe_interval)
            else:
                backend.probe_failures += 1
                self._sever(backend, "probe failed")
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.max_backoff)

    async def _probe_once(self, backend: _Backend) -> bool:
        if self.probe_spec is not None:
            probe = {"op": "properties", "network": dict(self.probe_spec)}
        else:
            probe = {"op": "stats"}
        try:
            response = await self._call(
                backend, _frame(probe), timeout=self.probe_timeout
            )
        except (BackendDied, asyncio.TimeoutError):
            return False
        return bool(response.flags & wire.FLAG_OK)

    async def _call(
        self,
        backend: _Backend,
        frame: "wire.Frame",
        timeout: float,
    ) -> "wire.Frame":
        """One multiplexed exchange on the replica's persistent
        connection: the frame goes out raw with only its fixed-offset
        id re-stamped to an internal call id (no payload re-encode),
        and the response frame resolves by that echoed id."""
        if backend.writer is None:
            raise BackendDied(f"{backend.name}: not connected")
        call_id = self._next_call_id
        self._next_call_id += 1
        future = asyncio.get_running_loop().create_future()
        backend.pending[call_id] = future
        try:
            backend.writer.write(frame.with_id(call_id))
            await backend.writer.drain()
        except (ConnectionResetError, OSError) as exc:
            backend.pending.pop(call_id, None)
            self._sever(backend, f"write failed: {exc}")
            raise BackendDied(f"{backend.name}: write failed") from exc
        try:
            return await asyncio.wait_for(future, timeout=timeout)
        finally:
            backend.pending.pop(call_id, None)

    # -- placement ------------------------------------------------------

    @staticmethod
    def family_key(request: Dict[str, object]) -> str:
        """The routing key: the query's network family (falling back
        to the op for network-less requests)."""
        network = request.get("network")
        if isinstance(network, dict) and "family" in network:
            return str(network["family"])
        return str(request.get("op"))

    def _pick(
        self, key: str, exclude: Tuple[str, ...] = ()
    ) -> Tuple[Optional[_Backend], bool]:
        """The first available replica for ``key``: ring preference
        order first, then any survivor.  Returns ``(backend,
        diverted)`` — ``diverted`` is True when the pick is not the
        key's ring primary (a failover placement)."""
        prefs = self.ring.nodes_for(key)
        candidates = prefs + [
            name for name in sorted(self.backends) if name not in prefs
        ]
        for i, name in enumerate(candidates):
            backend = self.backends.get(name)
            if backend is None or name in exclude:
                continue
            if backend.available:
                return backend, (i > 0 or bool(exclude))
        return None, True

    # -- drain protocol -------------------------------------------------

    def start_drain(self, name: str) -> int:
        """Stop admitting new work to a replica and hand its family
        ranges to its ring peers; returns moved-key count.  In-flight
        calls are untouched — poll :meth:`inflight` for zero before
        stopping the replica."""
        backend = self.backends[name]
        backend.draining = True
        return self.ring.remove(name)

    def end_drain(self, name: str) -> int:
        """Re-admit a drained replica and give its ranges back."""
        backend = self.backends[name]
        backend.draining = False
        return self.ring.add(name)

    def inflight(self, name: str) -> int:
        return len(self.backends[name].pending)

    # -- client handling ------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients.add(writer)
        try:
            await self._client_loop(reader, writer)
        except asyncio.CancelledError:
            # shutdown cancels handler tasks mid-read; swallowing here
            # keeps the asyncio streams callback from logging it
            pass
        finally:
            self._clients.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass

    async def _client_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stats = self.stats_counters
        registry = get_registry()
        while not self._closing:
            try:
                message = await wire.read_message(reader)
            except wire.WireError:
                # Unrecoverable binary framing: answer once and close
                # (the stream cannot be resynchronised).
                stats.received += 1
                stats.rejected += 1
                if registry.enabled:
                    registry.counter("cluster.router.requests").inc(1)
                request = _Request()
                await self._reply(writer, request, self._error(
                    request, "malformed frame"
                ))
                break
            except (ConnectionResetError, OSError,
                    asyncio.IncompleteReadError):
                break
            if message is None:
                break
            stats.received += 1
            if registry.enabled:
                registry.counter("cluster.router.requests").inc(1)
            request = _Request(message)
            try:
                request.parse(message)
            except (TypeError, ValueError) as exc:
                # an over-limit JSON line (consumed and discarded), bad
                # JSON, a non-object, an unhashable op or a bad frame
                # header: the connection survives, accounting stays
                # closed
                stats.rejected += 1
                await self._reply(writer, request, self._error(
                    request, f"malformed request: {exc}"
                ))
                continue
            if request.op == "stats":
                stats.completed += 1
                await self._reply(writer, request, {
                    "ok": True, "op": "stats", "result": self.stats(),
                })
                continue
            if request.op == "metrics":
                # Cluster-wide metric aggregation: fan the op out to
                # every available replica and merge with per-replica
                # labels (the router's own registry rides along as
                # replica="router").
                stats.completed += 1
                await self._reply(writer, request, {
                    "ok": True, "op": "metrics",
                    "result": await self._metrics(),
                })
                continue
            if self._inflight >= self.max_inflight:
                stats.rejected += 1
                await self._reply(writer, request, self._error(
                    request, "overloaded"
                ))
                continue
            self._inflight += 1
            start = time.monotonic()
            try:
                response = await self._route(request)
            finally:
                self._inflight -= 1
                self._latencies.observe(
                    (time.monotonic() - start) * 1000.0
                )
            await self._reply(writer, request, response)

    async def _route(self, request: _Request):
        """Place one request; exactly one response comes back — the
        replica's response frame, or an error dict.

        Attempt one goes to the key's first available replica.  If the
        call dies with its backend (severed connection, timeout), the
        query — idempotent by construction — is retried on a
        *different* surviving replica exactly once.

        A sampled request gets the router's hop span here —
        ``router.route``, parent of whatever replica span the forwarded
        child context produces.  Its header is re-encoded to carry that
        context; every other frame is forwarded raw.
        """
        stats = self.stats_counters
        registry = get_registry()
        key = self.family_key(request.header)
        frame, span = request.frame, None
        ctx = extract(request.header)
        if ctx is not None:
            span = start_span("router.route", ctx, {
                "op": str(request.op), "key": key,
            }).__enter__()
            frame = _frame(inject(request.header, span.context()))
        response = None
        tried: List[str] = []
        while response is None and len(tried) < 2:
            backend, diverted = self._pick(key, exclude=tuple(tried))
            if backend is None:
                break
            if diverted:
                stats.failovers += 1
                if registry.enabled:
                    registry.counter("cluster.router.failovers").inc(1)
            try:
                response = await self._call(
                    backend, frame, timeout=self.request_timeout
                )
            except (BackendDied, asyncio.TimeoutError):
                tried.append(backend.name)
                if len(tried) == 1:
                    stats.retries += 1
                    record_event("router.retry", replica=backend.name,
                                 op=str(request.op))
                    if registry.enabled:
                        registry.counter("cluster.router.retries").inc(1)
        if response is not None:
            stats.completed += 1
        else:
            stats.failed += 1
            if not tried:
                reason = "no replicas available"
            elif len(tried) == 1:
                reason = f"replica {tried[0]} died; no survivor"
            else:
                reason = f"replicas {tried[0]} and {tried[1]} both failed"
            response = self._error(request, reason)
        if span is not None:
            span.ok = isinstance(response, wire.Frame) \
                and bool(response.flags & wire.FLAG_OK)
            span.__exit__(None, None, None)
        return response

    @staticmethod
    def _error(request: _Request, message: str) -> Dict[str, object]:
        return {"ok": False, "op": request.op, "error": message}

    @staticmethod
    async def _reply(
        writer: asyncio.StreamWriter, request: _Request, response
    ) -> None:
        """Answer one client in its own protocol under its own id.  A
        replica's response frame goes back to a binary client as is,
        id re-stamped at its fixed offset; everything else passes
        through the response dict."""
        if isinstance(response, wire.Frame) and request.binary \
                and request.client_id is not _NO_ID:
            payload = response.with_id(request.client_id)
        else:
            if isinstance(response, wire.Frame):
                response = wire.decode_response(response)
            response.pop("id", None)
            if request.client_id is not _NO_ID:
                response["id"] = request.client_id
            payload = wire.encode_response(response) if request.binary \
                else json.dumps(response).encode() + b"\n"
        try:
            writer.write(payload)
            await writer.drain()
        except (ConnectionResetError, OSError):
            pass  # client went away; accounting already counted it

    # -- introspection --------------------------------------------------

    async def _metrics(self) -> Dict[str, object]:
        """The cluster-wide metric snapshot behind the ``metrics`` op.

        Every available replica's ``metrics`` answer merges under a
        ``replica=<name>`` label; the router's own registry joins as
        ``replica="router"``.  Unreachable replicas are simply absent —
        a partial snapshot now beats a complete one never.  (In the
        in-process test cluster all replicas share one registry, so
        their snapshots coincide; separate server processes each bring
        their own.)
        """
        snapshots = [get_registry().snapshot()]
        extras: List[Dict[str, object]] = [{"replica": "router"}]
        for name in sorted(self.backends):
            backend = self.backends[name]
            if not backend.available:
                continue
            try:
                response = wire.decode_response(await self._call(
                    backend, _frame({"op": "metrics"}),
                    timeout=self.probe_timeout,
                ))
            except (BackendDied, asyncio.TimeoutError, wire.WireError):
                continue
            if response.get("ok") and isinstance(
                response.get("result"), dict
            ):
                snapshots.append(response["result"])
                extras.append({"replica": name})
        return merge_metrics_snapshots(snapshots, extras)

    def stats(self) -> Dict[str, object]:
        stats = self.stats_counters
        elapsed = max(time.monotonic() - stats.started, 1e-9)
        return {
            "qps": stats.completed / elapsed,
            "p50_ms": self._latencies.percentile(50.0),
            "p99_ms": self._latencies.percentile(99.0),
            "received": stats.received,
            "completed": stats.completed,
            "rejected": stats.rejected,
            "failed": stats.failed,
            "closed": stats.closed,
            "retries": stats.retries,
            "failovers": stats.failovers,
            "inflight": self._inflight,
            "ring_moved_keys": self.ring.moved_keys,
            "replicas": {
                name: backend.snapshot()
                for name, backend in sorted(self.backends.items())
            },
        }


class RouterThread:
    """Run a :class:`ClusterRouter` on a private event loop thread —
    the synchronous harness :class:`~repro.cluster.manager.ClusterManager`
    and the tests drive."""

    def __init__(self, backends: Dict[str, Tuple[str, int]], **kwargs):
        self.router = ClusterRouter(backends, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> int:
        return self.router.port

    def start(self) -> "RouterThread":
        self._loop = wire.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-router", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("router failed to start within 10s")
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.router.start())
        self._ready.set()
        self._loop.run_forever()
        tasks = asyncio.all_tasks(self._loop)
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self._loop.close()

    def stop(self) -> None:
        if self._loop is None:
            return

        async def _shutdown():
            await self.router.stop()
            self._loop.stop()

        try:
            asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
        except RuntimeError:
            return
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "RouterThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- thread-safe control plane --------------------------------------

    def _on_loop(self, fn, *args):
        future = threading.Event()
        box: Dict[str, object] = {}

        def _run():
            try:
                box["result"] = fn(*args)
            except Exception as exc:  # relayed, not swallowed
                box["error"] = exc
            future.set()

        self._loop.call_soon_threadsafe(_run)
        if not future.wait(timeout=10.0):
            raise RuntimeError("router loop unresponsive")
        if "error" in box:
            raise box["error"]
        return box.get("result")

    def stats(self) -> Dict[str, object]:
        return self._on_loop(self.router.stats)

    def start_drain(self, name: str) -> int:
        return self._on_loop(self.router.start_drain, name)

    def end_drain(self, name: str) -> int:
        return self._on_loop(self.router.end_drain, name)

    def inflight(self, name: str) -> int:
        return self._on_loop(self.router.inflight, name)

    def wait_state(
        self, name: str, up: bool, timeout: float = 10.0
    ) -> bool:
        """Block until a replica reaches the wanted health state."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._on_loop(
                lambda: self.backends_up().get(name)
            ) is up:
                return True
            time.sleep(0.01)
        return False

    def backends_up(self) -> Dict[str, bool]:
        return {
            name: backend.up
            for name, backend in self.router.backends.items()
        }

    def wait_all_up(self, timeout: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(self._on_loop(self.backends_up).values()):
                return True
            time.sleep(0.01)
        return False
