"""Sharded frontier BFS: owner-computes exploration across processes.

The frontier engine (:mod:`repro.frontier.engine`) made full profiles
past the compiled-table wall *fit* (a k=10 profile under 64 MiB); this
module makes them *parallel*.  :class:`ShardedFrontierBFS` spawns ``W``
worker processes and hash-partitions the uint64 key space across them
(:mod:`repro.frontier.partition`): worker ``w`` owns every state whose
key maps to it, holds only its own slice of the dedup window (so
per-worker memory is ~``budget / W``), and journals its own
``shard-{w}/`` spill dir.

Per layer the protocol is owner-computes all-to-all:

1. **expand** — every worker expands its local frontier with the same
   column gathers as the single-process engine, computes child keys,
   and partitions children by owner in one vectorized bucket pass;
2. **exchange** — each ``(states, keys)`` bucket ships to its owner
   over a ``multiprocessing`` queue, or — above ``slab_threshold``
   bytes — through a named memory-backed **slab segment** (a file
   under ``/dev/shm``, the tablestore idiom: deterministic
   ``repro_fx_<tag>_…`` names, receiver unlinks on consume, the
   coordinator sweeps its tag on teardown so crashes never leak);
   self-owned buckets are absorbed in place;
3. **drain + dedup** — the coordinator totals the per-destination row
   counts from every worker's ``sent`` report and tells each owner how
   many rows to expect; owners dedup arriving chunks against their own
   prev∪current key window (all owned layers for directed
   families) with the engine's dedup kernel, so dedup work
   parallelizes with the key space;
4. **barrier** — workers report ``(accepted, received, discarded)``;
   the coordinator merges them into the global layer width, asserts
   the exchange books close (``sent == received == deduped-in +
   discarded``), journals progress, and starts the next layer.

Layer *profiles* are invariant under sharding: a key is accepted at
depth ``d+1`` exactly when it is absent from the depth-``d-1``/``d``
window (ring for directed), ownership is a pure function of the key,
and every duplicate of a key lands on the same owner — so the accepted
key *set* per layer equals the single-process engine's, which equals
the compiled BFS's (asserted on all ten families in
``tests/test_frontier_sharded.py``).  Discovery *order* within a layer
differs (arrival order replaces frontier order), which is why the
sharded engine does not offer ``track_first_hop`` / ``keep_layers``.

Failure semantics: a dead worker fails the run with
:class:`ShardWorkerDied` (never a hang) — the coordinator watches
process sentinels while it waits on the control pipes; workers watch
the coordinator right back (control-pipe EOF / reparenting) and prune
their own un-journaled segments before exiting, so a SIGKILLed
coordinator leaves only journaled layers behind and ``resume=True``
restarts the run at the last layer **every** worker journaled
(journals ahead of that barrier are truncated).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import shutil
import tempfile
import time
import traceback
from multiprocessing.connection import wait as conn_wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..core.tablestore import store_digest
from ..obs import get_registry, get_tracer
from .encoding import (
    check_state_count,
    chunk_rows,
    dedup_batch,
    expand_states,
    generator_columns,
    identity_state,
    in_any,
    key_bits,
    make_key_fn,
)
from .engine import (
    DEFAULT_MEMORY_BUDGET,
    FrontierResult,
    _DiskLayer,
    _LayerBuilder,
    _RamLayer,
    _SearchState,
)
from .partition import owner_of, partition_by_owner
from .spill import (
    FrontierRunDir,
    SpillError,
    reset_active_runs_after_fork,
)

#: coordinator-side metadata file at the spill root (the shard dirs'
#: journals hang off it as ``shard-{i}/journal.json``).
COORDINATOR_META = "coordinator.json"
COORDINATOR_FORMAT = 1

#: exchange chunks at or above this many bytes ride a memory-backed
#: slab segment instead of the queue pickle path.
DEFAULT_SLAB_THRESHOLD = 1 << 20

#: every slab segment is named ``repro_fx_<coordinator-tag>_…`` — the
#: teardown sweep and the smoke leak check glob for it.
SLAB_PREFIX = "repro_fx_"


class ShardWorkerDied(RuntimeError):
    """A shard worker process died (or reported a fatal error) and the
    coordinator failed the run with a diagnostic instead of hanging."""


class _ParentDied(Exception):
    """Worker-side: the coordinator process is gone."""


def _slab_dir() -> Path:
    """Memory-backed scratch for exchange slabs (tmp off-Linux)."""
    shm = Path("/dev/shm")
    return shm if shm.is_dir() else Path(tempfile.gettempdir())


def slab_segment_names(tag: str) -> List[str]:
    """Live slab segments for a coordinator tag (tests, leak sweeps)."""
    return sorted(
        p.name for p in _slab_dir().glob(f"{SLAB_PREFIX}{tag}_*")
    )


def _sweep_slabs(tag: str) -> int:
    """Unlink every slab segment with this coordinator tag."""
    removed = 0
    for name in slab_segment_names(tag):
        try:
            (_slab_dir() / name).unlink()
            removed += 1
        except OSError:  # pragma: no cover - teardown race
            pass
    return removed


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _ctrl_recv(ctrl, parent_pid: int):
    """Receive one control message, failing fast if the coordinator
    process disappears (pipe EOF, or reparenting after a SIGKILL that
    never closed our inherited duplicates of the pipe)."""
    while True:
        try:
            if ctrl.poll(0.2):
                return ctrl.recv()
        except (EOFError, BrokenPipeError, OSError):
            raise _ParentDied()
        if os.getppid() != parent_pid:
            raise _ParentDied()


class _ShardReceiver:
    """One layer's inbound side: dedup-and-accumulate owned chunks."""

    def __init__(self, builder: _LayerBuilder, window: _SearchState,
                 my_index: int):
        self.builder = builder
        self.window = window
        self.my_index = my_index
        self.received_local = 0
        self.received_remote = 0
        self.discarded = 0

    def absorb(self, states: np.ndarray, keys: np.ndarray,
               local: bool) -> None:
        """Dedup one owned chunk against the window + this layer's
        accumulating keys — first occurrence wins, exactly the engine's
        batch discipline — and append the survivors."""
        rows = int(keys.size)
        if local:
            self.received_local += rows
        else:
            self.received_remote += rows
        sel, new_keys = dedup_batch(
            keys, self.window.guard() + self.builder.key_chunks,
            self.window.key_width, in_any,
        )
        if sel.size:
            self.builder.add(states[sel], new_keys, None)
        self.discarded += rows - int(sel.size)

    def absorb_message(self, msg) -> None:
        kind = msg[0]
        if kind == "buf":
            _src, _depth, states, keys = msg[1:]
            self.absorb(states, keys, local=False)
        elif kind == "slab":
            _src, _depth, name, rows, k = msg[1:]
            states, keys = _read_slab(name, rows, k)
            self.absorb(states, keys, local=False)
        else:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unknown exchange message {kind!r}")

    def drain_available(self, data_queue) -> int:
        """Absorb whatever is already queued (non-blocking)."""
        absorbed = 0
        while True:
            try:
                msg = data_queue.get_nowait()
            except queue_mod.Empty:
                return absorbed
            self.absorb_message(msg)
            absorbed += 1


def _write_slab(tag: str, sender: int, seq: int,
                states: np.ndarray, keys: np.ndarray) -> str:
    name = f"{SLAB_PREFIX}{tag}_{sender}_{seq:06d}"
    path = _slab_dir() / name
    tmp = path.with_name(f".{name}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(np.ascontiguousarray(keys, dtype=np.uint64).tobytes())
        fh.write(np.ascontiguousarray(states, dtype=np.uint8).tobytes())
    os.replace(tmp, path)
    return name


def _read_slab(name: str, rows: int, k: int):
    """Consume one slab segment: read, decode, unlink (receiver owns
    the unlink; the coordinator's tag sweep is the crash backstop)."""
    path = _slab_dir() / name
    buf = path.read_bytes()
    keys = np.frombuffer(buf, dtype=np.uint64, count=rows)
    states = np.frombuffer(
        buf, dtype=np.uint8, offset=rows * 8, count=rows * k
    ).reshape(rows, k)
    try:
        path.unlink()
    except OSError:  # pragma: no cover - swept already
        pass
    return states, keys


def _discard_inbound(data_queue) -> None:
    """Teardown: drop queued chunks, unlinking any slab segments so an
    aborted exchange leaves nothing behind."""
    while True:
        try:
            msg = data_queue.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            return
        if msg and msg[0] == "slab":
            try:
                (_slab_dir() / msg[3]).unlink()
            except OSError:
                pass


def _shard_worker_main(graph, index, num_workers, worker_budget,
                       shard_dir, resume, key_seed, slab_threshold,
                       cleanup, slab_tag, ctrl, parent_conns,
                       worker_conns, data_queues):
    """One shard worker: own a key slice, expand/exchange/dedup per
    layer under the coordinator's command pipe.

    ``key_seed`` is the coordinator's — never defaulted here — so
    hash-keyed families (k > 20) place and dedup byte-identically to a
    single-process run with the same seed.
    """
    # A fork inherits every pipe end and the parent's active-run
    # registrations; drop both so (a) control-pipe EOF actually fires
    # when the coordinator dies and (b) this worker's atexit backstop
    # never prunes a sibling's run dir.
    for conn in parent_conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
    for i, conn in enumerate(worker_conns):
        if i != index:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
    reset_active_runs_after_fork()
    parent_pid = os.getppid()
    run: Optional[FrontierRunDir] = None
    my_queue = data_queues[index]
    try:
        k = graph.k
        columns = generator_columns(graph)
        degree = len(columns)
        key_fn, _exact = make_key_fn(k, key_seed)
        undirected = graph.is_undirectable()
        chunk = chunk_rows(worker_budget, k, degree, False)
        spill_threshold = max(4096, worker_budget // 4)
        slab_seq = 0

        if shard_dir is not None:
            digest = store_digest(graph)
            if resume:
                run = FrontierRunDir.resume(shard_dir, digest)
            else:
                run = FrontierRunDir.create(shard_dir, digest, meta={
                    "network": graph.name, "k": k, "shard": index,
                    "workers": num_workers, "key_seed": key_seed,
                })

        window = _SearchState(
            key_fn=key_fn, undirected=undirected, degree=degree,
            track_first_hop=False, key_width=key_bits(k),
        )
        empty_keys = np.empty(0, dtype=np.uint64)

        if resume and run is not None:
            ctrl.send(("ready", [int(e["size"]) for e in run.layers],
                       run.complete))
        else:
            # Seed depth 0: only the identity key's owner holds it.
            root = identity_state(k)
            root_keys = np.sort(key_fn(root))
            mine = int(owner_of(root_keys, num_workers)[0]) == index
            window.frontier = _RamLayer([root] if mine else [], None)
            window.load_window(
                0, lambda d: root_keys if mine else empty_keys
            )
            if run is not None:
                if mine:
                    names = run.write_segment(0, 0, root, None)
                    run.commit_layer(0, 1, names, [])
                else:
                    run.commit_layer(0, 0, [], [])
                window.frontier = _DiskLayer(run, 0, False)
            ctrl.send(("ready", [1 if mine else 0], False))

        pending = None  # (depth_of_next_layer, builder, receiver)

        def layer_keys(d: int) -> np.ndarray:
            parts = [key_fn(seg) for seg in run.load_layer(d)]
            if not parts:
                return empty_keys
            return np.sort(np.concatenate(parts))

        while True:
            cmd = _ctrl_recv(ctrl, parent_pid)
            op = cmd[0]
            if op == "restore":
                # Rewind to the last layer every worker journaled,
                # then rebuild the in-RAM window from our journal.
                num_layers = cmd[1]
                run.truncate(num_layers)
                depth = num_layers - 1
                window.frontier = _DiskLayer(run, depth, False)
                window.load_window(depth, layer_keys)
                ctrl.send(("restored", depth))
            elif op == "expand":
                depth = cmd[1]
                builder = _LayerBuilder(
                    run=run, depth=depth + 1,
                    threshold=spill_threshold, track_tags=False,
                )
                receiver = _ShardReceiver(builder, window, index)
                pending = (depth + 1, builder, receiver)
                sent = [0] * num_workers
                shipped_bytes = 0
                pipe_chunks = 0
                slab_chunks = 0
                batches = 0
                candidates = 0
                for states, _tags in window.frontier.pieces(chunk):
                    cand = expand_states(states, columns)
                    keys = key_fn(cand)
                    buckets, _owners = partition_by_owner(
                        keys, num_workers
                    )
                    for w in range(num_workers):
                        idx = buckets[w]
                        if not idx.size:
                            continue
                        sent[w] += int(idx.size)
                        if w == index:
                            receiver.absorb(
                                cand[idx], keys[idx], local=True
                            )
                            continue
                        nbytes = int(idx.size) * (k + 8)
                        shipped_bytes += nbytes
                        if nbytes >= slab_threshold:
                            name = _write_slab(
                                slab_tag, index, slab_seq,
                                cand[idx], keys[idx],
                            )
                            slab_seq += 1
                            slab_chunks += 1
                            data_queues[w].put(
                                ("slab", index, depth + 1, name,
                                 int(idx.size), k)
                            )
                        else:
                            pipe_chunks += 1
                            data_queues[w].put(
                                ("buf", index, depth + 1,
                                 np.ascontiguousarray(cand[idx]),
                                 np.ascontiguousarray(keys[idx]))
                            )
                    batches += 1
                    candidates += int(keys.size)
                    # absorb whatever peers have already shipped so the
                    # queue never accumulates a whole layer
                    receiver.drain_available(my_queue)
                ctrl.send(("sent", depth, sent, shipped_bytes,
                           pipe_chunks, slab_chunks, batches,
                           candidates))
            elif op == "drain":
                depth, expect_remote = cmd[1], cmd[2]
                new_depth, builder, receiver = pending
                assert new_depth == depth + 1
                while receiver.received_remote < expect_remote:
                    try:
                        msg = my_queue.get(timeout=0.1)
                    except queue_mod.Empty:
                        if os.getppid() != parent_pid:
                            raise _ParentDied()
                        continue
                    receiver.absorb_message(msg)
                size = builder.size
                window.frontier.discard()
                ram_states, _ = builder.seal()
                if run is not None:
                    run.commit_layer(
                        depth + 1, size, builder.segment_names, []
                    )
                    window.frontier = _DiskLayer(run, depth + 1, False)
                else:
                    window.frontier = _RamLayer(ram_states, None)
                window.rotate(builder.merged_keys())
                ctrl.send((
                    "layer", depth + 1, size,
                    receiver.received_local + receiver.received_remote,
                    receiver.discarded, builder.spilled_bytes,
                    len(builder.segment_names),
                ))
                pending = None
            elif op == "finish":
                if run is not None:
                    run.finish(cleanup=cleanup)
                ctrl.send(("bye", index))
                return
            elif op == "abort":
                if run is not None:
                    run.abandon()  # keep journaled layers for resume
                ctrl.send(("bye", index))
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown command {op!r}")
    except _ParentDied:
        # Coordinator is gone: scrub un-journaled segments + queued
        # slabs, keep journaled layers for --resume, and go quietly.
        if run is not None:
            run.abandon()
        _discard_inbound(my_queue)
        my_queue.cancel_join_thread()
        os._exit(0)
    except BaseException as exc:
        try:
            ctrl.send(("error", index,
                       f"{type(exc).__name__}: {exc}",
                       traceback.format_exc()))
        except (OSError, BrokenPipeError):  # pragma: no cover
            pass
        if run is not None:
            run.abandon()
        _discard_inbound(my_queue)
        my_queue.cancel_join_thread()
        os._exit(1)
    finally:
        for q in data_queues:
            q.cancel_join_thread()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


class ShardedFrontierBFS:
    """Owner-computes parallel frontier BFS across worker processes.

    Parameters mirror :class:`~repro.frontier.engine.FrontierBFS`
    where they share meaning; the differences:

    workers:
        shard process count ``W``.  Each worker's working set targets
        ``memory_budget_bytes / W``, so the *total* footprint honours
        the budget like the single-process engine does.
    spill_dir:
        run root: ``coordinator.json`` plus one crash-resumable
        ``shard-{i}/`` run dir per worker.  ``resume`` restarts at the
        last layer every worker journaled; the worker count and
        ``key_seed`` must match the original run (ownership and
        hash-keyed dedup depend on both).
    key_seed:
        seed for the k > 20 hashed key path, threaded verbatim into
        every worker — a sharded run and a single-process run with the
        same seed dedup the same key stream.
    slab_threshold:
        exchange chunks at or above this many bytes travel as named
        memory-backed slab segments instead of queue pickles.
    on_layer:
        coordinator-side callback ``(depth, global_size)`` after each
        merged layer.

    ``track_first_hop`` / ``keep_layers`` are deliberately absent:
    within-layer discovery order is arrival order under sharding, so
    those order-dependent artifacts stay single-process.
    """

    def __init__(
        self,
        graph,
        workers: int = 2,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        spill_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        key_seed: int = 0,
        slab_threshold: int = DEFAULT_SLAB_THRESHOLD,
        on_layer: Optional[Callable[[int, int], None]] = None,
        cleanup: bool = True,
        max_depth: Optional[int] = None,
    ):
        if graph.k > 255:
            raise ValueError("uint8 state encoding requires k <= 255")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if resume and spill_dir is None:
            raise ValueError("resume requires a spill_dir")
        self.graph = graph
        self.workers = int(workers)
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.resume = resume
        self.key_seed = key_seed
        self.slab_threshold = int(slab_threshold)
        self.on_layer = on_layer
        self.cleanup = cleanup
        self.max_depth = max_depth
        #: populated by :meth:`run` right after spawn — test hooks
        #: (e.g. the smoke's kill-one-worker scenario) read it.
        self.worker_pids: List[int] = []
        self._procs: List[multiprocessing.Process] = []
        self._conns: List = []
        self._queues: List = []
        self._slab_tag = ""

    # -- public API -----------------------------------------------------

    def run(self) -> FrontierResult:
        graph = self.graph
        k = graph.k
        W = self.workers
        worker_budget = max(1 << 16, self.memory_budget_bytes // W)
        _key_fn, exact = make_key_fn(k, self.key_seed)
        undirected = graph.is_undirectable()
        degree = len(graph.generators)
        started = time.perf_counter()
        registry = get_registry()
        result = FrontierResult(
            network=graph.name, k=k, layer_sizes=[], num_states=0,
            diameter=0, batches=0, candidates=0,
            memory_budget_bytes=self.memory_budget_bytes,
            chunk_rows=chunk_rows(worker_budget, k, degree, False),
            exact_keys=exact, undirected=undirected, workers=W,
            exchange={
                "sent_rows": 0, "received_rows": 0, "deduped_in": 0,
                "discarded": 0, "shipped_bytes": 0, "pipe_chunks": 0,
                "slab_chunks": 0, "closed": True,
            },
        )
        with get_tracer().span(
            "frontier.sharded", network=graph.name, k=k, workers=W,
            budget=self.memory_budget_bytes,
        ) as span:
            self._slab_tag = str(os.getpid())
            self._prepare_spill_root()
            self._spawn(worker_budget)
            try:
                depth = self._handshake(result)
                self._layer_loop(depth, result, registry)
            except BaseException:
                self._teardown(abort=True)
                raise
            self._teardown(abort=False)
            if self.cleanup and self.spill_dir is not None:
                shutil.rmtree(self.spill_dir, ignore_errors=True)
            elif self.spill_dir is not None:
                result.run_dir = str(self.spill_dir)
            result.diameter = len(result.layer_sizes) - 1
            result.elapsed_seconds = time.perf_counter() - started
            span.set(depth=result.diameter, states=result.num_states,
                     exchanged=result.exchange["shipped_bytes"])
        return result

    # -- setup ----------------------------------------------------------

    def _prepare_spill_root(self) -> None:
        if self.spill_dir is None:
            return
        digest = store_digest(self.graph)
        meta_path = self.spill_dir / COORDINATOR_META
        if self.resume:
            if not meta_path.exists():
                raise SpillError(
                    f"no sharded-run metadata at {meta_path}"
                )
            try:
                meta = json.loads(meta_path.read_text())
            except ValueError as exc:
                raise SpillError(
                    f"corrupt coordinator metadata: {exc}"
                ) from exc
            if meta.get("format") != COORDINATOR_FORMAT:
                raise SpillError(
                    f"unsupported coordinator format "
                    f"{meta.get('format')!r}"
                )
            if meta.get("graph_digest") != digest:
                raise SpillError(
                    f"sharded run at {self.spill_dir} is for another "
                    f"graph ({meta.get('graph_digest')!r})"
                )
            if int(meta.get("workers", -1)) != self.workers:
                raise SpillError(
                    f"sharded run was journaled with "
                    f"{meta.get('workers')} workers; key ownership "
                    f"is worker-count-dependent, so resume with "
                    f"--workers {meta.get('workers')}"
                )
            if int(meta.get("key_seed", 0)) != int(self.key_seed):
                raise SpillError(
                    f"sharded run was journaled with key_seed="
                    f"{meta.get('key_seed')}; resuming with a "
                    f"different seed would re-key the dedup window"
                )
            # the killed coordinator never got to sweep its slab
            # segments; do it for it, then claim the run for our tag
            old_tag = str(meta.get("slab_tag", ""))
            if old_tag and old_tag != self._slab_tag:
                _sweep_slabs(old_tag)
            meta["slab_tag"] = self._slab_tag
            self._write_meta(meta_path, meta)
            return
        if self.spill_dir.exists():
            shutil.rmtree(self.spill_dir)
        self.spill_dir.mkdir(parents=True)
        self._write_meta(meta_path, {
            "format": COORDINATOR_FORMAT,
            "graph_digest": digest,
            "network": self.graph.name,
            "k": self.graph.k,
            "workers": self.workers,
            "key_seed": int(self.key_seed),
            "memory_budget_bytes": self.memory_budget_bytes,
            "slab_tag": self._slab_tag,
        })

    def _write_meta(self, meta_path: Path, meta: dict) -> None:
        tmp = meta_path.with_name(
            f".{COORDINATOR_META}.tmp{os.getpid()}"
        )
        tmp.write_text(json.dumps(meta, indent=1))
        os.replace(tmp, meta_path)

    def _spawn(self, worker_budget: int) -> None:
        ctx = multiprocessing.get_context()
        parent_conns, worker_conns = [], []
        for _ in range(self.workers):
            parent_end, worker_end = ctx.Pipe(duplex=True)
            parent_conns.append(parent_end)
            worker_conns.append(worker_end)
        self._queues = [ctx.Queue() for _ in range(self.workers)]
        self._conns = parent_conns
        self._procs = []
        for i in range(self.workers):
            shard_dir = (
                str(self.spill_dir / f"shard-{i}")
                if self.spill_dir is not None else None
            )
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(
                    self.graph, i, self.workers, worker_budget,
                    shard_dir, self.resume, self.key_seed,
                    self.slab_threshold, self.cleanup, self._slab_tag,
                    worker_conns[i], parent_conns, worker_conns,
                    self._queues,
                ),
                daemon=True,
                name=f"repro-frontier-shard-{i}",
            )
            proc.start()
            self._procs.append(proc)
        self.worker_pids = [p.pid for p in self._procs]
        # the workers hold their ends now; keeping ours open would
        # defeat their EOF-based coordinator-death detection
        for conn in worker_conns:
            conn.close()

    # -- protocol -------------------------------------------------------

    def _collect(self, kind: str, depth,
                 times: Optional[Dict[int, float]] = None
                 ) -> Dict[int, tuple]:
        """One message of ``kind`` from every worker, or
        :class:`ShardWorkerDied` the moment any worker stops being
        able to send one.  ``times`` (when given) records each
        worker's arrival timestamp — the barrier-wait measurement."""
        pending = set(range(self.workers))
        out: Dict[int, tuple] = {}
        while pending:
            waitables = [self._conns[i] for i in pending] + [
                self._procs[i].sentinel for i in pending
            ]
            ready = set(conn_wait(waitables, timeout=1.0))
            for i in sorted(pending):
                conn = self._conns[i]
                if conn in ready or conn.poll(0):
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        self._died(i, kind, depth)
                    if msg[0] == "error":
                        raise ShardWorkerDied(
                            f"shard {i} failed while the coordinator "
                            f"awaited {kind!r} (layer {depth}): "
                            f"{msg[2]}\n{msg[3]}"
                        )
                    if msg[0] != kind:  # pragma: no cover
                        raise ShardWorkerDied(
                            f"shard {i} sent {msg[0]!r}, "
                            f"expected {kind!r}"
                        )
                    out[i] = msg
                    pending.discard(i)
                    if times is not None:
                        times[i] = time.perf_counter()
                elif (self._procs[i].sentinel in ready
                        and not self._procs[i].is_alive()):
                    if conn.poll(0):
                        continue  # it left a message; read next pass
                    self._died(i, kind, depth)
        return out

    def _died(self, i: int, kind: str, depth) -> None:
        exitcode = self._procs[i].exitcode
        raise ShardWorkerDied(
            f"shard worker {i}/{self.workers} died "
            f"(exit {exitcode}) while the coordinator awaited "
            f"{kind!r} for layer {depth} of {self.graph.name}"
        )

    def _broadcast(self, msg) -> None:
        for conn in self._conns:
            try:
                conn.send(msg)
            except (OSError, BrokenPipeError):
                pass  # the dead worker is reported at collect time

    def _handshake(self, result: FrontierResult) -> int:
        """Seed (or restore) every worker; returns the current depth."""
        readies = self._collect("ready", "seed")
        if self.resume:
            if all(msg[2] for msg in readies.values()):
                raise SpillError(
                    f"sharded run at {self.spill_dir} already "
                    "completed — nothing to resume"
                )
            num_layers = min(
                len(msg[1]) for msg in readies.values()
            )
            global_sizes = [
                sum(msg[1][d] for msg in readies.values())
                for d in range(num_layers)
            ]
            # A coordinator killed after the final (empty) barrier can
            # leave every shard with a journaled empty layer; resuming
            # that verbatim would append a spurious 0 to the profile.
            while global_sizes and global_sizes[-1] == 0:
                global_sizes.pop()
            num_layers = len(global_sizes)
            if num_layers < 1:
                raise SpillError(
                    f"sharded run at {self.spill_dir} has a shard "
                    "with no journaled layers — cannot resume"
                )
            self._broadcast(("restore", num_layers))
            self._collect("restored", num_layers - 1)
            for size in global_sizes:
                result.layer_sizes.append(size)
                result.num_states += size
            result.resumed_from = num_layers - 1
            return num_layers - 1
        layer0 = sum(msg[1][0] for msg in readies.values())
        if layer0 != 1:  # pragma: no cover - ownership bug trap
            raise RuntimeError(
                f"identity seeded on {layer0} workers, expected 1"
            )
        result.layer_sizes.append(1)
        result.num_states += 1
        if self.spill_dir is not None:
            result.spill_segments += 1  # the identity's seed segment
        if self.on_layer is not None:
            self.on_layer(0, 1)
        return 0

    def _layer_loop(self, depth: int, result: FrontierResult,
                    registry) -> None:
        W = self.workers
        net = self.graph.name
        acc = result.exchange
        width_gauge = registry.gauge("frontier.layer_width")
        rows_counter = registry.counter("frontier.shard.rows")
        bytes_counter = registry.counter("frontier.shard.exchange_bytes")
        xrows_counter = registry.counter("frontier.shard.exchange_rows")
        barrier_hist = registry.histogram(
            "frontier.shard.barrier_wait_seconds"
        )
        registry.gauge("frontier.shard.workers").set(W, network=net)

        while True:
            self._broadcast(("expand", depth))
            sents = self._collect("sent", depth)
            sent_matrix = [sents[i][2] for i in range(W)]
            layer_sent = sum(sum(row) for row in sent_matrix)
            for i in range(W):
                _, _, _, shipped, pipe_chunks, slab_chunks, batches, \
                    candidates = sents[i]
                result.batches += batches
                result.candidates += candidates
                acc["shipped_bytes"] += shipped
                acc["pipe_chunks"] += pipe_chunks
                acc["slab_chunks"] += slab_chunks
                bytes_counter.inc(shipped, network=net, shard=str(i))
            for j in range(W):
                expect_remote = sum(
                    sent_matrix[i][j] for i in range(W) if i != j
                )
                try:
                    self._conns[j].send(("drain", depth, expect_remote))
                except (OSError, BrokenPipeError):
                    self._died(j, "drain", depth)
            arrived: Dict[int, float] = {}
            layers = self._collect("layer", depth + 1, times=arrived)
            last = max(arrived.values())
            size = 0
            layer_received = 0
            layer_discarded = 0
            for i in range(W):
                _, _, accepted, received, discarded, spilled, \
                    segments = layers[i]
                size += accepted
                layer_received += received
                layer_discarded += discarded
                result.spilled_bytes += spilled
                result.spill_segments += segments
                rows_counter.inc(accepted, network=net, shard=str(i))
                barrier_hist.observe(
                    last - arrived[i], network=net, shard=str(i)
                )
            acc["sent_rows"] += layer_sent
            acc["received_rows"] += layer_received
            acc["deduped_in"] += size
            acc["discarded"] += layer_discarded
            xrows_counter.inc(layer_sent, network=net, kind="sent")
            xrows_counter.inc(layer_received, network=net,
                              kind="received")
            xrows_counter.inc(size, network=net, kind="deduped_in")
            xrows_counter.inc(layer_discarded, network=net,
                              kind="discarded")
            if layer_sent != layer_received or \
                    layer_received != size + layer_discarded:
                acc["closed"] = False
                raise RuntimeError(
                    f"exchange accounting broke at layer {depth + 1}: "
                    f"sent {layer_sent} != received {layer_received} "
                    f"or received != deduped-in {size} + discarded "
                    f"{layer_discarded}"
                )
            if size == 0:
                return
            check_state_count(result.num_states + size, self.graph.k, net)
            depth += 1
            result.layer_sizes.append(size)
            result.num_states += size
            width_gauge.set(size, network=net, depth=str(depth))
            if self.on_layer is not None:
                self.on_layer(depth, size)
            if self.max_depth is not None and depth >= self.max_depth:
                result.truncated = True
                return

    # -- teardown -------------------------------------------------------

    def _teardown(self, abort: bool) -> None:
        self._broadcast(("abort",) if abort else ("finish",))
        try:
            if not abort:
                self._collect("bye", "finish")
        except ShardWorkerDied:
            pass  # already tearing down; death here is just noise
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for q in self._queues:
            _discard_inbound(q)
            q.close()
            q.cancel_join_thread()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._slab_tag:
            _sweep_slabs(self._slab_tag)
        self._procs, self._conns, self._queues = [], [], []
