"""Wire framing: newline-JSON and the length-prefixed binary protocol.

The serving stack speaks two protocols on the same port, told apart by
the first byte of each message:

* ``{`` (or whitespace) — one newline-delimited JSON request per line,
  the original protocol (docs/serving.md);
* :data:`MAGIC` (``0xC5``) — one length-prefixed binary frame.

A binary frame is a fixed :data:`HEADER` followed by a small JSON
header blob and an optional binary column payload::

    0      magic byte (0xC5)
    1      protocol version (1)
    2      op code (OP_*)
    3      flags (FLAG_*)
    4-11   request id (u64, little-endian; FLAG_HAS_ID)
    12-15  header length (u32)
    16-19  payload length (u32)
    20..   header JSON (utf-8), then payload bytes

For the hot ops the payload carries numpy-decodable columns:

* **distance / route requests** (``OP_DISTANCE`` / ``OP_ROUTE`` with
  ``FLAG_COLUMNS``): the header JSON is ``{"network": spec, "m": m,
  "k": k}`` and the payload is two ``(m, k)`` uint8 symbol matrices
  (sources then targets, symbol values ``1..k``) — a 20k-pair batch
  decodes in one ``frombuffer`` pass straight into the engine's array
  kernels, no per-request dict parsing;
* **distance responses** (``FLAG_COLUMNS``): the payload is the
  ``int32`` distance vector.

Everything else — other ops, error responses, admin ops — rides as
plain JSON in the frame header (``OP_GENERIC`` or the op's code with no
``FLAG_COLUMNS``), so the binary protocol is a strict superset: any
JSON request can be wrapped in a frame and decodes to the identical
request dict.

The module also owns the wire's *size discipline*:

* :data:`WIRE_LIMIT` is the explicit ``limit=`` every
  ``asyncio.start_server`` / ``open_connection`` in the stack passes —
  asyncio's default 64 KiB StreamReader limit kills a connection with
  ``LimitOverrunError`` on the first few-thousand-pair JSON batch;
* :func:`read_message` sniffs the first byte, reads one complete
  message of either protocol, and *recovers* from over-limit JSON
  lines: the oversized line is consumed through its terminating
  newline and reported as :data:`OVERSIZED` instead of poisoning the
  stream, so the caller can answer with a ``malformed`` error and keep
  the connection (and its accounting) alive.
"""

from __future__ import annotations

import asyncio
import json
import operator
import struct
from typing import Dict, Tuple, Union

import numpy as np

#: explicit StreamReader limit for every stream the serving stack
#: creates (server listeners, router back-end connections, loadgen
#: clients).  asyncio's default is 64 KiB — one ~2k-pair JSON batch.
WIRE_LIMIT = 16 * 1024 * 1024

#: hard ceiling on one binary frame (header + payload); a frame
#: claiming more is hostile or corrupt and the connection is closed
#: (framing cannot be resynchronised past an unread payload).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: first byte of a binary frame.  Must not collide with anything a
#: JSON line can start with (``{``, whitespace, digits, ``"``).
MAGIC = 0xC5

VERSION = 1

#: ``read_message`` marker: an over-limit JSON line was consumed and
#: discarded; answer ``malformed`` and keep reading.
OVERSIZED = object()

HEADER = struct.Struct("<BBBBQII")
HEADER_LEN = HEADER.size  # 20 bytes

OP_GENERIC = 0
OP_DISTANCE = 1
OP_ROUTE = 2
OP_NEIGHBORS = 3
OP_EMBEDDING = 4
OP_PROPERTIES = 5
OP_STATS = 6
OP_METRICS = 7

OP_CODES: Dict[str, int] = {
    "distance": OP_DISTANCE,
    "route": OP_ROUTE,
    "neighbors": OP_NEIGHBORS,
    "embedding": OP_EMBEDDING,
    "properties": OP_PROPERTIES,
    "stats": OP_STATS,
    "metrics": OP_METRICS,
}
OP_NAMES: Dict[int, str] = {code: name for name, code in OP_CODES.items()}

FLAG_RESPONSE = 1
FLAG_OK = 2
FLAG_COLUMNS = 4
FLAG_HAS_ID = 8


class WireError(ValueError):
    """A malformed binary frame (bad magic/version/lengths/payload)."""


# ----------------------------------------------------------------------
# Frame encode/decode
# ----------------------------------------------------------------------


def _pack(
    opcode: int,
    flags: int,
    request_id: int,
    header: bytes,
    payload: bytes,
) -> bytes:
    return HEADER.pack(
        MAGIC, VERSION, opcode, flags, request_id,
        len(header), len(payload),
    ) + header + payload


#: C-level accessors for the pairs hot loop (no per-pair genexpr).
_FIRST = operator.itemgetter(0)
_SECOND = operator.itemgetter(1)


def pairs_to_columns(
    pairs, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Two ``(m, k)`` uint8 symbol matrices for a wire-form pair list
    (the client-side encode; digit strings only — the canonical form
    for ``k <= 9``).

    Raises ``TypeError``/``ValueError``/``UnicodeEncodeError`` when the
    pairs are not canonical ``k``-digit strings — this doubles as the
    (vectorised) eligibility check for the column fast path, so callers
    try it and fall back to the JSON path on failure instead of paying
    a per-element scan up front.
    """
    m = len(pairs)
    if m == 0 or sum(map(len, pairs)) != 2 * m:
        raise ValueError("pairs must be [source, target] 2-lists")
    sources = "".join(map(_FIRST, pairs))
    targets = "".join(map(_SECOND, pairs))
    # every node string must be exactly k chars: total length pins the
    # sum, the max pins the spread (a short source + long target could
    # otherwise concatenate to the right total and shear every
    # following row) — all C-level passes, no per-pair bytecode
    if len(sources) != m * k or len(targets) != m * k \
            or max(map(len, map(_FIRST, pairs))) != k \
            or max(map(len, map(_SECOND, pairs))) != k:
        raise ValueError("pairs are not canonical k-digit strings")
    buf = np.frombuffer(
        (sources + targets).encode("ascii"), dtype=np.uint8
    ) - np.uint8(48)
    # non-digit chars (signs, letters, commas) land outside 0..9 after
    # the ASCII shift (wrapping uint8 arithmetic included)
    if not bool((buf <= 9).all()):
        raise ValueError("pairs are not canonical digit strings")
    cols = buf.reshape(2, m, k)
    return cols[0], cols[1]


def columns_to_pairs(s: np.ndarray, t: np.ndarray):
    """Inverse of :func:`pairs_to_columns` — digit-string pair list."""
    return [
        ["".join(str(int(x)) for x in s[i]),
         "".join(str(int(x)) for x in t[i])]
        for i in range(s.shape[0])
    ]


def encode_request(request: Dict[str, object]) -> bytes:
    """One request dict as a binary frame.

    ``distance`` and ``route`` requests whose pairs are canonical
    digit strings ship as symbol columns (``FLAG_COLUMNS``); everything
    else wraps the JSON dict in the frame header.  The request ``id``
    (when present) must be a non-negative integer < 2**64 — it rides in
    the fixed header so proxies can rewrite it without re-encoding.
    """
    request = dict(request)
    flags = 0
    request_id = 0
    rid = request.pop("id", None)
    if rid is not None:
        if not isinstance(rid, int) or not 0 <= rid < 2 ** 64:
            raise WireError(
                f"binary protocol ids must be u64 ints, got {rid!r}"
            )
        flags |= FLAG_HAS_ID
        request_id = rid
    op = request.get("op")
    opcode = OP_CODES.get(op, OP_GENERIC)
    pairs = request.get("pairs")
    network = request.get("network")
    if (
        opcode in (OP_DISTANCE, OP_ROUTE)
        and isinstance(network, dict)
        and isinstance(pairs, list)
        and pairs
        # only the keys the column header carries — anything extra
        # (trace context, algorithm, ts) must ride the JSON path or it
        # would be silently dropped
        and not (set(request) - {"op", "network", "pairs"})
    ):
        try:
            k = len(pairs[0][0])
            s, t = pairs_to_columns(pairs, k)
        except (TypeError, ValueError, UnicodeEncodeError,
                IndexError, KeyError):
            s = t = None
        if s is not None:
            header = json.dumps(
                {"network": network, "m": len(pairs), "k": k}
            ).encode()
            payload = s.tobytes() + t.tobytes()
            return _pack(
                opcode, flags | FLAG_COLUMNS, request_id, header, payload
            )
    header = json.dumps(request).encode()
    return _pack(opcode, flags, request_id, header, b"")


#: memoised coalesced-distance response-header blobs, keyed by network
#: name (see the fast path in :func:`encode_response`).
_RESP_HEADER_MEMO: Dict[str, bytes] = {}


def encode_response(response: Dict[str, object]) -> bytes:
    """One response dict as a binary frame.  ``ok`` distance responses
    ship their distance vector as an ``int32`` column payload."""
    response = dict(response)
    flags = FLAG_RESPONSE
    request_id = 0
    rid = response.pop("id", None)
    if rid is not None and isinstance(rid, int) and 0 <= rid < 2 ** 64:
        flags |= FLAG_HAS_ID
        request_id = rid
    elif rid is not None:
        response["id"] = rid  # non-u64 id: keep it in the JSON header
    if response.get("ok"):
        flags |= FLAG_OK
    opcode = OP_CODES.get(response.get("op"), OP_GENERIC)
    result = response.get("result")
    if (
        opcode == OP_DISTANCE
        and response.get("ok")
        and isinstance(result, dict)
        and isinstance(result.get("distances"), list)
    ):
        header_obj = dict(response)
        header_obj["result"] = {
            k: v for k, v in result.items() if k != "distances"
        }
        payload = np.asarray(
            result["distances"], dtype=np.int32
        ).tobytes()
        # the canonical coalesced-distance shape serialises to the same
        # header blob for every response of a run (id rides the fixed
        # header, distances the payload) — dump each network's blob once
        network = header_obj["result"].get("network")
        if (
            header_obj.get("ok") is True and len(header_obj) == 3
            and len(header_obj["result"]) == 1 and isinstance(network, str)
        ):
            header = _RESP_HEADER_MEMO.get(network)
            if header is None:
                header = json.dumps(header_obj).encode()
                if len(_RESP_HEADER_MEMO) >= _HEADER_MEMO_MAX:
                    _RESP_HEADER_MEMO.clear()
                _RESP_HEADER_MEMO[network] = header
        else:
            header = json.dumps(header_obj).encode()
        return _pack(
            opcode, flags | FLAG_COLUMNS, request_id, header, payload,
        )
    return _pack(
        opcode, flags, request_id, json.dumps(response).encode(), b""
    )


class Frame:
    """One parsed binary frame: fixed-header fields plus the raw bytes
    (kept so proxies can forward without re-encoding)."""

    __slots__ = (
        "opcode", "flags", "request_id", "header_bytes", "payload", "raw",
    )

    def __init__(self, opcode, flags, request_id, header_bytes, payload,
                 raw):
        self.opcode = opcode
        self.flags = flags
        self.request_id = request_id
        self.header_bytes = header_bytes
        self.payload = payload
        self.raw = raw

    @property
    def has_id(self) -> bool:
        return bool(self.flags & FLAG_HAS_ID)

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    def header(self) -> Dict[str, object]:
        try:
            obj = json.loads(self.header_bytes)
        except ValueError as exc:
            raise WireError(f"bad frame header JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise WireError("frame header must be a JSON object")
        return obj

    def with_id(self, request_id: int) -> bytes:
        """The raw frame re-stamped with a different id (fixed offset —
        the proxy fast path; no JSON or payload re-encode)."""
        out = bytearray(self.raw)
        struct.pack_into("<Q", out, 4, request_id)
        out[3] |= FLAG_HAS_ID
        return bytes(out)


def parse_frame(raw: bytes) -> Frame:
    """Split one complete binary frame into its parts."""
    if len(raw) < HEADER_LEN:
        raise WireError(f"truncated frame ({len(raw)} bytes)")
    magic, version, opcode, flags, request_id, header_len, payload_len = \
        HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise WireError(f"bad magic byte 0x{magic:02x}")
    if version != VERSION:
        raise WireError(f"unsupported protocol version {version}")
    if len(raw) != HEADER_LEN + header_len + payload_len:
        raise WireError(
            f"frame length mismatch: header says "
            f"{HEADER_LEN + header_len + payload_len}, got {len(raw)}"
        )
    header_bytes = raw[HEADER_LEN:HEADER_LEN + header_len]
    payload = raw[HEADER_LEN + header_len:]
    return Frame(opcode, flags, request_id, header_bytes, payload, raw)


#: parsed-header memo for column frames.  A pipelined client repeats
#: the identical ``{"network": ..., "m": ..., "k": ...}`` blob on every
#: request of a run, so each distinct blob parses once.  Only column
#: frames may share the parsed dict — it is read-only below, while the
#: non-column path hands its dict to the caller, which stamps op and id
#: into it.
_HEADER_MEMO: Dict[bytes, Dict[str, object]] = {}
_HEADER_MEMO_MAX = 512


def decode_request(frame: Frame) -> Dict[str, object]:
    """A frame back into the request dict the engine understands.

    Column-bearing distance/route frames decode their payload with one
    ``frombuffer`` pass into ``(m, k)`` symbol matrices delivered under
    the ``"symbols"`` key (see :meth:`QueryEngine._op_distance`);
    everything else returns the JSON header verbatim.
    """
    if frame.flags & FLAG_COLUMNS:
        header = _HEADER_MEMO.get(frame.header_bytes)
        if header is None:
            header = frame.header()
            if not isinstance(header, dict):
                raise WireError("bad column header: not a JSON object")
            if len(_HEADER_MEMO) >= _HEADER_MEMO_MAX:
                _HEADER_MEMO.clear()
            _HEADER_MEMO[bytes(frame.header_bytes)] = header
        try:
            m = int(header["m"])
            k = int(header["k"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"bad column header: {exc}") from exc
        if m < 0 or k <= 0 or len(frame.payload) != 2 * m * k:
            raise WireError(
                f"column payload is {len(frame.payload)} bytes, "
                f"expected {2 * m * k} for m={m} k={k}"
            )
        cols = np.frombuffer(frame.payload, dtype=np.uint8) \
            .astype(np.int64).reshape(2, m, k)
        request: Dict[str, object] = {
            "op": OP_NAMES.get(frame.opcode, "distance"),
            "network": header.get("network"),
            "symbols": (cols[0], cols[1]),
        }
    else:
        request = frame.header()
        request.setdefault("op", OP_NAMES.get(frame.opcode))
    if frame.has_id:
        request["id"] = frame.request_id
    return request


def decode_json_request(line: bytes) -> Dict[str, object]:
    """One newline-JSON request line as its request dict.  Raises
    ``ValueError`` when the line is not JSON or not a JSON object."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    return request


def decode_response(frame: Frame) -> Dict[str, object]:
    """A response frame back into the exact dict the JSON protocol
    would have delivered (column distances re-listed)."""
    response = frame.header()
    if frame.flags & FLAG_COLUMNS:
        result = response.get("result")
        if not isinstance(result, dict):
            result = {}
            response["result"] = result
        result["distances"] = np.frombuffer(
            frame.payload, dtype=np.int32
        ).tolist()
    if frame.has_id:
        response["id"] = frame.request_id
    return response


# ----------------------------------------------------------------------
# Stream reading: sniffing + oversized-line recovery
# ----------------------------------------------------------------------


async def read_frame_body(
    reader: asyncio.StreamReader, first: bytes
) -> bytes:
    """The rest of a binary frame whose magic byte was already read.
    Raises :class:`WireError` on an over-ceiling frame (the connection
    cannot be resynchronised) and ``IncompleteReadError`` on EOF."""
    rest = await reader.readexactly(HEADER_LEN - 1)
    fixed = first + rest
    _, version, _, _, _, header_len, payload_len = HEADER.unpack(fixed)
    if version != VERSION:
        raise WireError(f"unsupported protocol version {version}")
    body_len = header_len + payload_len
    if body_len > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {body_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    body = await reader.readexactly(body_len) if body_len else b""
    return fixed + body


async def _discard_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Consume an over-limit line through its terminating newline, so
    the stream stays framed for the next message."""
    while True:
        if consumed:
            await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            return  # EOF mid-discard; caller sees EOF next read


async def read_message(
    reader: asyncio.StreamReader,
) -> Union[bytes, Frame, None, object]:
    """One complete message of either protocol.

    Returns the stripped JSON line as ``bytes``, a parsed binary
    :class:`Frame`, ``None`` on EOF, or :data:`OVERSIZED` after
    consuming (and discarding) a JSON line that overran the stream
    limit — the caller answers ``malformed`` and keeps the connection.
    Raises :class:`WireError` on an unrecoverable binary framing error.
    """
    while True:
        first = await reader.read(1)
        if not first:
            return None
        if first[0] == MAGIC:
            return parse_frame(await read_frame_body(reader, first))
        try:
            line = first + await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = first + exc.partial  # EOF without newline
        except asyncio.LimitOverrunError as exc:
            await _discard_line(reader, exc.consumed)
            return OVERSIZED
        except ValueError:
            # readline()-style wrapping from some asyncio versions
            await _discard_line(reader, 0)
            return OVERSIZED
        if not line.strip():
            continue  # blank line: keep-alive, keep reading
        return line


# ----------------------------------------------------------------------
# Event loop selection (opportunistic uvloop)
# ----------------------------------------------------------------------


def _uvloop():
    try:
        import uvloop
    except ImportError:
        return None
    return uvloop


#: True when uvloop is importable and will back new serving loops.
UVLOOP_AVAILABLE = _uvloop() is not None


def new_event_loop() -> asyncio.AbstractEventLoop:
    """A fresh event loop — uvloop's when importable (2-4x faster
    socket handling), stdlib asyncio's otherwise.  Every serving
    thread (server, router, loadgen) builds its loop here."""
    uvloop = _uvloop()
    if uvloop is not None:
        return uvloop.new_event_loop()
    return asyncio.new_event_loop()


def run(coro):
    """``asyncio.run`` on the best available loop (3.9-compatible)."""
    loop = new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
