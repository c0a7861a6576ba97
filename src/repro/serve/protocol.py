"""Wire protocol of the compile server.

One message = a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON.  Requests are objects with an ``"op"`` field;
responses always carry ``"status": "ok" | "error"``.  The framing is
symmetric, so the same two helpers serve both directions, and length
prefixes make concurrent clients trivial: each connection is a clean
sequence of self-delimiting frames.  A frame whose body is not one JSON
object gets an error response and the connection stays open; a length
prefix above :data:`MAX_FRAME` or a disconnect mid-frame loses the
frame boundary, so the server answers (if it still can) and closes.

Operations
----------

``ping``
    Liveness probe; echoes ``{"status": "ok", "pong": true}``.
``compile``
    ``{op, app, sizes, tile, shape, mapping_dim?}`` — resolve the app
    nest and tiling matrix, then serve the program from (in order) the
    in-process registry, the on-disk artifact cache, or a fresh
    compile.  The response reports ``source`` as ``"memory"``,
    ``"disk"`` or ``"compile"`` plus the content key and program
    constants.
``simulate``
    Same request shape as ``compile``; additionally runs the virtual
    cluster and returns the RunStats fields.
``stats``
    Server counters: requests, compiles, memory/disk hits, plus the
    artifact cache's own hit/miss/store/invalid counts.
``shutdown``
    Acknowledge, then stop the server loop.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Optional

#: Refuse frames above this size (a corrupt length prefix otherwise
#: makes the reader try to allocate gigabytes).
MAX_FRAME = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(ValueError):
    """A frame whose body is not one JSON object."""


class FrameLost(FrameError):
    """A frame whose boundary is lost with it (an oversized length
    prefix, a disconnect mid-frame): nothing after it can be read."""


def _decode(body: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8 / JSON, deep nesting
        raise FrameError(f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"frame is a JSON {type(obj).__name__}")
    return obj


def encode_frame(obj: Dict[str, Any]) -> bytes:
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader
                     ) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF before a length prefix,
    :class:`FrameError` on anything that is not one JSON object."""
    try:
        head = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameLost("connection closed mid-frame") from exc
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME:
        raise FrameLost(f"frame too large: {length} bytes")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameLost("connection closed mid-frame") from exc
    return _decode(body)


async def write_frame(writer: asyncio.StreamWriter,
                      obj: Dict[str, Any]) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


# -- blocking-socket twins for the synchronous client -------------------------


def send_frame_sync(sock: socket.socket, obj: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(obj))


def recv_frame_sync(sock: socket.socket) -> Optional[Dict[str, Any]]:
    head = _recv_exact(sock, _LEN.size)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME:
        raise FrameLost(f"frame too large: {length} bytes")
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionError("connection closed mid-frame")
    return _decode(body)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None  # clean EOF between frames
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
