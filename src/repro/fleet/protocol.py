"""The fleet wire protocol: length-prefixed JSON frames over a socket.

Every message between a coordinator and a worker is one *frame*: a
4-byte big-endian unsigned length followed by that many bytes of
UTF-8 JSON encoding a dict with at least a ``"type"`` key.  Every
worker speaks it over TCP — a ``repro fleet join`` across machines or
a :func:`~repro.fleet.worker.worker_main` thread over loopback — so
there is exactly one protocol to test and one place
(:func:`recv_message`) where hostile bytes are handled.

Robustness contract (pinned by the protocol fuzz tests): a peer that
sends garbage — a truncated header, a length prefix pointing past EOF,
an absurd length, non-JSON bytes, JSON that is not an object, an
object without a ``type`` — produces a :class:`ProtocolError` in the
reader, never an unhandled crash.  A clean EOF *between* frames reads
as ``None`` (the peer hung up), which is how worker death is detected.

Message vocabulary (informal; unknown types are rejected by the
coordinator, tolerated-and-ignored by workers for forward compat):

worker -> coordinator
    ``hello``        {worker, protocol,   introduce + version check
                      reconnects?}        (reconnects: sessions this
                                          worker lost before this one)
    ``request``      {}                   ask for a chunk lease
    ``record``       {chunk, record}      one finished scenario record
    ``chunk_done``   {chunk}              lease completed
    ``chunk_error``  {chunk, error}       lease failed outside scenario
                                          isolation (re-queued)
    ``heartbeat``    {stats?, metrics?}   lease keep-alive; optionally
                                          carries progress counters and
                                          a metrics registry snapshot
                                          (see :mod:`repro.obs`) — both
                                          type-guarded, never trusted
    ``status``       {}                   snapshot request (monitoring
                                          clients send this without hello)
    ``bye``          {}                   clean goodbye

coordinator -> worker
    ``welcome``      {worker, chunks}     hello accepted (worker id may
                                          have been uniquified)
    ``chunk``        {chunk, specs}       a lease: run these spec dicts
    ``wait``         {seconds}            nothing leasable now; poll again
    ``done``         {}                   every chunk is finished
    ``status_reply`` {status}             snapshot
    ``error``        {message}            protocol violation (then close)
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from repro.core.errors import SimulationError

#: Bumped on any incompatible change to the message vocabulary.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload.  A record for even a huge
#: scenario is a few hundred KB; anything near this limit is a corrupt
#: or hostile length prefix, not data.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(SimulationError):
    """The peer sent bytes that are not a well-formed fleet frame."""


class ConnectionClosed(ProtocolError):
    """The peer vanished mid-conversation: EOF inside a frame, or a
    hangup where a reply was owed.

    Distinguished from the base class because the two call for
    different reactions: a :class:`ProtocolError` proper is a semantic
    rejection (version mismatch, malformed message) that a retry would
    only repeat, while a :class:`ConnectionClosed` is the network (or
    the peer's process) dying — exactly what a worker's
    reconnect-with-backoff loop is for.
    """


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message -> its wire bytes (header + canonical JSON)."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Frame payload bytes -> validated message dict."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload is {type(message).__name__}, expected object")
    if not isinstance(message.get("type"), str):
        raise ProtocolError("frame payload has no string 'type' field")
    return message


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on EOF *before* the first
    byte, :class:`ProtocolError` on EOF in the middle (a torn frame)."""
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 16))
        except (ConnectionResetError, BrokenPipeError):
            chunk = b""
        if not chunk:
            if remaining == count:
                return None
            raise ConnectionClosed(
                f"connection closed mid-frame ({count - remaining}/{count} "
                f"bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket,
                 max_bytes: int = MAX_FRAME_BYTES) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF, :class:`ProtocolError`
    on anything malformed.  This is the single choke point where bytes
    from the network become trusted structure."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"frame length {length} exceeds the {max_bytes}-byte limit "
            f"(corrupt or hostile header)")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionClosed("connection closed between header and payload")
    return decode_payload(payload)


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one frame (callers serialize concurrent senders)."""
    sock.sendall(encode_frame(message))


def parse_address(raw: str) -> "tuple[str, int]":
    """``host:port`` -> (host, port); the CLI's address syntax."""
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"bad fleet address {raw!r}; expected host:port")
    try:
        number = int(port)
    except ValueError:
        raise ProtocolError(
            f"bad fleet address {raw!r}; port must be an integer") from None
    if not 1 <= number <= 65535:
        # getaddrinfo would wrap it (70000 dials 4464), not refuse it.
        raise ProtocolError(
            f"bad fleet address {raw!r}; port must be in 1..65535")
    return host, number
