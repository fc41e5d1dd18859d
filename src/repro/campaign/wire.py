"""Length-prefixed message framing for the distributed worker pool.

The coordinator (:class:`~repro.campaign.pool.PoolBackend`) and its
``repro worker`` processes speak pickled Python tuples over TCP, each
frame prefixed with a 4-byte big-endian length. Everything is stdlib:
no external wire dependencies, and the payloads are the picklable
point payloads of :meth:`~repro.core.suite.MicroBenchmarkSuite.\
point_payload`. Workers a coordinator forks, the local backend's
too, speak it over a socket pair instead of TCP.

Message vocabulary (first tuple element is the type tag):

* ``("hello", {"worker": id, "pid": pid})`` — worker → coordinator,
  once, immediately after connecting.
* ``("unit", token, index, dispatch0, heartbeat_secs, payload)`` —
  coordinator → worker: simulate one point-unit representative.
  ``token`` uniquely identifies the dispatch (stale results are
  dropped); ``dispatch0`` is the zero-based count of prior dispatches
  of this unit (retries *and* reassignments), fed to the chaos hooks.
* ``("heartbeat", token)`` — worker → coordinator, every
  ``heartbeat_secs`` while simulating; renews the unit's lease.
* ``("ok", token, result)`` / ``("error", token, message, traceback)``
  — worker → coordinator: the unit's outcome.
* ``("shutdown",)`` — coordinator → worker: drain and exit.

The coordinator's decoder refuses any other frame: one that does not
unpickle (say, a result whose class the coordinator cannot import),
or that is not a tuple whose tag is above with that tag's length. The
coordinator drops the worker that sent it, as it drops a dead one, and
does the same for an ``ok`` result that is not a ``SimJobResult`` or
an ``error`` whose message is not text.

Trust model: the protocol uses :mod:`pickle`, so a worker endpoint
must only be exposed on trusted networks (localhost, an SSH tunnel, or
a private cluster fabric) — the same trust the paper's Hadoop clusters
place in their interconnect. ``docs/DISTRIBUTED.md`` spells this out.
"""

from __future__ import annotations

import pickle
import reprlib
import struct
from typing import Iterator, List

#: 4-byte big-endian frame length prefix.
HEADER = struct.Struct(">I")

#: Upper bound on one frame (corrupt/hostile length guard).
MAX_FRAME_BYTES = 256 * 1024 * 1024

MSG_HELLO = "hello"
MSG_UNIT = "unit"
MSG_HEARTBEAT = "heartbeat"
MSG_OK = "ok"
MSG_ERROR = "error"
MSG_SHUTDOWN = "shutdown"

#: Every message tag and the length of its tuple.
ARITY = {MSG_HELLO: 2, MSG_UNIT: 6, MSG_HEARTBEAT: 2, MSG_OK: 3,
         MSG_ERROR: 4, MSG_SHUTDOWN: 1}


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF mid-protocol)."""


class FrameError(ValueError):
    """A frame violated the protocol (bad length, pickle or message)."""


def encode_message(message: object) -> bytes:
    """One message as a length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - absurd size
        raise FrameError(f"frame of {len(payload)} bytes exceeds "
                         f"{MAX_FRAME_BYTES}")
    return HEADER.pack(len(payload)) + payload


def send_message(sock, message: object) -> None:
    """Frame and send one message over a (blocking) socket."""
    sock.sendall(encode_message(message))


def _recv_exact(sock, count: int) -> bytes:
    """Read exactly ``count`` bytes; raise ConnectionClosed on EOF."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock) -> object:
    """Blocking-read one framed message (the worker's receive path)."""
    (length,) = HEADER.unpack(_recv_exact(sock, HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds "
                         f"{MAX_FRAME_BYTES}")
    try:
        return pickle.loads(_recv_exact(sock, length))
    except pickle.UnpicklingError as exc:  # pragma: no cover - corrupt peer
        raise FrameError(f"undecodable frame: {exc}") from exc


class FrameDecoder:
    """Incremental decoder for the coordinator's event-driven reads.

    The coordinator feeds whatever ``recv`` returned; :meth:`drain`
    yields every complete message and buffers the tail of a partial
    frame — so a slow or silent peer can never block the event loop
    mid-frame. A frame that is not a message of the vocabulary raises
    :class:`FrameError`.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        """Append raw bytes from the socket."""
        self._buffer.extend(data)

    def drain(self) -> Iterator[tuple]:
        """Yield every complete message currently buffered."""
        while True:
            if len(self._buffer) < HEADER.size:
                return
            (length,) = HEADER.unpack(bytes(self._buffer[:HEADER.size]))
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"frame of {length} bytes exceeds "
                                 f"{MAX_FRAME_BYTES}")
            end = HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[HEADER.size:end])
            del self._buffer[:end]
            try:
                message = pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001 - any decode failure
                raise FrameError(f"undecodable frame: "
                                 f"{type(exc).__name__}: {exc}") from exc
            if not (isinstance(message, tuple) and message
                    and isinstance(message[0], str)
                    and ARITY.get(message[0]) == len(message)):
                raise FrameError(
                    f"not a protocol message: {reprlib.repr(message)}")
            yield message
