"""Host-to-host message fabric: length-prefixed descriptor frames.

:mod:`repro.serve.procpool` moves batches between processes on one
host through shared memory — descriptors over a pipe, bytes through
``/dev/shm``.  Spanning *hosts* needs the same descriptor protocol on
an actual wire, so this module defines the frame format and two
interchangeable transports behind one tiny endpoint interface:

* :func:`pack_frame` / :func:`unpack_frame` — one contiguous buffer
  per message: a fixed 16-byte preamble (magic, header length, body
  length), a pickled header ``(op, seq, meta, descriptors)``, then
  every payload array packed back-to-back at 64-byte-aligned offsets.
  One buffer means one ``sendall`` per frame, never a syscall per
  array, and the receive side reconstructs arrays as zero-copy views
  with ``(shape, dtype, offset)`` descriptors validated against the
  body bounds.  Corruption — truncated body, bad magic, an offset or
  dtype that doesn't fit — raises :class:`FrameError` instead of
  yielding garbage arrays.

* :class:`SimEndpoint` (pair via :func:`sim_pair`) — an in-process
  deterministic fabric for tests and virtual-clock replay.  Frames
  travel through queues; byte accounting goes through a
  :class:`~repro.hpc.mpi.SimComm`, so ``comm.bytes_sent`` /
  ``comm.per_pair`` report the same wire totals a real deployment
  would see.

* :class:`SocketEndpoint` — a real TCP-loopback fabric with actual
  wire serialization (``TCP_NODELAY``, so small frames do not sit in
  Nagle buffers).  :func:`listen_loopback` / :func:`connect_loopback`
  / :func:`accept_loopback` carry a shared-secret token handshake so a
  worker child only ever talks to the parent that spawned it.

Failure taxonomy (callers branch on these):

* :class:`FrameError` — the peer sent bytes that do not parse as a
  frame (truncation, corruption).  The stream cannot be trusted past
  this point.
* :class:`FabricClosed` — the peer hung up cleanly at a frame
  boundary, or this endpoint is closed.
* :class:`FabricTimeout` — no complete frame arrived inside the
  caller's deadline; partial bytes stay buffered and the next call
  resumes where this one stopped (the stream stays framed).

Trust boundary: frame headers are pickled, so unpacking a frame
executes the sender's choice of constructors — the fabric is only
safe between mutually trusting endpoints (here: a parent and the
child it spawned, gated by the loopback token handshake).  Do not
point it at an untrusted peer.
"""

from __future__ import annotations

import hmac
import pickle
import secrets
import select
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from .mpi import SimComm

__all__ = [
    "FabricError",
    "FrameError",
    "FabricTimeout",
    "FabricClosed",
    "Frame",
    "layout",
    "view",
    "pack_frame",
    "unpack_frame",
    "SimEndpoint",
    "sim_pair",
    "SocketEndpoint",
    "listen_loopback",
    "connect_loopback",
    "accept_loopback",
]

#: frame magic — version-bearing, so a format bump is a clean reject
MAGIC = b"RFB1"
_PREAMBLE = struct.Struct("<4sIQ")     # magic, header bytes, body bytes
_ALIGN = 64
#: sanity ceilings — a corrupted length field must fail fast, not
#: trigger a multi-gigabyte allocation while we "wait" for the rest
_MAX_HEADER = 1 << 24
_MAX_BODY = 1 << 34
_TOKEN_BYTES = 16


class FabricError(RuntimeError):
    """Base class for transport failures."""


class FrameError(FabricError):
    """The byte stream does not parse as a frame (bad magic, truncated
    body, descriptor out of bounds, unknown dtype).  The connection is
    unrecoverable — framing is lost."""


class FabricTimeout(FabricError):
    """No complete frame within the deadline.  Recoverable: buffered
    partial bytes are kept and the next ``recv_frame`` resumes."""


class FabricClosed(FabricError):
    """The peer closed at a frame boundary, or this endpoint is
    closed."""


# ----------------------------------------------------------------------
# frame format
# ----------------------------------------------------------------------
@dataclass
class Frame:
    """One decoded message: ``arrays`` are zero-copy views into the
    received buffer (read-only when the buffer is immutable bytes)."""

    op: str
    seq: int
    meta: dict
    arrays: List[np.ndarray] = field(default_factory=list)
    nbytes: int = 0


#: one array descriptor: (shape, dtype-str, byte offset into the body)
Desc = Tuple[Tuple[int, ...], str, int]


def layout(arrays: Sequence[np.ndarray]) -> Tuple[List[Desc], int]:
    """Descriptors packing ``arrays`` back-to-back at 64-byte-aligned
    offsets, and the bytes they span — the one descriptor layout both
    the frame body and the shm tier's segments use."""
    descs, offset = [], 0
    for a in arrays:
        descs.append((tuple(a.shape), a.dtype.str, offset))
        offset += -(-a.nbytes // _ALIGN) * _ALIGN
    return descs, offset


def view(buffer, desc: Desc) -> np.ndarray:
    """The array ``desc`` addresses inside ``buffer``, zero-copy.

    Raises :class:`FrameError` when the descriptor does not fit — an
    unknown, object or zero-itemsize dtype, a negative extent, or a
    span that overruns the buffer — rather than yielding garbage."""
    shape, dtype_str, off = desc
    try:
        dt = np.dtype(dtype_str)
    except (TypeError, ValueError) as exc:
        raise FrameError(
            f"descriptor carries unknown dtype {dtype_str!r}") from exc
    if dt.hasobject or dt.itemsize == 0:
        raise FrameError(
            f"descriptor carries non-wire dtype {dtype_str!r} "
            "(object or zero-itemsize)")
    count = 1
    for s in shape:
        s = int(s)
        if s < 0:
            raise FrameError(
                f"descriptor shape {shape} has a negative extent")
        count *= s
    if off < 0 or off + count * dt.itemsize > len(buffer):
        raise FrameError(
            f"descriptor {shape}/{dtype_str}@{off} overruns "
            f"{len(buffer)}-byte body")
    return np.frombuffer(buffer, dtype=dt, count=count,
                         offset=off).reshape(shape)


def pack_frame(op: str, seq: int, meta: Optional[dict] = None,
               arrays: Sequence[np.ndarray] = ()) -> bytes:
    """Encode one message into a single contiguous buffer.

    Arrays are copied once into the body at the offsets :func:`layout`
    assigns and addressed by its descriptors in the pickled header —
    the same descriptor triple the shm tier uses, so the two
    transports speak one protocol.
    """
    contiguous = [np.ascontiguousarray(a) for a in arrays]
    descs, offset = layout(contiguous)
    header = pickle.dumps((op, int(seq), meta or {}, descs),
                          protocol=pickle.HIGHEST_PROTOCOL)
    buf = bytearray(_PREAMBLE.size + len(header) + offset)
    _PREAMBLE.pack_into(buf, 0, MAGIC, len(header), offset)
    base = _PREAMBLE.size
    buf[base:base + len(header)] = header
    base += len(header)
    for a, (_, _, off) in zip(contiguous, descs):
        buf[base + off:base + off + a.nbytes] = a.tobytes()
    return bytes(buf)


def unpack_frame(data: bytes) -> Frame:
    """Decode one frame; raises :class:`FrameError` on any corruption
    (bad magic, length mismatch, descriptor out of bounds, unknown
    dtype) rather than returning garbage arrays."""
    if len(data) < _PREAMBLE.size:
        raise FrameError(
            f"truncated frame: {len(data)} bytes < {_PREAMBLE.size}-byte "
            "preamble")
    magic, header_len, body_len = _PREAMBLE.unpack_from(data, 0)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r} (want {MAGIC!r})")
    if header_len > _MAX_HEADER or body_len > _MAX_BODY:
        raise FrameError(
            f"implausible frame lengths (header={header_len}, "
            f"body={body_len})")
    total = _PREAMBLE.size + header_len + body_len
    if len(data) != total:
        raise FrameError(
            f"truncated frame: have {len(data)} bytes, preamble "
            f"declares {total}")
    try:
        op, seq, meta, descs = pickle.loads(
            data[_PREAMBLE.size:_PREAMBLE.size + header_len])
    except Exception as exc:  # noqa: BLE001 — any unpickle failure
        raise FrameError(f"undecodable frame header: {exc}") from exc
    body = memoryview(data)[_PREAMBLE.size + header_len:total]
    try:
        return Frame(op=str(op), seq=int(seq), meta=dict(meta),
                     arrays=[view(body, d) for d in descs],
                     nbytes=len(data))
    except FrameError:
        raise
    except Exception as exc:  # noqa: BLE001 — the header pickles fine
        # but its contents are garbage (non-triple descriptors,
        # non-integral shapes, non-dict meta, ...): still a frame
        # problem, never an uncaught error in the caller's receive loop
        raise FrameError(f"malformed frame header contents: {exc}") from exc


# ----------------------------------------------------------------------
# simulated fabric (in-process, deterministic)
# ----------------------------------------------------------------------
class SimEndpoint:
    """One side of an in-process frame channel.

    Deterministic and allocation-cheap: frames are handed over as-is
    through a deque guarded by one condition variable per pair.  Byte
    accounting runs through the shared :class:`~repro.hpc.mpi.SimComm`
    so tests can assert wire totals (``comm.bytes_sent``,
    ``comm.per_pair``) exactly as they do for halo exchange.
    """

    def __init__(self, rank: int, comm: SimComm, cond: threading.Condition,
                 inbox: Deque[bytes], outbox: Deque[bytes]):
        self.rank = rank
        self.comm = comm
        self._cond = cond
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False
        self._peer_closed = False
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._peer: Optional["SimEndpoint"] = None

    @property
    def closed(self) -> bool:
        return self._closed

    def send_frame(self, data: bytes) -> None:
        with self._cond:
            if self._closed:
                raise FabricClosed("endpoint is closed")
            if self._peer_closed:
                raise FabricClosed("peer endpoint is closed")
            # account the transfer through SimComm (copies, like a wire)
            delivered = self.comm.sendrecv(
                self.rank, 1 - self.rank,
                np.frombuffer(data, dtype=np.uint8))
            self._outbox.append(delivered.tobytes())
            self.frames_sent += 1
            self.bytes_sent += len(data)
            self._cond.notify_all()

    def recv_frame(self, timeout: Optional[float] = None) -> bytes:
        with self._cond:
            if not self._cond.wait_for(
                    lambda: self._inbox or self._closed or self._peer_closed,
                    timeout=timeout):
                raise FabricTimeout(
                    f"no frame within {timeout}s on sim endpoint")
            if self._inbox:
                data = self._inbox.popleft()
                self.frames_received += 1
                self.bytes_received += len(data)
                return data
            raise FabricClosed("sim endpoint closed")

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if self._peer is not None:
                self._peer._peer_closed = True
            self._cond.notify_all()


def sim_pair(comm: Optional[SimComm] = None
             ) -> Tuple[SimEndpoint, SimEndpoint]:
    """A connected pair of :class:`SimEndpoint`\\ s sharing one
    :class:`~repro.hpc.mpi.SimComm` (rank 0 ↔ rank 1)."""
    comm = comm if comm is not None else SimComm(2)
    cond = threading.Condition()
    a_to_b: Deque[bytes] = deque()
    b_to_a: Deque[bytes] = deque()
    a = SimEndpoint(0, comm, cond, inbox=b_to_a, outbox=a_to_b)
    b = SimEndpoint(1, comm, cond, inbox=a_to_b, outbox=b_to_a)
    a._peer, b._peer = b, a
    return a, b


# ----------------------------------------------------------------------
# socket fabric (real wire, TCP loopback)
# ----------------------------------------------------------------------
class SocketEndpoint:
    """Frame transport over a connected stream socket.

    Receive is resumable: a :class:`FabricTimeout` mid-frame keeps the
    partial bytes in an internal buffer, so short-timeout polling (the
    client's heartbeat ticks, the watchdog's zero-wait poll) never
    loses framing.  A non-positive timeout polls the socket once, so a
    frame already received is returned, as on :class:`SimEndpoint`.
    EOF at a frame boundary is :class:`FabricClosed`; EOF with buffered
    partial bytes is a :class:`FrameError` (the peer died mid-send).

    Receive deadlines are implemented with :func:`select.select`, not
    ``settimeout`` — the socket itself stays fully blocking, so a
    concurrent ``send_frame`` from another thread (a multi-MB frame
    while the peer is mid-compute and not draining) blocks until the
    kernel buffer frees instead of inheriting a ~0.02–0.2 s polling
    timeout and spuriously declaring the peer dead.
    """

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)      # sends must block, never poll-timeout
        self._sock = sock
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self._closed = False
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def send_frame(self, data: bytes) -> None:
        with self._send_lock:
            if self._closed:
                raise FabricClosed("endpoint is closed")
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise FabricClosed(f"send failed: {exc}") from exc
            self.frames_sent += 1
            self.bytes_sent += len(data)

    def recv_frame(self, timeout: Optional[float] = None) -> bytes:
        deadline = None if timeout is None else \
            time.perf_counter() + timeout
        while True:
            frame = self._try_extract()
            if frame is not None:
                return frame
            if self._closed:
                raise FabricClosed("endpoint is closed")
            # a spent (or non-positive) deadline still polls the socket
            # once, so bytes already in the kernel buffer are read
            remaining = None if deadline is None else \
                max(deadline - time.perf_counter(), 0.0)
            if remaining is not None:
                try:
                    ready, _, _ = select.select(
                        [self._sock], [], [], remaining)
                except (OSError, ValueError) as exc:
                    # fd torn down under us by a concurrent close()
                    raise FabricClosed(f"recv failed: {exc}") from exc
                if not ready:
                    raise FabricTimeout(
                        f"no complete frame within {timeout}s")
            try:
                chunk = self._sock.recv(1 << 18)
            except socket.timeout as exc:
                raise FabricTimeout(
                    f"no complete frame within {timeout}s") from exc
            except OSError as exc:
                if self._closed:
                    raise FabricClosed("endpoint is closed") from exc
                raise FabricClosed(f"recv failed: {exc}") from exc
            if not chunk:
                if self._buf:
                    raise FrameError(
                        f"peer closed mid-frame with {len(self._buf)} "
                        "bytes buffered")
                raise FabricClosed("peer closed the connection")
            self._buf += chunk

    def _try_extract(self) -> Optional[bytes]:
        if len(self._buf) < _PREAMBLE.size:
            return None
        magic, header_len, body_len = _PREAMBLE.unpack_from(self._buf, 0)
        if magic != MAGIC:
            raise FrameError(f"bad magic {magic!r} (want {MAGIC!r})")
        if header_len > _MAX_HEADER or body_len > _MAX_BODY:
            raise FrameError(
                f"implausible frame lengths (header={header_len}, "
                f"body={body_len})")
        total = _PREAMBLE.size + header_len + body_len
        if len(self._buf) < total:
            return None
        data = bytes(self._buf[:total])
        del self._buf[:total]
        self.frames_received += 1
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def listen_loopback() -> Tuple[socket.socket, int, str]:
    """Bind an ephemeral loopback listener; returns
    ``(listener, port, token)`` where ``token`` is the shared secret
    the connecting peer must present."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    token = secrets.token_hex(_TOKEN_BYTES)
    return listener, listener.getsockname()[1], token


def connect_loopback(port: int, token: str,
                     timeout: float = 120.0) -> SocketEndpoint:
    """Connect to a loopback listener and present the token."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.sendall(token.encode("ascii"))
    sock.settimeout(None)
    return SocketEndpoint(sock)


def accept_loopback(listener: socket.socket, token: str,
                    timeout: float = 120.0) -> SocketEndpoint:
    """Accept one connection and verify its token; a peer that fails
    the handshake is dropped and the accept fails."""
    listener.settimeout(timeout)
    try:
        sock, _ = listener.accept()
    except socket.timeout as exc:
        raise FabricTimeout(
            f"no connection within {timeout}s") from exc
    want = token.encode("ascii")
    sock.settimeout(timeout)
    got = bytearray()
    try:
        while len(got) < len(want):
            chunk = sock.recv(len(want) - len(got))
            if not chunk:
                break
            got += chunk
    except OSError:
        pass
    if not hmac.compare_digest(bytes(got), want):
        sock.close()
        raise FabricError("peer failed the token handshake")
    sock.settimeout(None)
    return SocketEndpoint(sock)
