"""Process-backed execution tier: escape the GIL with shared memory.

A threaded :class:`~repro.serve.pool.EngineWorkerPool` scales to
exactly one core on the pure-NumPy backend: every numpy-Python
dispatch between kernels holds the GIL, so two threaded replicas buy
nothing over one.  The
compiled plans of :mod:`repro.tensor.plan` are the unlock — replay is
a flat sequence of raw-``np.ndarray`` kernel steps over one
offset-packed arena, exactly the shape of work that can move into a
worker *process*.

The worker protocol itself — payload, op table, serve loop, and the
client's one exchange and watchdog — is :mod:`repro.serve.remote`,
shared with the host tier.  This module is the process tier's
**codec** and **liveness source**:

* each message's arrays are written into the sender's shared-memory
  segment and addressed by ``(shape, dtype, offset)`` **descriptors**;
  the control pipe only ever carries the tiny
  ``(op, seq, meta, generation, descriptors)`` envelope, never a
  pickled field array (one copy in, one copy out per side);
* :meth:`ProcessWorker._poll` waits on the pipe and the child's process
  **sentinel** together — a child that dies mid-flush surfaces as a
  :class:`~repro.serve.remote.RemoteWorkerDied` on the in-flight batch
  (failing its futures, never hanging them), one that dies while idle
  is found by the watchdog, and either way an ``on_death`` notification
  lets the pool retire the worker.

Each side reuses **one** segment for everything it sends, so a reply
is only meaningful for the request it answers: replies carry their
request's ``seq`` and anything else is dropped, and a request that
outlives ``request_timeout`` condemns the worker (on every tier) — the
child may still be reading the request segment, so the channel can
never be trusted again.

Shared-memory lifecycle is strict: every segment is unlinked exactly
once — by its creating side on graceful shutdown, by the parent on
abnormal child death (segment names are deterministic per worker, so
the parent can always find them).
"""

from __future__ import annotations

import pickle
import secrets
from multiprocessing import connection, get_context, shared_memory
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..hpc.fabric import FrameError, layout, view
from .remote import SPAWN_METHOD, ChannelClosed, RemoteWorker, serve_payload

__all__ = ["ProcessWorker"]


def _unlink_close(shm: shared_memory.SharedMemory) -> None:
    """Unlink first — it cannot fail on exported views, while close
    might, and the mapping dies with the process anyway."""
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    try:
        shm.close()
    except BufferError:
        pass        # views still alive; process exit reclaims them


# ----------------------------------------------------------------------
# shm codec: descriptors, segments, channel
# ----------------------------------------------------------------------
class _Segment:
    """One grow-by-replacement shared-memory segment with
    deterministic generation names (``{token}-{tag}{gen}``).

    The owner creates generations as demand grows and unlinks the
    superseded one immediately (POSIX keeps live mappings valid);
    the peer attaches by the generation it reads from each message.
    The deterministic naming is what lets the *parent* clean up a dead
    child's segments: it can enumerate every name the child can
    possibly have created.
    """

    def __init__(self, token: str, tag: str):
        self.prefix = f"{token}-{tag}"
        self.gen = -1
        self.shm: Optional[shared_memory.SharedMemory] = None

    @property
    def name(self) -> Optional[str]:
        return self.shm.name if self.shm is not None else None

    def ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        if self.shm is not None and self.shm.size >= nbytes:
            return self.shm
        grown = max(nbytes, 2 * self.shm.size if self.shm else nbytes)
        self.destroy()
        self.gen += 1
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(grown, 1), name=f"{self.prefix}{self.gen}")
        return self.shm

    def destroy(self) -> None:
        if self.shm is not None:
            _unlink_close(self.shm)
            self.shm = None


def _unlink_by_name(name: str) -> bool:
    """Best-effort unlink of a segment this process did not create."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    seg.close()
    return True


class _Attached:
    """Peer-side cache of the remote end's current segment; ``gen`` is
    the newest generation seen (so the parent can enumerate a dead
    child's segments)."""

    def __init__(self, token: str, tag: str):
        self.prefix = f"{token}-{tag}"
        self.gen = -1
        self.shm: Optional[shared_memory.SharedMemory] = None

    def get(self, gen: int) -> shared_memory.SharedMemory:
        if self.shm is None or gen != self.gen:
            self.close()
            self.shm = shared_memory.SharedMemory(name=f"{self.prefix}{gen}")
            self.gen = gen
        return self.shm

    def close(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
            except BufferError:
                pass
            self.shm = None


class _ShmChannel:
    """One side of the process tier's transport: arrays in this side's
    shared-memory segment, the ``(op, seq, meta, generation,
    descriptors)`` envelope on the pipe.  Symmetric — the parent owns
    the request segment (tag ``q``) and attaches the child's response
    segment (tag ``r``), the child the reverse.
    """

    def __init__(self, conn, token: str, own_tag: str, peer_tag: str):
        self.conn = conn
        self.own = _Segment(token, own_tag)
        self.peer = _Attached(token, peer_tag)

    def send(self, op: str, seq: int, meta: Optional[dict] = None,
             arrays: Sequence[np.ndarray] = ()) -> int:
        """Copy ``arrays`` into this side's segment and send the
        envelope; returns the segment bytes the message spans."""
        descs, need = layout(arrays)
        if descs:
            seg = self.own.ensure(need)
            for a, d in zip(arrays, descs):
                np.copyto(view(seg.buf, d), a)
        # pickled here, not by Connection.send, whose buffer is a view
        # of a BytesIO: a failed send's traceback keeps that view, and
        # once the exception sits in a reference cycle the collector
        # finalizes the BytesIO with the view still exported (an
        # unraisable BufferError)
        envelope = pickle.dumps((op, seq, meta or {}, self.own.gen, descs),
                                protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self.conn.send_bytes(envelope)
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc
        return need

    def recv(self):
        """Next message, its arrays as views into the peer's segment;
        ``None`` when the peer is gone or a descriptor does not fit
        its segment (the channel cannot be trusted past that)."""
        try:
            op, seq, meta, gen, descs = pickle.loads(self.conn.recv_bytes())
        except (EOFError, OSError):
            return None
        seg = self.peer.get(gen) if descs else None
        try:
            return op, seq, meta, [view(seg.buf, d) for d in descs]
        except FrameError:
            return None

    def close(self) -> None:
        self.own.destroy()
        self.peer.close()
        try:
            self.conn.close()
        except OSError:
            pass


def _child_main(conn, token: str, payload: bytes) -> None:
    """Worker-process entry point: rebuild the engine ONCE from the
    payload, then serve descriptor-marshalled requests until ``stop``
    or parent EOF.  Every segment this process created is unlinked on
    the way out."""
    serve_payload(_ShmChannel(conn, token, "r", "q"), payload)


# ----------------------------------------------------------------------
# parent-side handle
# ----------------------------------------------------------------------
class ProcessWorker(RemoteWorker):
    """A batch executor whose engine runs in a child process.

    The executor surface and the exchange are
    :class:`~repro.serve.remote.RemoteWorker`'s; this class adds the
    spawn, the shm channel and sentinel liveness.

    Parameters
    ----------
    engine: the :class:`~repro.workflow.engine.ForecastEngine` to
        replicate into the child (its model, normalizer, boundary
        configuration and every plan it holds are pickled across
        **once**, at spawn, so the child starts warm without ever
        tracing).
    on_death: callback invoked exactly once, with this worker, when the
        child process is found dead — by a request, or by the watchdog
        while idle.  It runs with no lock held, so it may close the
        worker.
    request_timeout: optional per-request ceiling [s]; ``None`` trusts
        the sentinel (a hung-but-alive child is not detectable without
        a timeout, a dead one always is).  Expiry condemns the worker
        (:class:`~repro.serve.remote.RemoteWorkerDied`): the child may
        still be reading the one reused request segment, so no later
        request is safe.

    Thread safety: requests serialise on the one exchange's lock (the
    transport is a single request/response channel); the scheduler
    drives one batch at a time anyway.
    """

    backend = "process"

    def __init__(self, engine,
                 on_death: Optional[Callable[["ProcessWorker"], None]] = None,
                 request_timeout: Optional[float] = None):
        super().__init__(engine, on_death, request_timeout)
        self._token = f"repro-{secrets.token_hex(4)}"
        ctx = get_context(SPAWN_METHOD)
        conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(target=_child_main,
                                 args=(child_conn, self._token,
                                       self._payload),
                                 name=f"procworker-{self._token}",
                                 daemon=True)
        self._proc.start()
        child_conn.close()
        self._channel = _ShmChannel(conn, self._token, "q", "r")
        try:
            self._adopt()
        except BaseException:
            self.close()
            raise

    def _transport_counters(self) -> Dict[str, object]:
        return {"ipc_wait_s": self.transport_wait_s,
                "marshal_bytes": self.transport_bytes}

    def _child_segment_names(self, generations: int) -> List[str]:
        peer = self._channel.peer
        return [f"{peer.prefix}{g}" for g in range(generations)]

    def segment_names(self) -> List[str]:
        """Names of every shared-memory segment this worker pair may
        currently own (request, response) — the set that must be gone
        after :meth:`close`."""
        names = self._child_segment_names(self._channel.peer.gen + 1)
        if self._channel.own.name:
            names.append(self._channel.own.name)
        return names

    # -- transport --------------------------------------------------------
    def _poll(self, timeout: Optional[float]):
        """The next message, watching the child's sentinel: child exit
        or EOF condemns the worker."""
        conn, sentinel = self._channel.conn, self._proc.sentinel
        ready = connection.wait([conn, sentinel], timeout=timeout)
        if conn in ready:
            msg = self._channel.recv()
            if msg is None:
                self._die("EOF on control pipe")
            return (*msg, sum(a.nbytes for a in msg[3]))
        if ready:
            self._die(f"exitcode {self._proc.exitcode}")
        return None

    def _reclaim_child_segments(self) -> None:
        """Unlink segments the dead child can no longer unlink itself
        (its names are deterministic: every response generation up to
        one past the last seen)."""
        self._channel.peer.close()
        for name in self._child_segment_names(self._channel.peer.gen + 2):
            _unlink_by_name(name)

    _on_dead = _reclaim_child_segments
    # graceful children unlink their own segments; after an abnormal
    # exit these names still exist and fall to us at close (a terminated
    # child cannot run its resource_tracker unregistrations; these
    # unlinks do the actual cleanup)
    _release = _reclaim_child_segments
