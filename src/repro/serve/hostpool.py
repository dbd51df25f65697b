"""Host-backed execution tier: descriptor frames over the fabric.

:mod:`repro.serve.procpool` escapes the GIL on one host — descriptors
through shared memory, a pipe for control.  The next hop is a replica
on a *different* host, where there is no ``/dev/shm`` to share, only a
wire.  This module adds that tier.  The worker protocol — payload, op
table, serve loop, client executor — is :mod:`repro.serve.remote`,
shared with the process tier; what lives here is the host tier's
**codec** and **liveness source**: the engine sits behind a
:mod:`repro.hpc.fabric` endpoint and every message travels as one
length-prefixed descriptor frame (the same ``(shape, dtype, offset)``
triples the shm tier uses, packed contiguously so a batch is one
``sendall``, not a syscall per array).

Two interchangeable fabrics, selected per worker:

* ``fabric="sim"`` — the remote "rank" is a daemon thread in this
  process serving a :class:`~repro.hpc.fabric.SimEndpoint` pair, with
  all wire bytes accounted through a
  :class:`~repro.hpc.mpi.SimComm`.  Deterministic, no processes, and
  the engine is still rebuilt from the *pickled* payload — the same
  serialization path a real remote host would run, so bitwise
  equivalence is tested honestly.
* ``fabric="socket"`` — a spawned child process connected over TCP
  loopback (token handshake, ``TCP_NODELAY``): actual wire
  serialization with measurable bytes-on-wire, standing in for a
  remote host.

The network hop adds latency shm never had, so the client can
**pipeline**: :meth:`HostWorker.submit_batch` returns immediately with
a handle and a reaper thread matches responses to requests by sequence
number — batch N+1 is packed and on the wire while the remote computes
batch N.  The scheduler does not use it yet (it drives
``forecast_batch``, one batch at a time, so served traffic records
``inflight_depth`` 1); ``net_wait_s`` and ``frame_bytes`` make the
hop's cost visible through ``ServeMetrics``/``PoolMetrics``.

Failure model: the remote sends heartbeat frames between batches; the
reaper raises :class:`HostWorkerDied` (a
:class:`~repro.serve.procpool.ProcessWorkerDied` subclass, so the
pool's retire path and every existing ``except`` clause work
unchanged) when the connection drops, a frame fails to parse, the
child process exits, or the heartbeat deadline lapses — failing every
in-flight handle instead of hanging it, and firing ``on_death``
exactly once.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from multiprocessing import get_context
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..hpc.fabric import (FabricError, FabricTimeout, FrameError,
                          accept_loopback, connect_loopback,
                          listen_loopback, pack_frame, sim_pair, unpack_frame)
from ..workflow.engine import FieldWindow
from .procpool import ProcessWorkerDied, ProcessWorkerError
from .remote import (SPAWN_METHOD, SPAWN_TIMEOUT_S, ChannelClosed,
                     RemoteWorker, batch_request, batch_results,
                     serve_payload)

__all__ = ["HostWorker", "HostWorkerError", "HostWorkerDied"]


class HostWorkerError(ProcessWorkerError):
    """A request failed on the remote host; the remote traceback is in
    the message.  The host worker is still alive."""


class HostWorkerDied(ProcessWorkerDied):
    """The remote host (or the link to it) died: connection dropped,
    frame corruption, child exit, or heartbeat deadline lapsed.
    Raised on every in-flight handle and every request after it."""


# ----------------------------------------------------------------------
# remote side (thread for fabric="sim", child process for "socket")
# ----------------------------------------------------------------------
class _FrameChannel:
    """Remote side of the host tier's transport: every message is one
    RFB1 frame on the endpoint.

    A heartbeat thread keeps frames flowing between batches so the
    client's deadline detector can tell "slow" from "dead".  Endpoint
    sends are atomic (the endpoint locks internally), so the heartbeat
    never interleaves into a result frame.
    """

    def __init__(self, ep, heartbeat_s: float):
        self.ep = ep
        self._stop_hb = threading.Event()
        self._hb: Optional[threading.Thread] = None
        if heartbeat_s > 0:
            self._hb = threading.Thread(
                target=self._heartbeat, args=(max(heartbeat_s / 3.0, 0.01),),
                daemon=True, name="hostworker-heartbeat")
            self._hb.start()

    def _heartbeat(self, interval: float) -> None:
        while not self._stop_hb.wait(interval):
            try:
                self.ep.send_frame(pack_frame("hb", -1))
            except FabricError:
                return

    def send(self, op: str, seq: int, meta: Optional[dict] = None,
             arrays: Sequence[np.ndarray] = ()) -> None:
        try:
            self.ep.send_frame(pack_frame(op, seq, meta, arrays))
        except FabricError as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self):
        """Next request, its arrays as views into the received frame;
        ``None`` when the client is gone or framing is lost."""
        try:
            frame = unpack_frame(self.ep.recv_frame(timeout=None))
        except FrameError as exc:
            # framing is lost — report once and hang up
            with contextlib.suppress(ChannelClosed):
                self.send("err", -1, {"trace": f"frame rejected: {exc}"})
            return None
        except FabricError:
            return None
        return frame.op, frame.seq, frame.meta, frame.arrays

    def close(self) -> None:
        self._stop_hb.set()
        if self._hb is not None:
            self._hb.join(timeout=1.0)
        self.ep.close()


def _host_main(port: int, token: str, payload: bytes,
               heartbeat_s: float) -> None:
    """Child-process entry point for ``fabric="socket"``: connect back
    to the parent's loopback listener, rebuild the engine from the
    payload, serve until stop or disconnect."""
    serve_payload(
        _FrameChannel(connect_loopback(port, token), heartbeat_s), payload)


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
class _Handle(Future):
    """A pending request: resolved (or failed) by the reaper thread.

    A plain :class:`concurrent.futures.Future` plus the request's
    metadata; the batch stays attributable to its sequence number
    however deep the pipeline runs.  ``decode`` turns the reply's
    ``(meta, arrays)`` into the handle's value.
    """

    def __init__(self, seq: int, op: str, decode: Optional[Callable] = None):
        super().__init__()
        self.seq = seq
        self.op = op
        self.t0 = time.perf_counter()
        self.decode = decode

    def result(self, timeout: Optional[float] = None):
        try:
            return super().result(timeout)
        except FutureTimeout:
            raise HostWorkerError(
                f"no response to {self.op} (seq {self.seq}) within "
                f"{timeout}s") from None


class HostWorker(RemoteWorker):
    """A batch executor whose engine runs behind a fabric endpoint.

    Drop-in sibling of :class:`~repro.serve.procpool.ProcessWorker`
    (the executor surface is
    :class:`~repro.serve.remote.RemoteWorker`'s) — and additionally
    :meth:`submit_batch` for pipelined use (multiple batches in flight
    over one connection).

    Parameters
    ----------
    engine: the :class:`~repro.workflow.engine.ForecastEngine` to
        replicate to the remote rank (model, normalizer, plans are
        pickled across **once**, at spawn).
    fabric: ``"socket"`` (spawned child over TCP loopback — real wire)
        or ``"sim"`` (in-process deterministic fabric).
    warm_batches: batch sizes whose compiled plans ship with the
        payload.
    heartbeat_s: remote heartbeat period; the worker is declared dead
        after ``4 × heartbeat_s`` of radio silence.  ``0`` disables
        heartbeats (and deadline-based death detection with them).
    request_timeout: optional per-request ceiling for the synchronous
        calls (``forecast_batch``/``compile``/``plan_stats``).  Replies
        are matched by sequence number, so a late one is simply
        dropped — the worker stays usable.
    """

    backend = "host"
    Error = HostWorkerError
    Died = HostWorkerDied

    def __init__(self, engine, fabric: str = "socket",
                 warm_batches: Sequence[int] = (),
                 on_death: Optional[Callable[["HostWorker"], None]] = None,
                 request_timeout: Optional[float] = None,
                 heartbeat_s: float = 2.0):
        if fabric not in ("socket", "sim"):
            raise ValueError(
                f"unknown fabric {fabric!r}: expected 'socket' or 'sim'")
        super().__init__(engine, warm_batches, on_death, request_timeout)
        self.fabric = fabric
        self.heartbeat_s = float(heartbeat_s)
        self._silence_limit = 4.0 * self.heartbeat_s
        self._pending: Dict[int, _Handle] = {}
        self._seq = 0

        # transport counters (read by scheduler/pool metrics)
        self.net_wait_s = 0.0
        self.frame_bytes = 0
        self.inflight_depth = 0

        self._ep = None
        self._remote_ep = None
        self._reaper: Optional[threading.Thread] = None
        try:
            if fabric == "sim":
                self._ep, self._remote_ep = sim_pair()
                self.comm = self._ep.comm
                # the remote rank rebuilds its engine from the *pickled*
                # payload, exactly as a real remote host would
                threading.Thread(
                    target=serve_payload,
                    args=(_FrameChannel(self._remote_ep, self.heartbeat_s),
                          self._payload),
                    daemon=True, name="hostworker-sim-rank").start()
            else:
                listener, port, token = listen_loopback()
                try:
                    proc = get_context(SPAWN_METHOD).Process(
                        target=_host_main,
                        args=(port, token, self._payload, self.heartbeat_s),
                        name="hostworker-child", daemon=True)
                    proc.start()
                    self._proc = proc
                    self._ep = accept_loopback(listener, token,
                                               timeout=SPAWN_TIMEOUT_S)
                finally:
                    listener.close()
            self._adopt(*self._handshake(SPAWN_TIMEOUT_S))
        except BaseException:
            if self._ep is None and self._proc is not None:
                # the child never connected: no one to send ``stop`` to
                self._proc.terminate()
            self.close()
            raise
        self._last_seen = time.perf_counter()
        self._reaper = threading.Thread(target=self._reap, daemon=True,
                                        name="hostworker-reaper")
        self._reaper.start()

    def _handshake(self, timeout: float):
        deadline = time.perf_counter() + timeout
        while True:
            remaining = max(deadline - time.perf_counter(), 0.01)
            frame = unpack_frame(self._ep.recv_frame(timeout=remaining))
            if frame.op != "hb":
                return frame.op, frame.meta

    # -- executor protocol ---------------------------------------------
    def submit_batch(self, references: Sequence[FieldWindow]) -> _Handle:
        """Send one micro-batch and return immediately with a handle.

        This is the pipelined path: several submitted batches may be
        in flight over the one connection, matched back to their
        handles by sequence number.  ``handle.result()`` blocks for
        that batch alone; a dead worker fails every outstanding handle
        with :class:`HostWorkerDied` instead of hanging it.
        """
        references = list(references)
        if not references:
            done = _Handle(-1, "batch")
            done.set_result([])
            return done
        return self._submit("batch", *batch_request(references),
                            decode=batch_results)

    def _call(self, op: str, meta: dict, arrays: Sequence[np.ndarray]):
        return self._submit(op, meta, arrays).result(
            timeout=self.request_timeout)

    def _transport_counters(self) -> Dict[str, object]:
        return {"fabric": self.fabric,
                "net_wait_s": self.net_wait_s,
                "frame_bytes": self.frame_bytes,
                "inflight_depth": self.inflight_depth}

    # -- transport --------------------------------------------------------
    def _submit(self, op: str, meta: dict, arrays: Sequence[np.ndarray],
                decode: Optional[Callable] = None) -> _Handle:
        """Frame one request, register its handle, put it on the wire."""
        with self._state_lock:
            self._ensure_alive()
            seq = self._seq
            self._seq += 1
        data = pack_frame(op, seq, meta, arrays)
        handle = _Handle(seq, op, decode)
        with self._state_lock:
            self._ensure_alive()
            self._pending[seq] = handle
            depth = sum(1 for h in self._pending.values()
                        if h.op == "batch")
            if depth > self.inflight_depth:
                self.inflight_depth = depth
            self.frame_bytes += len(data)
        try:
            self._ep.send_frame(data)
        except FabricError as exc:
            self._die(f"send failed: {exc}")
        return handle

    def _reap(self) -> None:
        """Reaper thread: match response frames to pending handles,
        watch heartbeats and child liveness, fail everything on
        death."""
        tick = max(min(self.heartbeat_s / 2.0, 0.2), 0.02) \
            if self.heartbeat_s > 0 else 0.2
        while True:
            try:
                raw = self._ep.recv_frame(timeout=tick)
                self._last_seen = time.perf_counter()
                frame = unpack_frame(raw)
            except FabricTimeout:
                if self._closed or self._check_liveness():
                    return
                continue
            except FrameError as exc:
                self._mark_dead(f"corrupt frame: {exc}")
                return
            except FabricError:
                if not self._closed:
                    self._mark_dead("connection closed")
                return
            if frame.op == "hb":
                continue
            if frame.op == "err" and frame.seq < 0:
                self._mark_dead(
                    f"remote fatal error:\n{frame.meta.get('trace', '')}")
                return
            self._resolve(frame, len(raw))

    def _check_liveness(self) -> bool:
        """True if the worker was just declared dead."""
        if self._proc is not None and not self._proc.is_alive():
            self._mark_dead(
                f"child exited (exitcode {self._proc.exitcode})")
            return True
        if self.heartbeat_s > 0 and \
                time.perf_counter() - self._last_seen > self._silence_limit:
            self._mark_dead(
                f"no heartbeat within {self._silence_limit:.2f}s")
            return True
        return False

    def _resolve(self, frame, raw_len: int) -> None:
        with self._state_lock:
            handle = self._pending.pop(frame.seq, None)
        if handle is None:
            return                          # stale/unknown seq: drop
        if frame.op == "err":
            handle.set_exception(self._remote_error(handle.op, frame.meta))
            return
        # the frame's arrays are views into the receive buffer
        value = frame.meta, [a.copy() for a in frame.arrays]
        if handle.decode is not None:
            value = handle.decode(*value)
        with self._state_lock:
            self.frame_bytes += raw_len
            if handle.op == "batch":
                self.batches += 1
                self.net_wait_s += max(
                    time.perf_counter() - handle.t0
                    - frame.meta["batch_seconds"], 0.0)
        handle.set_result(value)

    def _fail_pending(self, exc: BaseException) -> None:
        with self._state_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for handle in pending:
            handle.set_exception(exc)

    def _on_dead(self) -> None:
        self._fail_pending(HostWorkerDied(
            f"host worker pid {self.pid} died: {self._death_reason}"))
        self._ep.close()

    def kill(self) -> None:
        """Kill the remote rank abruptly (test hook): ``SIGKILL`` to
        the socket child, endpoint teardown for the sim fabric — the
        fault the reaper must then detect and surface."""
        if self._proc is not None:
            self._proc.kill()
        else:
            self._remote_ep.close()

    # -- lifecycle ------------------------------------------------------
    def _send_stop(self) -> None:
        if self._ep is not None:
            with contextlib.suppress(FabricError):
                self._ep.send_frame(pack_frame("stop", -1))

    def _release(self, timeout: float) -> None:
        for ep in (self._ep, self._remote_ep):
            if ep is not None:
                ep.close()
        if self._reaper is not None \
                and self._reaper is not threading.current_thread():
            self._reaper.join(timeout)
        self._fail_pending(HostWorkerDied(
            f"host worker pid {self.pid} closed with requests in flight"))
