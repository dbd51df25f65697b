"""Host-backed execution tier: descriptor frames over the fabric.

:mod:`repro.serve.procpool` escapes the GIL on one host — descriptors
through shared memory, a pipe for control.  The next hop is a replica
on a *different* host, where there is no ``/dev/shm`` to share, only a
wire.  This module adds that tier.  The worker protocol — payload, op
table, serve loop, and the client's one exchange and watchdog — is
:mod:`repro.serve.remote`, shared with the process tier; what lives
here is the host tier's **codec** and **liveness source**: the engine
sits behind a :mod:`repro.hpc.fabric` endpoint and every message
travels as one length-prefixed descriptor frame (the same
``(shape, dtype, offset)`` triples the shm tier uses, packed
contiguously so a batch is one ``sendall``, not a syscall per array).

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

``net_wait_s`` and ``frame_bytes`` make the hop's cost visible through
``ServeMetrics``/``PoolMetrics``.

Failure model: the remote sends heartbeat frames between batches, and
:meth:`HostWorker._poll` reads the endpoint in heartbeat ticks.  The
connection dropping, a frame that fails to parse, the child process
exiting or the heartbeat deadline lapsing raises
:class:`~repro.serve.remote.RemoteWorkerDied`, the one death of every
remote tier — on the request in flight, or through the watchdog while
idle — and ``on_death`` fires exactly once.
"""

from __future__ import annotations

import contextlib
import threading
import time
from multiprocessing import get_context
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..hpc.fabric import (FabricError, FabricTimeout, FrameError,
                          accept_loopback, connect_loopback,
                          listen_loopback, pack_frame, sim_pair, unpack_frame)
from .remote import (SPAWN_METHOD, SPAWN_TIMEOUT_S, ChannelClosed,
                     RemoteWorker, serve_payload)

__all__ = ["HostWorker"]


# ----------------------------------------------------------------------
# the frame channel (both ends; the remote is a thread for
# fabric="sim", a child process for "socket")
# ----------------------------------------------------------------------
class _FrameChannel:
    """One end of the host tier's transport: every message is one RFB1
    frame on the endpoint.

    On the remote end a heartbeat thread keeps frames flowing between
    batches so the client's deadline detector can tell "slow" from
    "dead" (the client end passes ``heartbeat_s`` 0: it sends none).
    Endpoint sends are atomic (the endpoint locks internally), so the
    heartbeat never interleaves into a result frame.
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
             arrays: Sequence[np.ndarray] = ()) -> int:
        data = pack_frame(op, seq, meta, arrays)
        try:
            self.ep.send_frame(data)
        except FabricError as exc:
            raise ChannelClosed(str(exc)) from exc
        return len(data)

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
class HostWorker(RemoteWorker):
    """A batch executor whose engine runs behind a fabric endpoint.

    Drop-in sibling of :class:`~repro.serve.procpool.ProcessWorker`:
    the executor surface and the exchange are
    :class:`~repro.serve.remote.RemoteWorker`'s; this class adds the
    spawn, the frame channel and heartbeat liveness.

    Parameters
    ----------
    engine: the :class:`~repro.workflow.engine.ForecastEngine` to
        replicate to the remote rank (model, normalizer and every plan
        it holds are pickled across **once**, at spawn).
    fabric: ``"socket"`` (spawned child over TCP loopback — real wire)
        or ``"sim"`` (in-process deterministic fabric).
    heartbeat_s: remote heartbeat period; the worker is declared dead
        after ``4 × heartbeat_s`` of radio silence.  ``0`` disables
        heartbeats (and deadline-based death detection with them).
    request_timeout: optional per-request ceiling [s] for
        ``forecast_batch``/``plan_stats``.  Expiry condemns
        the worker (:class:`~repro.serve.remote.RemoteWorkerDied`), as
        on the process tier.
    """

    backend = "host"

    def __init__(self, engine, fabric: str = "socket",
                 on_death: Optional[Callable[["HostWorker"], None]] = None,
                 request_timeout: Optional[float] = None,
                 heartbeat_s: float = 2.0):
        if fabric not in ("socket", "sim"):
            raise ValueError(
                f"unknown fabric {fabric!r}: expected 'socket' or 'sim'")
        super().__init__(engine, on_death, request_timeout)
        self.fabric = fabric
        self.heartbeat_s = float(heartbeat_s)
        self._silence_limit = 4.0 * self.heartbeat_s
        self._tick = max(min(self.heartbeat_s / 2.0, 0.2), 0.02) \
            if self.heartbeat_s > 0 else 0.2
        self._remote_ep = None
        try:
            if fabric == "sim":
                ep, self._remote_ep = sim_pair()
                self.comm = ep.comm
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
                    ep = accept_loopback(listener, token,
                                         timeout=SPAWN_TIMEOUT_S)
                finally:
                    listener.close()
            self._channel = _FrameChannel(ep, 0)
            self._last_seen = time.perf_counter()
            self._adopt()
        except BaseException:
            if self._channel is None and self._proc is not None:
                # the child never connected: no one to send ``stop`` to
                self._proc.terminate()
            self.close()
            raise

    def _transport_counters(self) -> Dict[str, object]:
        return {"fabric": self.fabric,
                "net_wait_s": self.transport_wait_s,
                "frame_bytes": self.transport_bytes,
                # the client never has two requests in flight, so this is
                # a constant; the benchmark-only change of the ROADMAP
                # item "Re-baseline the record" deletes the key with its
                # benchmark metric
                "inflight_depth": min(self.batches, 1)}

    # -- transport --------------------------------------------------------
    def _poll(self, timeout: Optional[float]):
        """The next non-heartbeat frame, read in heartbeat ticks.  A
        heartbeat only refreshes the last-seen time; child exit,
        silence past the deadline, a corrupt frame or a closed
        connection condemns the worker."""
        deadline = None if timeout is None else \
            time.perf_counter() + timeout
        while True:
            wait = self._tick if deadline is None else \
                min(self._tick, max(deadline - time.perf_counter(), 0.0))
            try:
                raw = self._channel.ep.recv_frame(timeout=wait)
                frame = unpack_frame(raw)
            except FabricTimeout:
                if self._proc is not None and not self._proc.is_alive():
                    self._die(
                        f"child exited (exitcode {self._proc.exitcode})")
                if self.heartbeat_s > 0 and time.perf_counter() \
                        - self._last_seen > self._silence_limit:
                    self._die(
                        f"no heartbeat within {self._silence_limit:.2f}s")
                if deadline is not None \
                        and time.perf_counter() >= deadline:
                    return None
                continue
            except FrameError as exc:
                self._die(f"corrupt frame: {exc}")
            except FabricError:
                self._die("connection closed")
            self._last_seen = time.perf_counter()
            if frame.op != "hb":
                return (frame.op, frame.seq, frame.meta, frame.arrays,
                        len(raw))

    def _on_dead(self) -> None:
        # hang up, so the remote rank's serve loop ends too
        self._channel.close()

    def _release(self) -> None:
        if self._remote_ep is not None:
            self._remote_ep.close()
