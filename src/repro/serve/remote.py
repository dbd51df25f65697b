"""One worker protocol for every out-of-process execution tier.

A replica whose engine runs somewhere else — a child process behind
shared memory (:mod:`repro.serve.procpool`), a remote rank behind the
descriptor fabric (:mod:`repro.serve.hostpool`) — is the same three
things on every tier, and this module owns each of them exactly once:

* the **payload** (:func:`engine_payload` / :func:`build_engine`): the
  model weights plus every :class:`~repro.tensor.plan.ExecutionPlan`
  the parent engine holds, pickled across **once** at spawn (steps
  travel by kernel name and rebind from the registry, constants by
  value — bit-exact), so the remote engine starts warm without ever
  tracing — which plans those are is the pool's call, made on the
  parent engine before the spawn;
* the **service** (:class:`EngineService`): the op table (``batch``,
  ``plan_stats``, ``stop``) and the one serve loop with the one error
  policy — a failing request is reported to its caller and the loop
  keeps serving;
* the **client** (:class:`RemoteWorker`): the batch-executor surface the
  scheduler drives (``forecast_batch`` / ``time_steps`` /
  ``plan_stats``) over the one exchange — send a request, await the
  reply that echoes its ``seq``, copy it out — plus
  the watchdog that condemns a remote dying while idle, death
  bookkeeping and child shutdown.

What is left to a tier is a **codec** — how the shared
``(op, seq, meta, arrays)`` envelope moves (shm descriptors + a pipe,
or RFB1 frames on an endpoint) — and a **liveness source** (process
sentinel, or heartbeats).  Either end of a codec is a *channel*:

``recv()``
    the next ``(op, seq, meta, arrays)`` request, or ``None`` once the
    peer is gone; arrays may be views into the transport's buffer.
``send(op, seq, meta=None, arrays=()) -> int``
    one message; returns the bytes it moved and raises
    :class:`ChannelClosed` when the peer is gone.
``close()``
    release everything this side of the transport owns.

The client reads its channel through the tier's ``_poll``, which folds
the liveness source into the wait.

Results stay **bitwise-identical** to the in-process engine on every
tier: the remote runs the *same* ``ForecastEngine.forecast_batch`` on
bit-equal weights (pickling preserves float bits), compiled and eager
paths alike.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
import traceback
from typing import (Callable, Dict, List, NoReturn, Optional, Sequence,
                    Tuple)

import numpy as np

from ..workflow.engine import (CompiledForward, FieldWindow, ForecastEngine,
                               ForecastResult)

__all__ = [
    "ChannelClosed",
    "EngineService",
    "RemoteWorker",
    "RemoteWorkerError",
    "RemoteWorkerDied",
    "engine_payload",
    "build_engine",
    "serve_payload",
    "SPAWN_METHOD",
    "SPAWN_TIMEOUT_S",
]

_VARS = ("u3", "v3", "w3", "zeta")

#: reply payload of an op: (meta, arrays)
_Reply = Tuple[dict, Sequence[np.ndarray]]


class ChannelClosed(Exception):
    """The peer of a service channel is gone; the serve loop ends."""


class RemoteWorkerError(RuntimeError):
    """A request failed on the remote, on any tier; the remote
    traceback is carried in the message.  The worker is still alive —
    later requests proceed normally."""


class RemoteWorkerDied(RemoteWorkerError):
    """The remote (or the link to it) is gone: the child process died
    (crash, OOM-kill, ``kill -9``), the connection dropped, a frame was
    corrupt, the heartbeat deadline lapsed, or no reply came within
    ``request_timeout``.

    Raised for the request in flight and every request after it; the
    worker's ``on_death`` hook fires once so the pool can retire the
    replica instead of routing more traffic at a corpse.
    """


# ----------------------------------------------------------------------
# payload: the engine, shipped once
# ----------------------------------------------------------------------
def engine_payload(engine) -> bytes:
    """Pickle everything a remote rank needs to rebuild ``engine``:
    its weights and staging configuration, and every plan it holds.
    Each batch ships as its shard plan and shard count: a b8 forward of
    two b4 shards must come back as a b8 forward, not as a b4 one.
    """
    compiled = {b: engine.compile(b) for b in engine.compiled_batches}
    return pickle.dumps({
        "model": engine.model,
        "normalizer": engine.normalizer,
        "boundary_width": engine.boundary_width,
        "plans": {b: (c.plan, c.shards) for b, c in compiled.items()},
    }, protocol=pickle.HIGHEST_PROTOCOL)


def build_engine(payload: bytes):
    """Rebuild a ForecastEngine from :func:`engine_payload` bytes — the
    exact weights plus every shipped plan, keyed by its batch."""
    spec = pickle.loads(payload)
    engine = ForecastEngine(
        spec["model"], spec["normalizer"], spec["boundary_width"])
    for batch, (plan, shards) in spec["plans"].items():
        key = engine._input_shapes(batch)[0]
        engine._plans[key] = CompiledForward(plan, shards)
    return engine


# ----------------------------------------------------------------------
# remote side: the op table and the serve loop
# ----------------------------------------------------------------------
class EngineService:
    """The remote half of the worker protocol: an engine plus the op
    table that drives it.

    :meth:`handle` is the *only* dispatch from op name to engine call;
    :meth:`serve` is the *only* loop, so both tiers share one
    error/reporting policy by construction.
    """

    def __init__(self, engine):
        self.engine = engine
        self.stopped = False
        self._ops: Dict[str, Callable[[dict, Sequence], _Reply]] = {
            "batch": self._batch,
            "plan_stats": self._plan_stats,
            "stop": self._stop,
        }

    def hello(self) -> dict:
        """The ``ready`` handshake: who serves, and for how long an
        episode."""
        return {"pid": os.getpid(), "time_steps": self.engine.time_steps}

    def handle(self, op: str, meta: dict,
               arrays: Sequence[np.ndarray] = ()) -> _Reply:
        """Run one op; returns the reply's ``(meta, arrays)``."""
        try:
            fn = self._ops[op]
        except KeyError:
            raise ValueError(f"unknown op {op!r}") from None
        return fn(meta, arrays)

    def _batch(self, meta, arrays) -> _Reply:
        refs = [FieldWindow(*arrays[4 * i:4 * i + 4])
                for i in range(meta["n"])]
        t0 = time.perf_counter()
        results = self.engine.forecast_batch(refs)
        batch_seconds = time.perf_counter() - t0
        return ({"batch_seconds": batch_seconds,
                 "results": [(r.inference_seconds, r.compiled, r.plan_batch)
                             for r in results]},
                [getattr(r.fields, var) for r in results for var in _VARS])

    def _plan_stats(self, meta, arrays) -> _Reply:
        return {"stats": self.engine.plan_stats()}, ()

    def _stop(self, meta, arrays) -> _Reply:
        self.stopped = True
        return {}, ()

    def serve(self, channel) -> None:
        """Serve ``channel`` until ``stop`` or the peer goes away.

        One request at a time, in arrival order; every reply echoes its
        request's ``seq`` so the client can tell whose answer it is.
        """
        try:
            channel.send("ready", -1, self.hello())
            while True:
                msg = channel.recv()
                if msg is None:
                    break           # peer gone: clean up and exit
                op, seq, meta, arrays = msg
                try:
                    reply = ("ok", seq, *self.handle(op, meta, arrays))
                except Exception:  # noqa: BLE001 — report, keep serving
                    # Exception only: KeyboardInterrupt/SystemExit must
                    # propagate so the remote can actually be stopped
                    reply = ("err", seq, {"trace": traceback.format_exc()})
                # release the transport-buffer views before the reply
                # (and the next request) reuse the transport
                del msg, arrays
                if self.stopped:
                    break
                channel.send(*reply)
        except ChannelClosed:
            pass
        finally:
            channel.close()


#: how every tier starts its child: ``spawn`` is safe with the parent's
#: scheduler threads (``fork`` would inherit them mid-lock)
SPAWN_METHOD = "spawn"
#: seconds a parent waits for its child's ``ready`` handshake
SPAWN_TIMEOUT_S = 120.0
#: seconds between the watchdog's polls of an idle worker's channel
WATCH_S = 0.1


def serve_payload(channel, payload: bytes) -> None:
    """Remote entry point of every tier: rebuild the engine from the
    payload and serve ``channel`` until stop.  A rebuild failure goes
    back as an ``err`` handshake carrying the traceback, so the client
    sees *why* instead of a bare exit code."""
    try:
        service = EngineService(build_engine(payload))
    except Exception:  # noqa: BLE001 — surface the build failure
        with contextlib.suppress(ChannelClosed):
            channel.send("err", -1, {"trace": traceback.format_exc()})
        channel.close()
        return
    service.serve(channel)


# ----------------------------------------------------------------------
# client side: the executor the scheduler drives
# ----------------------------------------------------------------------
def batch_request(references: Sequence[FieldWindow]) -> _Reply:
    return ({"n": len(references)},
            [getattr(r, var) for r in references for var in _VARS])


def batch_results(meta: dict, arrays: Sequence[np.ndarray]
                  ) -> List[ForecastResult]:
    return [ForecastResult(FieldWindow(*arrays[4 * i:4 * i + 4]), secs,
                           compiled=compiled, plan_batch=plan_batch)
            for i, (secs, compiled, plan_batch) in enumerate(meta["results"])]


class RemoteWorker:
    """Client half of the worker protocol: a batch executor whose
    engine runs behind a tier's transport.

    Drop-in for a :class:`~repro.workflow.engine.ForecastEngine` where
    the serving stack is concerned, which is exactly what lets
    :class:`~repro.serve.pool.EngineWorkerPool` run any backend without
    touching the scheduler, router, or deploy machinery.

    Every request is one exchange, :meth:`_call`: under the call lock
    it sends on the tier's channel, awaits the reply that echoes the
    request's ``seq`` (anything else is dropped), and copies the
    reply's arrays out of the transport's buffer.  Between exchanges a
    watchdog thread takes the same lock without blocking and polls the
    channel, so a remote that dies while idle is condemned too.  A
    ``request_timeout`` expiry condemns the worker: the remote may
    still be reading the request, so the channel is never trusted
    again.  ``on_death`` runs once, with no lock held, so it may close
    the worker.

    A request that failed remotely raises :class:`RemoteWorkerError`;
    a dead remote raises :class:`RemoteWorkerDied`, on every tier.

    A tier subclass sets :attr:`backend`, spawns its remote, sets
    ``_channel`` and finishes construction with :meth:`_adopt`, and
    implements:

    ``_poll(timeout) -> (op, seq, meta, arrays, nbytes) | None``
        the next message within ``timeout`` (``None``: no limit), with
        the bytes it moved, or ``None`` when nothing came; a dead
        remote raises through :meth:`_die`.
    ``_transport_counters()``
        the tier's names for the two transport counters in
        :meth:`transport_stats`.
    ``_on_dead()``, ``_release()``
        what to reclaim when the remote is condemned, and at
        :meth:`close` once the channel is closed.
    """

    #: tier name, echoed in messages and ``transport_stats()``
    backend = "remote"

    def __init__(self, engine, on_death: Optional[Callable],
                 request_timeout: Optional[float]):
        for attr in ("model", "normalizer", "boundary_width"):
            if not hasattr(engine, attr):
                raise TypeError(
                    f"backend={self.backend!r} needs a ForecastEngine-like "
                    f"executor with .{attr}; {type(engine).__name__} "
                    "has none")
        self.engine = engine
        self.on_death = on_death
        self.request_timeout = request_timeout
        self.pid: Optional[int] = None
        self.spawn_seconds: Optional[float] = None
        self.batches = 0
        # transport counters, named per tier by _transport_counters():
        # batch round trip minus remote-reported engine time, and the
        # bytes the channel moved in both directions
        self.transport_wait_s = 0.0
        self.transport_bytes = 0
        self._proc = None               # the child process, when there is one
        self._channel = None            # the tier's client channel
        self._call_lock = threading.Lock()      # one exchange at a time
        self._seq = 0
        self._watchdog: Optional[threading.Thread] = None
        self._watch_stop = threading.Event()
        self._state_lock = threading.Lock()     # counters + flags below
        self._closed = False
        self._dead = False
        self._notified = False
        self._death_reason = ""
        self._payload = engine_payload(engine)
        self.payload_bytes = len(self._payload)
        self._spawn_t0 = time.perf_counter()

    def _adopt(self) -> None:
        """Finish construction: await the remote's handshake, adopt
        what it reports, start the watchdog."""
        op, _, meta, _, _ = self._await(-1, SPAWN_TIMEOUT_S)
        if op == "err":
            raise RemoteWorkerError(
                f"remote engine failed to start:\n{meta.get('trace', '')}")
        if op != "ready":
            raise RemoteWorkerError(f"bad handshake: {op!r}")
        self.pid = meta["pid"]
        self._time_steps = meta["time_steps"]
        self.spawn_seconds = time.perf_counter() - self._spawn_t0
        self._watchdog = threading.Thread(
            target=self._watch, daemon=True,
            name=f"{self.backend}worker-watchdog-{self.pid}")
        self._watchdog.start()

    # -- executor protocol ---------------------------------------------
    @property
    def time_steps(self) -> int:
        return self._time_steps

    @property
    def alive(self) -> bool:
        return not (self._dead or self._closed) \
            and (self._proc is None or self._proc.is_alive())

    @property
    def death_reason(self) -> str:
        """Why the worker was condemned; ``""`` while it lives."""
        return self._death_reason

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Marshal one micro-batch to the remote engine and wait.

        Bitwise-identical to ``self.engine.forecast_batch`` (the remote
        runs the same code on bit-equal weights).  Raises
        :class:`RemoteWorkerDied` if the remote dies under the batch —
        the caller's futures fail instead of hanging.
        """
        references = list(references)
        if not references:
            return []
        return batch_results(
            *self._call("batch", *batch_request(references)))

    def plan_stats(self) -> Dict[str, object]:
        """The remote engine's plan counters plus this side's
        transport counters; degrades to transport-only when dead."""
        stats: Dict[str, object] = {}
        if self.alive:
            try:
                stats = dict(self._call("plan_stats", {}, ())[0]["stats"])
            except RemoteWorkerError:
                pass
        stats["transport"] = self.transport_stats()
        return stats

    def transport_stats(self) -> Dict[str, object]:
        """The observable overhead of the tier: its wait/byte counters
        (see ``TRANSPORT_COUNTERS`` in :mod:`repro.serve.scheduler`)
        plus spawn cost."""
        with self._state_lock:
            return {"backend": self.backend, "pid": self.pid,
                    "alive": self.alive, "batches": self.batches,
                    **self._transport_counters(),
                    "payload_bytes": self.payload_bytes,
                    "spawn_seconds": self.spawn_seconds}

    def segment_names(self) -> List[str]:
        """Shared-memory segments this worker pair may currently own —
        none unless the tier's codec is shm."""
        return []

    # -- the exchange -----------------------------------------------------
    def _call(self, op: str, meta: dict, arrays: Sequence[np.ndarray]
              ) -> _Reply:
        """One round trip; the returned arrays are the caller's own.
        An ``err`` reply raises :meth:`_remote_error`, a dead remote
        :class:`RemoteWorkerDied` — after ``on_death`` ran outside the
        lock."""
        try:
            with self._call_lock:
                self._ensure_alive()
                self._seq += 1
                t0 = time.perf_counter()
                try:
                    sent = self._channel.send(op, self._seq, meta, arrays)
                except ChannelClosed as exc:
                    self._die(f"send failed: {exc}")
                status, _, reply, views, received = self._await(
                    self._seq, self.request_timeout)
                # copy out under the lock: the next exchange reuses the
                # transport's buffer
                out = [a.copy() for a in views]
                del views
                elapsed = time.perf_counter() - t0
                with self._state_lock:
                    self.transport_bytes += sent + received
                    if op == "batch" and status == "ok":
                        self.batches += 1
                        self.transport_wait_s += max(
                            elapsed - reply["batch_seconds"], 0.0)
        except RemoteWorkerDied:
            self._notify_death()
            raise
        if status == "err":
            raise self._remote_error(op, reply)
        return reply, out

    def _await(self, seq: int, timeout: Optional[float]):
        """The message answering ``seq``; a message for any other
        ``seq`` answers a request nobody waits for and is dropped.
        Expiry of ``timeout`` condemns the worker."""
        deadline = None if timeout is None else \
            time.perf_counter() + timeout
        while True:
            remaining = None if deadline is None else \
                max(deadline - time.perf_counter(), 0.0)
            msg = self._poll(remaining)
            if msg is None:
                self._die(f"no response within {timeout}s")
            if msg[1] == seq:
                return msg
            self._unsolicited(msg)

    def _unsolicited(self, msg) -> None:
        """A message no exchange waits for: a remote fatal ``err``
        (``seq`` < 0) condemns the worker, a late reply is dropped."""
        op, seq, meta = msg[:3]
        if op == "err" and seq < 0:
            self._die(f"remote fatal error:\n{meta.get('trace', '')}")

    def _watch(self) -> None:
        """Watchdog thread: between exchanges, drain the channel with a
        zero wait, so a remote that dies while idle is condemned.  The
        call lock is only ever tried, never waited for, and nothing
        waits while it is held: an exchange in progress watches the
        channel itself."""
        while not self._watch_stop.wait(WATCH_S):
            if not self._call_lock.acquire(blocking=False):
                continue
            try:
                if self._closed or self._dead:
                    return
                while (msg := self._poll(0.0)) is not None:
                    self._unsolicited(msg)
            except RemoteWorkerDied:
                pass
            finally:
                self._call_lock.release()
            if self._dead:
                self._notify_death()
                return

    # -- death ------------------------------------------------------------
    def _ensure_alive(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self.backend} worker is closed")
        if self._dead:
            raise RemoteWorkerDied(
                f"{self.backend} worker pid {self.pid} is dead"
                + (f": {self._death_reason}" if self._death_reason else ""))

    def _remote_error(self, op: str, meta: dict) -> Exception:
        return RemoteWorkerError(
            f"{self.backend} worker pid {self.pid} failed "
            f"{op}:\n{meta.get('trace', '')}")

    def _die(self, reason: str) -> NoReturn:
        """Condemn the worker and raise :class:`RemoteWorkerDied`: every
        later request fails fast, the tier's ``_on_dead`` reclaims what
        the remote can no longer release, the child (if still running)
        is terminated.  Runs with the call lock held (or before the
        watchdog exists), so it runs once; ``on_death`` is left to
        :meth:`_notify_death`."""
        self._death_reason = reason
        self._dead = True
        self._on_dead()
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
        raise RemoteWorkerDied(
            f"{self.backend} worker pid {self.pid} died: {reason}")

    def _notify_death(self) -> None:
        """Fire ``on_death`` for the condemned worker, exactly once.
        Called with no lock held: the callback may close the worker."""
        with self._state_lock:
            if self._notified:
                return
            self._notified = True
        if self.on_death is not None:
            try:
                self.on_death(self)
            except Exception:  # noqa: BLE001 — observer must not break us
                pass

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the remote (graceful ``stop``, then ``terminate``, then
        ``kill`` for a child process) and release everything the pair
        owns.  Idempotent and safe after death."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._watch_stop.set()
        if self._watchdog is not None \
                and self._watchdog is not threading.current_thread():
            self._watchdog.join(timeout)
        if not self._dead and self._channel is not None:
            with self._call_lock, contextlib.suppress(ChannelClosed):
                self._channel.send("stop", -1)
        proc = self._proc
        if proc is not None:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout)
        with self._call_lock:
            if self._channel is not None:
                self._channel.close()
            self._release()
        if proc is not None:
            try:
                proc.close()
            except ValueError:
                pass    # child stuck past every kill deadline: leak the
                        # handle rather than raise out of close()
