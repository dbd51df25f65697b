"""One worker protocol for every out-of-process execution tier.

A replica whose engine runs somewhere else — a child process behind
shared memory (:mod:`repro.serve.procpool`), a remote rank behind the
descriptor fabric (:mod:`repro.serve.hostpool`) — is the same three
things on every tier, and this module owns each of them exactly once:

* the **payload** (:func:`engine_payload` / :func:`build_engine`): the
  model weights plus every compiled
  :class:`~repro.tensor.plan.ExecutionPlan`, pickled across **once** at
  spawn (steps travel by kernel name and rebind from the registry,
  constants by value — bit-exact), so the remote engine starts warm
  without ever tracing;
* the **service** (:class:`EngineService`): the op table (``batch``,
  ``compile``, ``compile_buckets``, ``plan_stats``, ``stop``) and the
  one serve loop with the one error policy — a failing request is
  reported to its caller and the loop keeps serving;
* the **client** (:class:`RemoteWorker`): the batch-executor surface the
  scheduler drives (``forecast_batch`` / ``time_steps`` / ``compile`` /
  ``compile_buckets`` / ``plan_stats``), death bookkeeping and child
  shutdown, all in terms of one abstract ``_call(op, meta, arrays)``.

What is left to a tier is a **codec** — how the shared
``(op, seq, meta, arrays)`` envelope moves (shm descriptors + a pipe,
or RFB1 frames on an endpoint) — and a **liveness source** (process
sentinel, or heartbeats).  The remote side of a codec is a *channel*:

``recv()``
    the next ``(op, seq, meta, arrays)`` request, or ``None`` once the
    peer is gone; arrays may be views into the transport's buffer.
``send(op, seq, meta=None, arrays=())``
    one reply; raises :class:`ChannelClosed` when the peer is gone.
``close()``
    release everything this side of the transport owns.

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

from ..tensor import plan_buckets
from ..workflow.engine import (CompiledForward, FieldWindow, ForecastEngine,
                               ForecastResult)

__all__ = [
    "ChannelClosed",
    "EngineService",
    "RemoteWorker",
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


# ----------------------------------------------------------------------
# payload: the engine, shipped once
# ----------------------------------------------------------------------
def engine_payload(engine, warm_batches: Sequence[int] = ()) -> bytes:
    """Pickle everything a remote rank needs to rebuild ``engine``.

    Ships every plan the engine already holds (a ``deploy()`` warms the
    new engine before surging replicas — those sizes must reach the
    remotes) plus ``warm_batches``, compiled on this engine first so
    replicas sharing one engine share the trace.
    """
    warm = sorted({int(b) for b in warm_batches}
                  | set(getattr(engine, "compiled_batches", None) or []))
    return pickle.dumps({
        "model": engine.model,
        "normalizer": engine.normalizer,
        "boundary_width": engine.boundary_width,
        "plans": {b: engine.compile(b).plan for b in warm},
    }, protocol=pickle.HIGHEST_PROTOCOL)


def build_engine(payload: bytes):
    """Rebuild a ForecastEngine from :func:`engine_payload` bytes — the
    exact weights plus every shipped plan."""
    spec = pickle.loads(payload)
    engine = ForecastEngine(
        spec["model"], spec["normalizer"], spec["boundary_width"])
    for plan in spec["plans"].values():
        key = plan.slots[plan.inputs[0]].shape
        engine._plans[key] = CompiledForward(plan)
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
            "compile": self._compile,
            "compile_buckets": self._compile_buckets,
            "plan_stats": self._plan_stats,
            "stop": self._stop,
        }

    def hello(self) -> dict:
        """The ``ready`` handshake: who serves, and what is warm."""
        return {"pid": os.getpid(),
                "time_steps": self.engine.time_steps,
                "compiled": sorted(self.engine.compiled_batches)}

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

    def _compile(self, meta, arrays) -> _Reply:
        self.engine.compile(meta["batch"])
        return {"compiled": self.engine.compiled_batches}, ()

    def _compile_buckets(self, meta, arrays) -> _Reply:
        self.engine.compile_buckets(meta["max_batch"])
        return {"compiled": self.engine.compiled_batches}, ()

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

    A tier subclass sets :attr:`backend`, :attr:`Error` and
    :attr:`Died`, spawns its remote and finishes construction with
    :meth:`_adopt`, and implements:

    ``_call(op, meta, arrays) -> (meta, arrays)``
        one synchronous round trip; the returned arrays are the
        caller's own (copied out of the transport's buffer); an ``err``
        reply raises :meth:`_remote_error`.
    ``_transport_counters()``
        the tier's entries for :meth:`transport_stats`.
    ``_on_dead()``, ``_send_stop()``, ``_release(timeout)``
        liveness and teardown hooks (see :meth:`_mark_dead`,
        :meth:`close`).
    """

    #: tier name, echoed in messages and ``transport_stats()``
    backend = "remote"
    #: raised when a request failed remotely but the worker lives on
    Error = RuntimeError
    #: raised for the in-flight request and every one after it once
    #: the remote (or the link to it) is gone
    Died = RuntimeError

    def __init__(self, engine, warm_batches: Sequence[int],
                 on_death: Optional[Callable],
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
        self._proc = None               # the child process, when there is one
        self._state_lock = threading.Lock()     # counters + flags below
        self._compiled: set = set()
        self._closed = False
        self._dead = False
        self._death_reason = ""
        self._payload = engine_payload(engine, warm_batches)
        self.payload_bytes = len(self._payload)
        self._spawn_t0 = time.perf_counter()

    def _adopt(self, op: str, meta: dict) -> None:
        """Finish construction from the remote's handshake message."""
        if op == "err":
            raise self.Error(
                f"remote engine failed to start:\n{meta.get('trace', '')}")
        if op != "ready":
            raise self.Error(f"bad handshake: {op!r}")
        self.pid = meta["pid"]
        self._time_steps = meta["time_steps"]
        self._compiled = set(meta["compiled"])
        self.spawn_seconds = time.perf_counter() - self._spawn_t0

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

    @property
    def compiled_batches(self) -> List[int]:
        """Batch sizes the remote engine holds a compiled plan for."""
        with self._state_lock:
            return sorted(self._compiled)

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Marshal one micro-batch to the remote engine and wait.

        Bitwise-identical to ``self.engine.forecast_batch`` (the remote
        runs the same code on bit-equal weights).  Raises :attr:`Died`
        if the remote dies under the batch — the caller's futures fail
        instead of hanging.
        """
        references = list(references)
        if not references:
            return []
        return batch_results(
            *self._call("batch", *batch_request(references)))

    def compile(self, batch: int) -> None:
        """Have the remote engine compile (or confirm) a plan for
        ``batch`` episodes; plans shipped at spawn are installed."""
        if int(batch) not in self.compiled_batches:
            self._compiled_reply(
                self._call("compile", {"batch": int(batch)}, ()))

    def compile_buckets(self, max_batch: int) -> None:
        """Have the remote engine compile the canonical
        :func:`~repro.tensor.plan.plan_buckets` set for
        ``max_batch``, so its partial micro-batches pad into compiled
        buckets instead of running eager."""
        max_batch = int(max_batch)
        if not set(plan_buckets(max_batch)) <= set(self.compiled_batches):
            self._compiled_reply(self._call(
                "compile_buckets", {"max_batch": max_batch}, ()))

    def _compiled_reply(self, reply: _Reply) -> None:
        with self._state_lock:
            self._compiled.update(reply[0]["compiled"])

    def plan_stats(self) -> Dict[str, object]:
        """The remote engine's plan counters plus this side's
        transport counters; degrades to transport-only when dead."""
        stats: Dict[str, object] = {}
        if self.alive:
            try:
                stats = dict(self._call("plan_stats", {}, ())[0]["stats"])
            except (self.Error, self.Died):
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

    # -- death ------------------------------------------------------------
    def _ensure_alive(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self.backend} worker is closed")
        if self._dead:
            raise self.Died(
                f"{self.backend} worker pid {self.pid} is dead"
                + (f": {self._death_reason}" if self._death_reason else ""))

    def _remote_error(self, op: str, meta: dict) -> Exception:
        return self.Error(f"{self.backend} worker pid {self.pid} failed "
                          f"{op}:\n{meta.get('trace', '')}")

    def _mark_dead(self, reason: str) -> None:
        """Condemn the worker: every later request fails fast, the
        tier's ``_on_dead`` fails what is in flight and reclaims what
        the remote can no longer release, the child (if still running)
        is terminated, and ``on_death`` fires — exactly once."""
        with self._state_lock:
            if self._dead:
                return
            self._dead = True
            self._death_reason = reason
        self._on_dead()
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
        if self.on_death is not None:
            try:
                self.on_death(self)
            except Exception:  # noqa: BLE001 — observer must not break us
                pass

    def _die(self, reason: str) -> NoReturn:
        self._mark_dead(reason)
        raise self.Died(
            f"{self.backend} worker pid {self.pid} died: {reason}")

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the remote (graceful ``stop``, then ``terminate``, then
        ``kill`` for a child process) and release everything the pair
        owns.  Idempotent and safe after death."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if not self._dead:
            self._send_stop()
        proc = self._proc
        if proc is not None:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout)
        self._release(timeout)
        if proc is not None:
            try:
                proc.close()
            except ValueError:
                pass    # child stuck past every kill deadline: leak the
                        # handle rather than raise out of close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
