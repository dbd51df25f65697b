"""Dynamic micro-batching scheduler over the batched forecast engine.

PR 1 made the inference core batch-generic
(:meth:`~repro.workflow.engine.ForecastEngine.forecast_batch`); this
module turns *independent incoming requests* into those batches.  A
:class:`MicroBatchScheduler` keeps a FIFO queue of pending forecast
requests and is **work-conserving**: whenever its executor is free and
the queue is not empty it runs up to ``max_batch`` of the queued
requests at once — a whole ``max_batch`` ("full") or whatever is
waiting ("idle").  Nothing holds a request back for company: batches
form by requests accumulating *while the previous batch runs*, so
occupancy follows load by itself (1 on an idle replica, ``max_batch``
at saturation).  A client can also force the queue out ("flush" /
"close").

Batching changes *which requests share a forward*, never the numbers:
a request's result is bitwise-identical to calling
``engine.forecast_batch`` directly on the micro-batch it landed in
(the scheduler literally makes that call), and request→result pairing
is preserved no matter how arrivals interleave.

Two drive modes:

* **threaded** (``autostart=True``, the serving default): a daemon
  worker is the executor's only caller; clients just :meth:`submit`
  and wait on the returned :class:`ServedFuture`.
* **manual** (``autostart=False``, for deterministic tests and traces):
  no worker runs; the caller advances the queue with :meth:`step` /
  :meth:`flush`.

Gradient requests (:meth:`MicroBatchScheduler.submit_gradient`) ride
the same queue and flush policy: requests sharing a
(diagnostic, ``wrt``) signature coalesce into one
``engine.sensitivity_batch`` call, and never mix with forward
micro-batches (see ``docs/differentiation.md``).

The scheduler also *is* a batch executor (``forecast_batch`` /
``time_steps``), so :class:`~repro.workflow.ensemble.EnsembleForecaster`
and :class:`~repro.workflow.hybrid.HybridWorkflow` accept it anywhere
they accept a :class:`~repro.workflow.forecast.SurrogateForecaster` —
served and direct calls share one code path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workflow.engine import FieldWindow, ForecastResult
from ..workflow.sensitivity import GradientRequest

__all__ = ["ServedFuture", "BatchRecord", "RequestRecord", "ServeMetrics",
           "TRANSPORT_COUNTERS", "MicroBatchScheduler"]


class ServedFuture(Future):
    """Completion handle for one scheduled forecast request.

    A :class:`concurrent.futures.Future` plus the request's metadata:
    ``result()`` blocks until the micro-batch containing the request
    has run, then returns its :class:`ForecastResult` (or re-raises the
    engine's exception); done-callbacks run on the completing thread
    and exceptions they raise are swallowed.  The placement metadata
    (``batch_index``, ``batch_size``, ``queue_seconds``,
    ``latency_seconds``) is set before completion and records where the
    request landed; ``worker_id`` and ``engine_version`` additionally
    record which replica admitted it — and which
    :class:`~repro.serve.pool.EngineVersion` it is pinned to — when the
    request went through an :class:`~repro.serve.pool.EngineWorkerPool`.
    """

    def __init__(self, request_id: int):
        super().__init__()
        self.request_id = request_id
        self.worker_id: Optional[int] = None
        self.engine_version: Optional[int] = None
        self.batch_index: Optional[int] = None
        self.batch_size: Optional[int] = None
        self.queue_seconds: Optional[float] = None
        self.latency_seconds: Optional[float] = None
        self.cache_hit = False

    def cancel(self) -> bool:
        """An admitted request cannot be withdrawn: the scheduler that
        owns it will complete it, and must find it still pending."""
        return False

    def _invoke_callbacks(self) -> None:
        # run once, then let go: a callback closing over whatever holds
        # this future (a client's request record) would otherwise pin
        # the result arrays in a reference cycle until a full GC pass
        super()._invoke_callbacks()
        self._done_callbacks = []

    def result(self, timeout: Optional[float] = None) -> ForecastResult:
        try:
            return super().result(timeout)
        except FutureTimeout:
            if self.done():
                raise               # the request's own failure
            # the builtin, which concurrent.futures' only is from 3.11
            raise TimeoutError(
                f"request {self.request_id} not served within "
                f"{timeout}s") from None


@dataclass
class _Request:
    """Queue entry: the window, its future, and its arrival time.

    ``kind`` is "forecast" or "gradient"; gradient entries carry their
    full :class:`~repro.workflow.sensitivity.GradientRequest` so the
    flush can batch compatible requests into one backward pass.
    """

    window: FieldWindow
    future: ServedFuture
    enqueued_at: float
    kind: str = "forecast"
    grad: Optional[GradientRequest] = None

    @property
    def signature(self) -> tuple:
        """Batch-compatibility key: only requests sharing a signature
        may share an engine call (one forward, or one backward with a
        single diagnostic/wrt configuration)."""
        if self.kind == "gradient":
            return ("gradient", self.grad.diagnostic, self.grad.wrt)
        return ("forecast",)


@dataclass(frozen=True)
class BatchRecord:
    """One executed micro-batch, for occupancy accounting and audits."""

    index: int
    size: int
    request_ids: Tuple[int, ...]
    seconds: float               # engine.forecast_batch wall-clock
    trigger: str                 # "full" | "idle" | "flush" | "close"
    failed: bool = False         # engine raised; its futures carry the error
    compiled: bool = False       # served by a compiled inference plan
    #: batch size of the plan bucket that served it (= ``size`` on an
    #: exact hit, larger when the batch padded up); ``None`` when eager
    plan_batch: Optional[int] = None
    #: "forecast" (engine.forecast_batch) or "gradient"
    #: (engine.sensitivity_batch) — gradient batches feed the
    #: ``grad_batches`` / ``backward_seconds`` counters
    kind: str = "forecast"


@dataclass(frozen=True)
class RequestRecord:
    """Per-request serving latency decomposition."""

    request_id: int
    batch_index: int
    queue_seconds: float         # enqueue → batch execution start
    latency_seconds: float       # enqueue → result available


def _deepest(values) -> int:
    return max(values, default=0)


#: The transport counters of the out-of-process tiers, in one place:
#: each is a :class:`ServeMetrics` field a remote executor reports
#: (cumulatively) through ``transport_stats()``, mapped to how several
#: replicas' values combine into the pool-level figure
#: (:class:`~repro.serve.pool.PoolMetrics`).  A tier reports only its
#: own; the others stay 0.
TRANSPORT_COUNTERS = {
    "ipc_wait_s": sum,
    "marshal_bytes": sum,
    "net_wait_s": sum,
    "frame_bytes": sum,
    "inflight_depth": _deepest,
}


@dataclass
class ServeMetrics:
    """Aggregated serving metrics: occupancy and latency.

    ``mean_occupancy`` is the request-coalescing figure of merit — it
    stays at 1.0 when every forward serves one request (no batching
    win) and approaches ``max_batch`` at saturating offered load.
    """

    batches: List[BatchRecord] = field(default_factory=list)
    requests: List[RequestRecord] = field(default_factory=list)
    #: cumulative IPC overhead [s] when the executor runs out of
    #: process (:class:`~repro.serve.procpool.ProcessWorker`): batch
    #: round-trip wall-clock minus the child-reported engine time.
    #: Stays 0.0 for in-process executors.
    ipc_wait_s: float = 0.0
    #: cumulative bytes marshalled through the shared-memory transport
    #: (request fields out + result fields back); 0 for in-process.
    marshal_bytes: int = 0
    #: cumulative network overhead [s] when the executor runs behind a
    #: fabric endpoint (:class:`~repro.serve.hostpool.HostWorker`):
    #: batch round-trip wall-clock minus remote-reported engine time.
    net_wait_s: float = 0.0
    #: cumulative bytes framed onto the fabric wire (request frames
    #: out + result frames back); 0 off the host backend.
    frame_bytes: int = 0
    #: requests the host transport had in flight at once: 1 once a
    #: batch has run, since a worker's one exchange carries one request
    #: at a time (kept only for the benchmark key that reads it).
    inflight_depth: int = 0

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def n_failed_batches(self) -> int:
        return sum(b.failed for b in self.batches)

    @property
    def engine_seconds(self) -> float:
        """Cumulative wall-clock inside engine calls, all batches."""
        return sum(b.seconds for b in self.batches)

    @property
    def grad_batches(self) -> int:
        """Micro-batches that ran the adjoint path
        (``engine.sensitivity_batch``) instead of a forward."""
        return sum(1 for b in self.batches if b.kind == "gradient")

    @property
    def backward_seconds(self) -> float:
        """Cumulative wall-clock spent in gradient micro-batches
        (forward + backward; the adjoint analogue of
        ``engine_seconds``)."""
        return sum(b.seconds for b in self.batches if b.kind == "gradient")

    @property
    def mean_occupancy(self) -> float:
        if not self.batches:
            return float("nan")
        return self.n_requests / self.n_batches

    @property
    def max_occupancy(self) -> int:
        return max((b.size for b in self.batches), default=0)

    def occupancy_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for b in self.batches:
            hist[b.size] = hist.get(b.size, 0) + 1
        return dict(sorted(hist.items()))

    def latency_percentile(self, q: float) -> float:
        if not self.requests:
            return float("nan")
        return float(np.percentile(
            [r.latency_seconds for r in self.requests], q))

    def queue_percentile(self, q: float) -> float:
        if not self.requests:
            return float("nan")
        return float(np.percentile(
            [r.queue_seconds for r in self.requests], q))

    def summary(self) -> Dict[str, float]:
        return {
            "requests": self.n_requests,
            "batches": self.n_batches,
            "failed_batches": self.n_failed_batches,
            "mean_occupancy": self.mean_occupancy,
            "max_occupancy": self.max_occupancy,
            "latency_p50_ms": 1e3 * self.latency_percentile(50),
            "latency_p95_ms": 1e3 * self.latency_percentile(95),
            "queue_p50_ms": 1e3 * self.queue_percentile(50),
            "engine_seconds": self.engine_seconds,
            **{name: getattr(self, name) for name in TRANSPORT_COUNTERS},
            "grad_batches": self.grad_batches,
            "backward_seconds": self.backward_seconds,
        }


class MicroBatchScheduler:
    """Coalesce concurrent forecast requests into engine micro-batches.

    Parameters
    ----------
    engine: any batch executor with ``forecast_batch`` and
        ``time_steps`` (a :class:`~repro.workflow.engine.ForecastEngine`
        or :class:`~repro.workflow.forecast.SurrogateForecaster`).
    max_batch: most requests one engine call may serve; a free
        executor runs ``min(pending, max_batch)`` of them at once.
    autostart: start the worker thread (threaded mode).  With
        ``False`` the caller drives the queue via :meth:`step` /
        :meth:`flush` (manual mode — deterministic, thread-free).

    The scheduler runs whatever plans its engine holds; which those
    are is decided where replicas are made
    (:class:`~repro.serve.pool.EngineWorkerPool`).
    """

    def __init__(self, engine, max_batch: int = 8, autostart: bool = True):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.metrics = ServeMetrics()
        self._queue: Deque[_Request] = deque()
        self._lock = threading.Lock()
        self._pending = threading.Condition(self._lock)
        self._mesh: Optional[Dict[str, tuple]] = None
        self._next_id = 0
        self._n_batches = 0
        self._closed = False
        self._worker: Optional[threading.Thread] = None
        if autostart:
            self._worker = threading.Thread(
                target=self._serve_loop, name="microbatch-scheduler",
                daemon=True)
            self._worker.start()

    # -- batch-executor protocol ---------------------------------------
    @property
    def time_steps(self) -> int:
        return self.engine.time_steps

    @property
    def pending(self) -> int:
        """Requests queued but not yet flushed into a micro-batch —
        the instantaneous backlog the control plane watches."""
        with self._lock:
            return len(self._queue)

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Submit N windows and wait for all results (executor protocol).

        The N windows are validated and queued as one unit (all or
        nothing, like a direct ``engine.forecast_batch``), so a burst
        of at most ``max_batch`` reaching an idle scheduler is one
        micro-batch; behind other pending traffic it coalesces with
        it.  In manual mode the queue is flushed inline so the call
        cannot deadlock.  Raises ``RuntimeError`` on the worker thread
        (i.e. from a done-callback): it would wait on a batch only that
        thread can run.
        """
        if threading.current_thread() is self._worker:
            raise RuntimeError(
                "forecast_batch() called from the scheduler's worker "
                "thread (a done-callback?): it would block on a batch "
                "only this thread can run — use submit()")
        futures = self._enqueue(references)
        if self._worker is None:
            self.flush()
        return [f.result() for f in futures]

    def forecast(self, reference: FieldWindow) -> ForecastResult:
        """Synchronous single-request convenience wrapper."""
        return self.forecast_batch([reference])[0]

    # -- client side ----------------------------------------------------
    def submit(self, reference: FieldWindow) -> ServedFuture:
        """Enqueue one forecast request; returns immediately.

        Requests are validated here (episode length, shared mesh) so a
        malformed request fails alone instead of poisoning the
        micro-batch it would have joined.
        """
        return self._enqueue([reference])[0]

    def submit_gradient(self, request: GradientRequest) -> ServedFuture:
        """Enqueue one sensitivity request; returns immediately.

        The future resolves to a
        :class:`~repro.workflow.sensitivity.SensitivityResult`.
        Gradient requests coalesce with each other exactly like
        forecasts do, but only with requests sharing their
        (diagnostic, wrt) signature — a micro-batch is always one
        engine call — and never with forward requests.

        Raises ``NotImplementedError`` when the executor behind the
        scheduler has no ``sensitivity_batch`` — the backward pass
        needs the autograd graph in-process, which the process/host
        proxy executors do not transport.
        """
        if not hasattr(self.engine, "sensitivity_batch"):
            raise NotImplementedError(
                "gradient requests need an in-process autograd graph, "
                f"but this scheduler's executor ({type(self.engine).__name__}) "
                "does not expose sensitivity_batch(); serve gradients "
                "from a thread-backend pool (EngineWorkerPool(..., "
                "backend='thread')) or call "
                "ForecastEngine.sensitivity_batch directly")
        return self._enqueue([request.window], request)[0]

    def _enqueue(self, references: Sequence[FieldWindow],
                 grad: Optional[GradientRequest] = None
                 ) -> List[ServedFuture]:
        """Validate N windows, then queue them under one lock hold with
        one notify — all or nothing, and the worker can never pop a
        burst half-queued."""
        references = list(references)
        T = self.time_steps
        meshes = []
        for reference in references:
            if reference.T != T:
                raise ValueError(
                    f"window length {reference.T} != model time_steps {T}")
            meshes.append({var: getattr(reference, var).shape
                           for var in ("u3", "v3", "w3", "zeta")})
        kind = "forecast" if grad is None else "gradient"
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            mesh = self._mesh
            for shapes in meshes:
                if mesh is None:
                    mesh = shapes
                elif shapes != mesh:
                    bad = next(v for v in shapes if shapes[v] != mesh[v])
                    raise ValueError(
                        "all requests of one scheduler must share one "
                        f"mesh; got {bad} {shapes[bad]} != {mesh[bad]}")
            self._mesh = mesh
            now = time.perf_counter()
            futures = [ServedFuture(self._next_id + k)
                       for k in range(len(references))]
            self._next_id += len(futures)
            self._queue.extend(
                _Request(reference, future, now, kind=kind, grad=grad)
                for reference, future in zip(references, futures))
            self._pending.notify_all()
        return futures

    # -- manual drive ---------------------------------------------------
    def step(self, trigger: str = "flush") -> int:
        """Run ONE micro-batch (≤ ``max_batch``) from the queue head.

        Returns the number of requests served (0 if the queue is
        empty).  This is the manual-mode scheduling quantum; tests use
        it to realise arbitrary arrival/flush interleavings
        deterministically.
        """
        with self._lock:
            batch = self._pop_batch_locked()
        if not batch:
            return 0
        self._run_batch(batch, trigger)
        return len(batch)

    def flush(self) -> int:
        """Drain the whole queue now; returns requests served."""
        total = 0
        while True:
            n = self.step("flush")
            if n == 0:
                return total
            total += n

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop accepting requests, serve the backlog, join the worker.

        Every queued request is drained **or failed** before this
        returns — nothing is left pending, so the executor behind the
        scheduler may be torn down immediately afterwards.  The
        guarantee holds even when the executor itself is broken: a
        process-backed executor whose child died mid-flush raises on
        every remaining micro-batch, which *fails* those futures
        (:meth:`_run_batch` catches the error per batch) instead of
        hanging their waiters.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._pending.notify_all()
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        # manual mode (or anything the worker left behind on shutdown)
        while True:
            with self._lock:
                batch = self._pop_batch_locked()
            if not batch:
                break
            self._run_batch(batch, "close")

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduling core ------------------------------------------------
    def _pop_batch_locked(self) -> List[_Request]:
        """Pop the next micro-batch: up to ``max_batch`` requests from
        the queue head that share the head's batch signature — FIFO
        order is preserved, a signature change just ends the batch
        early (the next :meth:`step` picks the rest up)."""
        if not self._queue:
            return []
        sig = self._queue[0].signature
        out: List[_Request] = []
        while self._queue and len(out) < self.max_batch \
                and self._queue[0].signature == sig:
            out.append(self._queue.popleft())
        return out

    def _serve_loop(self) -> None:
        while True:
            with self._pending:
                while not self._queue and not self._closed:
                    self._pending.wait()
                if not self._queue:
                    return          # closed and drained
                # this thread is the executor, so being here means it is
                # free: run what is queued now — the next batch forms
                # while this one runs
                batch = self._pop_batch_locked()
                trigger = "full" if len(batch) == self.max_batch else \
                    "close" if self._closed else "idle"
            self._run_batch(batch, trigger)

    def _run_batch(self, batch: List[_Request], trigger: str) -> None:
        kind = batch[0].kind
        start = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            if kind == "gradient":
                grads = [r.grad for r in batch]
                results = self.engine.sensitivity_batch(
                    [g.window for g in grads],
                    wrt=grads[0].wrt, diagnostic=grads[0].diagnostic,
                    observations=[g.observation for g in grads],
                    storms=[g.storm for g in grads])
            else:
                results = self.engine.forecast_batch(
                    [r.window for r in batch])
        except BaseException as exc:     # noqa: BLE001 — worker must survive
            failure = exc
        # one reading: latency − queue is exactly BatchRecord.seconds
        done = time.perf_counter()
        seconds = done - start
        compiled = failure is None and bool(results) and \
            getattr(results[0], "compiled", False)
        plan_batch = getattr(results[0], "plan_batch", None) \
            if compiled else None
        transport = getattr(self.engine, "transport_stats", None)
        if transport is not None:
            # process/host-backed executors keep cumulative counters;
            # mirror whichever this transport reports (absolute, not
            # incremental) into the metrics log
            try:
                stats = transport()
                for name in TRANSPORT_COUNTERS.keys() & stats.keys():
                    setattr(self.metrics, name, stats[name])
            except Exception:    # noqa: BLE001 — metrics must not fail a batch
                pass
        with self._lock:
            index = self._n_batches
            self._n_batches += 1
            self.metrics.batches.append(BatchRecord(
                index=index, size=len(batch),
                request_ids=tuple(r.future.request_id for r in batch),
                seconds=seconds, trigger=trigger,
                failed=failure is not None, compiled=compiled,
                plan_batch=plan_batch, kind=kind))
            for req in batch:
                self.metrics.requests.append(RequestRecord(
                    request_id=req.future.request_id, batch_index=index,
                    queue_seconds=start - req.enqueued_at,
                    latency_seconds=done - req.enqueued_at))
        if failure is not None:
            for req in batch:
                req.future.set_exception(failure)
            return
        for req, res in zip(batch, results):
            fut = req.future
            fut.batch_index = index
            fut.batch_size = len(batch)
            fut.queue_seconds = start - req.enqueued_at
            fut.latency_seconds = done - req.enqueued_at
            fut.set_result(res)
