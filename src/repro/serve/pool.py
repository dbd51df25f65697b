"""Sharded serving: a pool of engine replicas behind one front door.

One :class:`~repro.serve.scheduler.MicroBatchScheduler` converts
per-call speed into per-replica throughput; this module converts
per-replica throughput into *pool* throughput.  An
:class:`EngineWorkerPool` runs N engine replicas, each behind its own
scheduler, and three things decide what happens to an incoming request:

* a **router** (:class:`Router` policy — :class:`RoundRobinRouter`,
  :class:`LeastOutstandingRouter`, or :class:`KeyAffinityRouter`)
  picks which replica should serve it;
* **admission control** bounds each replica's outstanding work at
  ``max_queue``; a request that no admissible replica can take is shed
  with an explicit :class:`PoolSaturated` carrying a ``retry_after``
  estimated from the fitted affine batch-cost law
  (:class:`~repro.hpc.serving.ServingCapacityModel`) — clients back off
  instead of queueing unboundedly;
* **metrics aggregation** (:class:`PoolMetrics`) folds the per-worker
  :class:`~repro.serve.scheduler.ServeMetrics` into pool-level
  occupancy/latency/shed counters.

Routing never changes the numbers: a request's result is
bitwise-identical to calling ``engine.forecast_batch`` directly on the
micro-batch it landed in, whatever policy placed it there
(``tests/test_serve_pool.py`` asserts this for every policy).

The pool *is* a batch executor (``forecast_batch`` / ``time_steps``),
so everything that accepts an engine or a scheduler —
:class:`~repro.workflow.ensemble.EnsembleForecaster`,
:class:`~repro.workflow.hybrid.HybridWorkflow`,
:class:`~repro.serve.server.ForecastServer` — accepts a pool
unchanged, and the single-engine deployment is simply the pool of 1.

Replicas may be distinct engines or N views of one engine: inference
is read-only over model weights and the autograd switch is
thread-local, so sharing one :class:`~repro.workflow.engine.ForecastEngine`
across workers is safe (on multi-core hosts NumPy releases the GIL in
its kernels, which is where the parallel speedup comes from).

Where the GIL *does* bind — the pure-NumPy backend spends real time in
Python between kernels — the pool offers ``backend="process"``: each
replica's engine runs in a child process behind a
:class:`~repro.serve.procpool.ProcessWorker` (weights and compiled
plans shipped once at spawn, per-batch traffic through shared-memory
descriptors), so replicas scale with cores instead of contending for
one.  The executor is the only thing that changes; routing, admission,
versioned deploys and autoscaling above it are backend-agnostic, and
results stay bitwise-identical to the direct engine call.

On top of the data plane, the pool is also the serving **control
plane** (PR 5): the live worker set is dynamic (:meth:`~EngineWorkerPool.add_worker`
/ :meth:`~EngineWorkerPool.remove_worker`, which the load-adaptive
:class:`~repro.serve.autoscale.AutoScaler` drives), and
:meth:`~EngineWorkerPool.deploy` rolls a new :class:`EngineVersion`
through the pool replica-by-replica without dropping traffic: each old
replica is *surged* (a warmed new-version replica is admitted first),
then drained — its already-admitted requests finish on the engine that
admitted them, so every response stays bitwise-deterministic for its
pinned version — and retired.  A warmup failure rolls back before
anything serving-visible has changed.  Every topology transition is
recorded as a :class:`PoolEvent`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hpc.serving import ServingCapacityModel
from ..tensor import plan_buckets
from ..workflow.engine import FieldWindow, ForecastResult
from .hostpool import HostWorker
from .procpool import ProcessWorker
from .scheduler import (TRANSPORT_COUNTERS, MicroBatchScheduler, ServedFuture,
                        ServeMetrics)

__all__ = [
    "PoolSaturated",
    "DeploymentError",
    "EngineVersion",
    "PoolEvent",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "KeyAffinityRouter",
    "PoolMetrics",
    "EngineWorkerPool",
]


#: the out-of-process executor of each backend (``"thread"`` drives the
#: engine itself); one worker protocol, two codecs — see
#: :mod:`repro.serve.remote`
_REMOTE_WORKERS = {"process": ProcessWorker, "host": HostWorker}


class DeploymentError(RuntimeError):
    """A :meth:`EngineWorkerPool.deploy` failed and was rolled back.

    The pool is guaranteed to be serving the previous version on the
    previous worker topology when this propagates; the underlying
    failure is chained as ``__cause__``.
    """


class PoolSaturated(RuntimeError):
    """Admission control rejected a request: every admissible replica
    is at its ``max_queue`` bound.

    Attributes
    ----------
    retry_after: suggested client back-off [s] — the modelled time for
        the least-loaded admissible replica to drain one queue slot,
        from the pool's fitted batch-cost law (1 ms before any batch
        has been observed).
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = float(retry_after)


def stable_key_hash(key) -> int:
    """Deterministic 64-bit hash of a routing key.

    ``hash(str)`` is randomised per process; sharding must instead be
    stable across runs (and documented), so affinity routing hashes the
    key's string form with BLAKE2b.
    """
    digest = hashlib.blake2b(str(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Router:
    """Pluggable policy mapping one request to a preference-ordered
    list of replicas.

    Subclasses implement :meth:`candidates`; the pool admits the
    request to the first candidate with queue room and sheds it when
    none has any.  Returning *fewer* than all workers is how a policy
    expresses a hard placement constraint (key affinity returns exactly
    one), at the price of shedding while better-placed replicas idle.

    Policies are instantiated per pool and called under the pool's
    routing lock, so they may keep unguarded mutable state (e.g. the
    round-robin cursor) but must not block.
    """

    #: whether the policy reads the routing key — lets callers skip
    #: computing one (content digests are not free) when it is ignored
    uses_keys = False

    @staticmethod
    def make(name: str) -> "Router":
        """A fresh policy instance by name (``"round-robin"`` |
        ``"least-outstanding"`` | ``"key-affinity"``)."""
        try:
            return _ROUTERS[name]()
        except KeyError:
            raise ValueError(
                f"unknown router {name!r}; use one of "
                f"{sorted(_ROUTERS)}") from None

    def candidates(self, key, n_workers: int,
                   outstanding: Sequence[int]) -> Sequence[int]:
        """Replica indices to try, in preference order.

        Parameters
        ----------
        key: the request's routing key (may be ``None``).
        n_workers: pool width.
        outstanding: per-replica outstanding request counts, a
            consistent snapshot taken under the routing lock.
        """
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through the replicas regardless of load or key.

    The classic fair policy: every replica sees the same request rate.
    When the preferred replica is full the rotation continues, so
    round-robin only sheds when the whole pool is at bound.
    """

    def __init__(self):
        self._cursor = 0

    def candidates(self, key, n_workers, outstanding):
        start = self._cursor % n_workers
        self._cursor += 1
        return [(start + i) % n_workers for i in range(n_workers)]


class LeastOutstandingRouter(Router):
    """Send each request to the replica with the fewest outstanding
    requests (ties break toward the lowest index).

    Adapts to heterogeneous request costs and stragglers — a replica
    stuck on a slow batch naturally stops receiving traffic.  Like
    round-robin it sheds only when the whole pool is at bound.
    """

    def candidates(self, key, n_workers, outstanding):
        return sorted(range(n_workers), key=lambda i: (outstanding[i], i))


class KeyAffinityRouter(Router):
    """Shard by key: requests with equal keys always land on the same
    replica (``stable_key_hash(key) % n_workers``).

    This is the policy that keeps per-replica state effective under
    sharding — duplicate scenarios meet in one replica's queue, so
    result caches and in-flight dedup keyed on the request content
    (:func:`~repro.serve.cache.window_key`) keep their hit rates.
    Affinity is *strict*: a request whose home replica is full is shed
    even if other replicas are idle, because spilling would silently
    break the co-location guarantee.  Keyless requests fall back to
    round-robin.
    """

    uses_keys = True

    def __init__(self):
        self._fallback = RoundRobinRouter()

    def candidates(self, key, n_workers, outstanding):
        if key is None:
            return self._fallback.candidates(key, n_workers, outstanding)
        return [stable_key_hash(key) % n_workers]


_ROUTERS = {
    "round-robin": RoundRobinRouter,
    "least-outstanding": LeastOutstandingRouter,
    "key-affinity": KeyAffinityRouter,
}


@dataclass(frozen=True)
class EngineVersion:
    """One deployed engine generation.

    ``version`` is a monotonically increasing integer; every request is
    pinned at admission to the version of the worker that admitted it
    (``ServedFuture.engine_version``), and a version's results are
    bitwise-deterministic — they equal the direct ``forecast_batch``
    output of that version's engine on the micro-batch composition.
    """

    version: int
    engines: Tuple              # distinct engine objects of this version
    source: str                 # human-readable provenance of the weights
    deployed_at: float          # time.time() when the version was created


@dataclass(frozen=True)
class PoolEvent:
    """One control-plane transition (deploy step, scale-up/down)."""

    kind: str                   # "scale-up" | "scale-down" | "deploy-*"
    when: float                 # time.time()
    n_workers: int              # live workers AFTER the transition
    version: int                # version the transition concerns
    detail: str = ""


@dataclass(eq=False)
class _Worker:
    """One replica: its scheduler plus the pool's admission counters.

    ``engine`` is the source batch executor the replica serves;
    ``executor`` is what its scheduler actually drives — the same
    object for the thread backend, a
    :class:`~repro.serve.procpool.ProcessWorker` wrapping ``engine``
    for the process backend (the pool owns and closes the wrapper; the
    engine belongs to the caller).
    """

    worker_id: int
    scheduler: MicroBatchScheduler
    version: int = 1             # EngineVersion that this replica serves
    engine: object = None        # source executor (caller-owned)
    executor: object = None      # what the scheduler drives (pool-owned
    #                              when it differs from engine)
    draining: bool = False       # no longer admissible; being retired
    outstanding: int = 0         # admitted, not yet completed
    submitted: int = 0           # admitted ever
    shed: int = 0                # rejected with this worker as first choice


class PoolMetrics:
    """Pool-level view over the per-worker :class:`ServeMetrics`.

    A live aggregation (not a snapshot): every read rebuilds one
    :class:`ServeMetrics` over the workers' concatenated
    ``batches``/``requests`` logs, with the transport counters combined
    the way :data:`~repro.serve.scheduler.TRANSPORT_COUNTERS` says
    (waits and bytes add up, ``inflight_depth`` is the deepest pipeline
    any host replica reached), and every :class:`ServeMetrics` member
    is answered by that merged object — the pool cannot disagree with
    its replicas about what a metric means.  Pool occupancy is thus
    total requests over total engine forwards — the figure of merit
    batching must hold on to as the pool widens, since sharding thins
    each replica's queue.  Only what a single replica cannot know is
    declared here.

    The worker set is dynamic (deploys and autoscaling retire and spawn
    replicas); aggregation therefore runs over the *live and retired*
    workers, so history is never lost when a replica drains — a pool
    that served 100 requests still reports 100 after every original
    replica has been swapped out.
    """

    def __init__(self, pool: "EngineWorkerPool"):
        self._pool = pool

    def _all_workers(self) -> List[_Worker]:
        return self._pool._all_workers()

    def _merged(self) -> ServeMetrics:
        per = self.per_worker
        return ServeMetrics(
            batches=[b for m in per for b in m.batches],
            requests=[r for m in per for r in m.requests],
            **{name: combine(getattr(m, name) for m in per)
               for name, combine in TRANSPORT_COUNTERS.items()})

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._merged(), name)

    @property
    def n_workers(self) -> int:
        """Live replicas (including any mid-drain)."""
        return len(self._pool.workers)

    @property
    def per_worker(self) -> List[ServeMetrics]:
        """The underlying per-replica metric logs, live then retired."""
        return [w.scheduler.metrics for w in self._all_workers()]

    @property
    def events(self) -> List[PoolEvent]:
        """Control-plane transition log (deploys, scale-up/down)."""
        return list(self._pool.events)

    @property
    def shed_requests(self) -> int:
        return self._pool.shed_requests

    @property
    def outstanding(self) -> int:
        return sum(w.outstanding for w in self._pool.workers)

    # the autoscaler polls these every tick: O(workers), no log merge
    @property
    def n_requests(self) -> int:
        return sum(m.n_requests for m in self.per_worker)

    @property
    def n_batches(self) -> int:
        return sum(m.n_batches for m in self.per_worker)

    def requests_by_worker(self) -> Dict[int, int]:
        """Completed-request count per worker id — the sharding skew.
        Retired workers keep their entries (worker ids are never
        reused)."""
        return {w.worker_id: w.scheduler.metrics.n_requests
                for w in self._all_workers()}

    def shed_by_worker(self) -> Dict[int, int]:
        """Sheds attributed to each first-choice worker — under key
        affinity this is where hot-key skew shows up."""
        return {w.worker_id: w.shed for w in self._all_workers()}

    def requests_by_version(self) -> Dict[int, int]:
        """Completed-request count per engine version — during a
        rolling deploy this is where the traffic handover shows up."""
        out: Dict[int, int] = {}
        for w in self._all_workers():
            out[w.version] = out.get(w.version, 0) \
                + w.scheduler.metrics.n_requests
        return dict(sorted(out.items()))

    def summary(self) -> Dict[str, float]:
        """Flat dict for logging/export: the keys of
        :meth:`ServeMetrics.summary` (over the merged logs) plus the
        pool-only counters."""
        events = self.events
        return {
            "workers": self.n_workers,
            "engine_version": self._pool.current_version,
            "deploys": sum(e.kind == "deploy-done" for e in events),
            "scale_events": sum(e.kind in ("scale-up", "scale-down")
                                for e in events),
            **self._merged().summary(),
            "shed_requests": self.shed_requests,
            "outstanding": self.outstanding,
            "spawn_seconds_mean": self._pool.mean_spawn_seconds,
        }


class EngineWorkerPool:
    """N engine replicas, each behind its own micro-batching scheduler.

    Parameters
    ----------
    engines: one batch executor (``forecast_batch`` + ``time_steps``)
        or a sequence of them, one per replica.  A single engine with
        ``replicas=N`` is shared by all N workers — safe, because
        inference never writes model state (see the module docstring).
        All replicas must agree on ``time_steps``.
    replicas: pool width when ``engines`` is a single executor; must
        match ``len(engines)`` when a sequence is given.
    max_batch: per-replica micro-batch bound
        (:class:`~repro.serve.scheduler.MicroBatchScheduler`).
    max_queue: per-replica bound on *outstanding* requests (admitted
        but not completed).  The pool's total backlog can never exceed
        ``replicas × max_queue``; beyond it requests shed with
        :class:`PoolSaturated`.
    router: routing policy name — ``"round-robin"`` |
        ``"least-outstanding"`` | ``"key-affinity"``.
    autostart: start each replica's worker thread (threaded mode).
        ``False`` gives the deterministic manual mode — the caller
        drives the queues with :meth:`flush` (or per-worker
        ``pool.workers[i].scheduler.step()``).
    warm_plans: compile each engine's inference plan for ``max_batch``
        at startup (replicas sharing one
        :class:`~repro.workflow.engine.ForecastEngine` share its plan
        cache, so the trace happens once per distinct engine); see
        :class:`~repro.serve.scheduler.MicroBatchScheduler`.
    backend: where replicas execute.  ``"thread"`` (default) runs every
        replica in-process — cheap replicas, but on the pure-NumPy
        backend they all serialise on the GIL.  ``"process"`` wraps
        each replica's engine in a
        :class:`~repro.serve.procpool.ProcessWorker`: a child process
        holding its own copy of the weights and compiled plans (arena
        in shared memory), so replicas genuinely run in parallel.
        ``"host"`` wraps each engine in a
        :class:`~repro.serve.hostpool.HostWorker`: a remote "rank"
        reached over the :mod:`repro.hpc.fabric` descriptor transport
        (socket loopback by default, in-process sim fabric for
        deterministic tests), with pipelined framing and heartbeat
        death detection.  Results are bitwise-identical on all three;
        everything above the executor — routing, admission, versioned
        deploys, autoscaling — is backend-agnostic.  Process and host
        backends require engines that expose
        ``model``/``normalizer``/``boundary_width`` (i.e. real
        :class:`~repro.workflow.engine.ForecastEngine` replicas).
    fabric: host-backend transport — ``"socket"`` (real TCP loopback
        wire) or ``"sim"`` (deterministic in-process fabric with
        SimComm byte accounting).  Ignored by other backends.

    Thread safety: :meth:`submit` and :meth:`forecast_batch` may be
    called from any number of client threads; routing state is guarded
    by one pool-level lock held only for the (cheap, non-blocking)
    placement decision.  Topology mutations (:meth:`add_worker`,
    :meth:`remove_worker`, :meth:`deploy`) serialise on a separate
    re-entrant lock and never hold the routing lock across a drain, so
    serving continues while the control plane works.
    """

    def __init__(self, engines, replicas: Optional[int] = None,
                 max_batch: int = 8, max_queue: int = 32,
                 router: str = "least-outstanding",
                 autostart: bool = True, warm_plans: bool = False,
                 backend: str = "thread", fabric: str = "socket"):
        if hasattr(engines, "forecast_batch"):
            engines = [engines]
        engines = list(engines)
        if not engines:
            raise ValueError("need at least one engine")
        if replicas is not None:
            replicas = int(replicas)
            if replicas < 1:
                raise ValueError("replicas must be >= 1")
            if len(engines) == 1 and replicas > 1:
                engines = engines * replicas
            elif len(engines) != replicas:
                raise ValueError(
                    f"got {len(engines)} engines but replicas={replicas}")
        steps = {e.time_steps for e in engines}
        if len(steps) != 1:
            raise ValueError(
                f"all replicas must share one episode length; got {steps}")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = int(max_queue)
        self.router = Router.make(router)
        self.shed_requests = 0
        self._retry_fit: Optional[Tuple[int, ServingCapacityModel]] = None
        self._route_lock = threading.Lock()
        self._topology_lock = threading.RLock()
        self._manual = not autostart
        self._closed = False
        self._max_batch = int(max_batch)
        self._warm_plans = bool(warm_plans)
        if backend != "thread" and backend not in _REMOTE_WORKERS:
            raise ValueError(
                f"unknown backend {backend!r}; use 'thread', 'process' "
                "or 'host'")
        self.backend = backend
        # the fabric is the host worker's to validate
        self._remote_kwargs = {"fabric": fabric} if backend == "host" else {}
        self._spawn_log: List[float] = []
        distinct = []
        for e in engines:
            if not any(e is d for d in distinct):
                distinct.append(e)
        self.versions: Dict[int, EngineVersion] = {
            1: EngineVersion(1, tuple(distinct), "initial", time.time())}
        self.current_version = 1
        self.events: List[PoolEvent] = []
        self._retired: List[_Worker] = []
        self._next_worker_id = 0
        workers = []
        try:
            for engine in engines:
                workers.append(self._make_worker(engine, version=1))
        except BaseException:
            # a failed spawn must not leak the children (and their shm
            # segments) of the replicas already constructed
            for w in workers:
                w.scheduler.close()
                self._close_executor(w)
            raise
        self.workers: Tuple[_Worker, ...] = tuple(workers)
        self.metrics = PoolMetrics(self)

    def _all_workers(self) -> List[_Worker]:
        """Live + retired workers, a consistent snapshot."""
        with self._route_lock:
            return list(self.workers) + list(self._retired)

    def plan_stats(self) -> Dict[int, Dict]:
        """Per-distinct-executor plan-cache counters.

        Thread backend: replicas sharing one engine share its cache, so
        keys are the replica ids of the first worker using each engine.
        Process backend: every replica has its own child (its own plan
        cache and arena), so every live worker reports — including the
        shm transport's ``transport`` counters (``ipc_wait_s``,
        ``marshal_bytes``, spawn cost).
        """
        seen: Dict[int, Dict] = {}
        ids = set()
        for w in self.workers:
            target = w.executor if w.executor is not None \
                else w.scheduler.engine
            if id(target) in ids or not hasattr(target, "plan_stats"):
                continue
            ids.add(id(target))
            seen[w.worker_id] = target.plan_stats()
        return seen

    @property
    def mean_spawn_seconds(self) -> float:
        """Mean wall-clock to spawn + warm one process replica (0.0 for
        the thread backend, whose replicas are just objects).  The
        autoscaler reads this to stretch its scale-down hysteresis when
        replicas are expensive to bring back."""
        with self._route_lock:
            log = list(self._spawn_log)
        return sum(log) / len(log) if log else 0.0

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    # -- batch-executor protocol ---------------------------------------
    @property
    def time_steps(self) -> int:
        return self.workers[0].scheduler.time_steps

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Submit N windows and wait for all results (executor protocol).

        Unlike :meth:`submit` this never sheds: a window rejected by
        admission control is retried after the advertised
        ``retry_after`` (after an inline :meth:`flush` in manual mode),
        because batch consumers — an ensemble mid-forecast, a hybrid
        episode — cannot meaningfully drop individual members.  Must
        not be called from a scheduler worker thread.
        """
        futures: List[ServedFuture] = []
        for reference in references:
            while True:
                try:
                    futures.append(self.submit(reference))
                    break
                except PoolSaturated as exc:
                    if self._manual:
                        self.flush()
                    else:
                        time.sleep(min(exc.retry_after, 0.1))
        if self._manual:
            self.flush()
        return [f.result() for f in futures]

    def forecast(self, reference: FieldWindow,
                 key=None) -> ForecastResult:
        """Synchronous single-request convenience wrapper."""
        future = self.submit(reference, key=key)
        if self._manual:
            self.flush()
        return future.result()

    # -- client side ----------------------------------------------------
    def submit(self, reference: FieldWindow, key=None) -> ServedFuture:
        """Route one request to a replica; returns immediately.

        Parameters
        ----------
        reference: the request window (validated by the replica's
            scheduler: episode length, shared mesh).
        key: optional routing key.  Under :class:`KeyAffinityRouter`
            equal keys are guaranteed to land on one replica; other
            policies ignore it.

        Raises
        ------
        PoolSaturated
            when every replica the policy allows is at ``max_queue``;
            the exception's ``retry_after`` is the suggested back-off.
        The returned future's ``worker_id`` records the placement and
        ``engine_version`` pins the request to the admitting worker's
        :class:`EngineVersion` — the version whose engine will (and,
        once done, did) produce the result.
        """
        return self._route_submit(
            lambda worker: worker.scheduler.submit(reference), key)

    def submit_gradient(self, request, key=None) -> ServedFuture:
        """Route one sensitivity request to a replica; returns immediately.

        Same admission control, routing, and outstanding accounting as
        :meth:`submit`; the future resolves to a
        :class:`~repro.workflow.sensitivity.SensitivityResult`.  Only
        the thread backend serves gradients: the backward pass replays
        the autograd tape the forward built, and the process/host
        transports marshal arrays, not tapes.

        Raises
        ------
        NotImplementedError
            on the process/host backends — raised, with guidance, by
            the chosen replica's scheduler
            (:meth:`~repro.serve.scheduler.MicroBatchScheduler.submit_gradient`:
            its executor has no ``sensitivity_batch``); the admission
            is rolled back.
        PoolSaturated
            as for :meth:`submit`.
        """
        return self._route_submit(
            lambda worker: worker.scheduler.submit_gradient(request), key)

    def _route_submit(self, enqueue, key) -> ServedFuture:
        """Shared admission + routing core of :meth:`submit` /
        :meth:`submit_gradient`: choose a worker under the routing
        lock, account it as outstanding, and enqueue via
        ``enqueue(worker)``."""
        with self._route_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            # draining replicas (mid-deploy, scaling down) take no new
            # work; the router only ever sees the admissible set, so a
            # strict policy like key affinity re-shards over it instead
            # of shedding against a replica that is being retired
            admissible = [w for w in self.workers if not w.draining]
            if not admissible:
                raise RuntimeError("pool has no admissible replicas")
            outstanding = [w.outstanding for w in admissible]
            order = [admissible[i] for i in
                     self.router.candidates(key, len(admissible),
                                            outstanding)]
            chosen = next((w for w in order
                           if w.outstanding < self.max_queue), None)
            if chosen is None:
                self.shed_requests += 1
                if order:
                    order[0].shed += 1
                retry = self._retry_after_locked(
                    min((w.outstanding for w in order),
                        default=self.max_queue))
                raise PoolSaturated(
                    f"pool saturated: {len(order)} admissible replica(s) "
                    f"all at max_queue={self.max_queue}; retry in "
                    f"{retry:.3f}s", retry)
            worker = chosen
            worker.outstanding += 1
            worker.submitted += 1
            # enqueue while still holding the routing lock: a
            # concurrent remove_worker/deploy marks draining under this
            # same lock *before* closing the scheduler, so a request
            # placed here is guaranteed to be in the queue the drain
            # serves — without this, the worker could close in the gap
            # between placement and enqueue and the request would be
            # lost with a RuntimeError instead of served or shed
            try:
                future = enqueue(worker)
            except BaseException:
                worker.outstanding -= 1
                worker.submitted -= 1
                raise
        future.worker_id = worker.worker_id
        future.engine_version = worker.version
        future.add_done_callback(
            lambda fut, w=worker: self._request_done(w))
        return future

    def _request_done(self, worker: _Worker) -> None:
        with self._route_lock:
            worker.outstanding -= 1

    #: per-replica window of recent batch records the retry-after fit
    #: looks at — bounds the work done per shed on a long-lived pool
    RETRY_FIT_WINDOW = 128

    def _retry_after_locked(self, queue_depth: int) -> float:
        """Back-off estimate: modelled time for the least-loaded
        admissible replica to free one queue slot — the wall-clock of
        its next micro-batch, which serves at most ``max_batch`` of the
        queued requests.

        Runs under the routing lock on every shed, so it must stay
        cheap: the affine fit is over a bounded window of each
        replica's most recent batches (the current serving regime,
        which is also the statistically right window) and is cached
        until new batches land.
        """
        n_batches = sum(len(w.scheduler.metrics.batches)
                        for w in self.workers)
        if self._retry_fit is None or self._retry_fit[0] != n_batches:
            records = [
                b for w in self.workers
                for b in w.scheduler.metrics.batches[-self.RETRY_FIT_WINDOW:]
                if not b.failed]
            if not records:
                return 1e-3     # nothing observed yet
            self._retry_fit = (n_batches,
                               ServingCapacityModel.from_batch_log(records))
        model = self._retry_fit[1]
        next_batch = min(max(queue_depth, 1), self._max_batch)
        return model.dispatch_seconds \
            + model.per_request_seconds * next_batch

    # -- capacity -------------------------------------------------------
    def capacity_model(self) -> ServingCapacityModel:
        """Fit the per-replica affine batch-cost law from the pool's
        aggregated batch log (see
        :meth:`ServingCapacityModel.from_batch_log`)."""
        return ServingCapacityModel.from_batch_log(self.metrics.batches)

    # -- control plane: topology ----------------------------------------
    def _make_worker(self, engine, version: int) -> _Worker:
        """Construct one fully-warmed replica (not yet routable).

        Process/host backends: the engine is wrapped in the backend's
        :class:`~repro.serve.remote.RemoteWorker` whose remote is
        spawned, warmed (every plan already compiled on the engine
        ships with the payload, plus the whole ``max_batch`` bucket set
        when the pool warms plans — so partial batches hit compiled
        buckets from the first flush) and handshaken *here* — before
        the replica can become routable — so traffic never reaches a
        cold or half-born child.
        """
        warm = self._warm_plans and hasattr(engine, "compile")
        executor = engine
        if self.backend in _REMOTE_WORKERS:
            executor = _REMOTE_WORKERS[self.backend](
                engine,
                warm_batches=plan_buckets(self._max_batch)
                if warm else (),
                **self._remote_kwargs)
            with self._route_lock:
                self._spawn_log.append(executor.spawn_seconds)
        try:
            scheduler = MicroBatchScheduler(
                executor, max_batch=self._max_batch,
                autostart=not self._manual, warm_plans=warm)
        except BaseException:
            # the remote is already spawned: without this its child and
            # shm segments would outlive the failed construction
            if executor is not engine:
                executor.close()
            raise
        with self._route_lock:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        worker = _Worker(worker_id, scheduler, version=version,
                         engine=engine, executor=executor)
        if executor is not engine:
            executor.on_death = \
                lambda _pw, w=worker: self._on_executor_death(w)
        return worker

    def _close_executor(self, worker: _Worker) -> None:
        """Tear down a pool-owned executor wrapper (the child process
        and its shared-memory segments); caller-owned engines are left
        alone.  Always called *after* the worker's scheduler closed —
        by then every queued request was served or failed, so nothing
        can still need the executor."""
        if worker.executor is not None \
                and worker.executor is not worker.engine:
            worker.executor.close()

    def _on_executor_death(self, worker: _Worker) -> None:
        """A remote replica's executor died.  Runs on whatever thread hit
        the dead transport — typically the worker's own scheduler
        thread, mid-``_run_batch`` — so it only flags the replica
        inadmissible (cheap, under the routing lock) and hands the
        blocking retirement to a helper thread; closing the scheduler
        inline would self-join the thread we are standing on."""
        with self._route_lock:
            if self._closed or worker.draining \
                    or not any(w is worker for w in self.workers):
                return
            worker.draining = True
            self.events.append(PoolEvent(
                "worker-death", time.time(), len(self.workers),
                worker.version,
                f"worker {worker.worker_id} executor died: "
                f"{worker.executor.death_reason}"))
        # the executor is already dead, so the scheduler's close() fails
        # any backlog fast instead of serving it — failed futures,
        # never hangs
        threading.Thread(
            target=self._retire,
            args=(worker, "worker-retired",
                  f"worker {worker.worker_id} retired after executor death"),
            name=f"retire-worker-{worker.worker_id}", daemon=True).start()

    def _retire(self, worker: _Worker, kind: str, detail: str) -> None:
        """The tail of every retirement, for a replica already flagged
        ``draining``.  Runs outside the routing lock (completion
        callbacks need it): scheduler first — drains or fails every
        admitted request — executor second, so a child process and its
        shm segments are reclaimed only once nothing can still reach
        them; then the replica moves to the metrics history."""
        worker.scheduler.close()
        self._close_executor(worker)
        with self._route_lock:
            if any(w is worker for w in self.workers):
                self.workers = tuple(w for w in self.workers
                                     if w is not worker)
                self._retired.append(worker)
                self.events.append(PoolEvent(
                    kind, time.time(), len(self.workers), worker.version,
                    detail))

    def add_worker(self, engine=None, version: Optional[int] = None,
                   kind: str = "scale-up", detail: str = "") -> _Worker:
        """Spawn one replica and admit it to routing; returns it.

        The replica is fully constructed — scheduler, worker thread,
        compiled-plan warmup when the pool warms plans — *before* it
        becomes routable, so scaling up never exposes a cold replica to
        traffic.  With no ``engine`` the current version's engine is
        shared (the standard scale-up; replicas sharing one
        :class:`~repro.workflow.engine.ForecastEngine` also share its
        plan cache, so the warmup is a cache hit).
        """
        with self._topology_lock:
            with self._route_lock:
                if self._closed:
                    raise RuntimeError("pool is closed")
                if version is None:
                    version = self.current_version
                if engine is None:
                    engine = self.versions[version].engines[0]
            if engine.time_steps != self.time_steps:
                raise ValueError(
                    f"engine time_steps {engine.time_steps} != pool "
                    f"{self.time_steps}")
            worker = self._make_worker(engine, version)
            with self._route_lock:
                self.workers = (*self.workers, worker)
                self.events.append(PoolEvent(
                    kind, time.time(), len(self.workers), version, detail))
            return worker

    def remove_worker(self, worker_id: int, kind: str = "scale-down",
                      detail: str = "") -> None:
        """Drain one replica and retire it.

        The replica first leaves the routable set (no new admissions),
        then its scheduler is closed — which serves every request it
        had already admitted on the engine (and version) that admitted
        them, so nothing is lost or re-routed — and finally it retires
        into the metrics history.  Blocks until the drain completes; in
        manual mode the backlog is served inline.  Refuses to remove
        the last admissible replica.
        """
        with self._topology_lock:
            with self._route_lock:
                worker = next((w for w in self.workers
                               if w.worker_id == worker_id), None)
                if worker is None:
                    raise ValueError(f"no live worker {worker_id}")
                if worker.draining:
                    raise ValueError(f"worker {worker_id} already draining")
                if sum(not w.draining for w in self.workers) <= 1:
                    raise ValueError(
                        "cannot remove the last admissible replica")
                worker.draining = True
            self._retire(worker, kind, detail)

    # -- control plane: versioned deploys -------------------------------
    def deploy(self, engine, source: str = "deploy") -> EngineVersion:
        """Roll a new engine version through the pool, zero-downtime.

        Replica by replica: a warmed new-version replica is *surged*
        into the routable set first, then one old replica is drained
        (its already-admitted requests finish on the version that
        admitted them — that is the bitwise version-pinning guarantee)
        and retired.  Capacity therefore never drops below the
        pre-deploy width and nothing is shed on the deploy's account.

        An engine that can ``compile`` is warmed *before* the pool is
        touched: the sizes the outgoing engines had compiled plus the
        whole ``max_batch`` bucket set, so partial batches keep hitting
        compiled plans across the version roll.  A warmup failure
        raises :class:`DeploymentError` with the pool untouched.

        Parameters
        ----------
        engine: the new version's batch executor; all rolled replicas
            share it (inference is read-only, like ``replicas=N``).
        source: human-readable provenance recorded on the
            :class:`EngineVersion` (e.g. a checkpoint path).

        Raises
        ------
        DeploymentError
            warmup failed (pool untouched) or the roll failed midway
            (pool rolled back to the previous version and topology);
            the underlying failure is chained.
        """
        if not (hasattr(engine, "forecast_batch")
                and hasattr(engine, "time_steps")):
            raise TypeError(
                "deploy() needs a batch executor (forecast_batch + "
                "time_steps)")
        if engine.time_steps != self.time_steps:
            raise ValueError(
                f"new engine time_steps {engine.time_steps} != pool "
                f"{self.time_steps}")
        with self._topology_lock:
            with self._route_lock:
                if self._closed:
                    raise RuntimeError("pool is closed")
                old_workers = [w for w in self.workers if not w.draining]
                old_version = self.current_version
            # 1. warm the new engine before touching the pool: a failed
            # warmup must leave serving exactly as it was
            if hasattr(engine, "compile"):
                sizes = set(plan_buckets(self._max_batch))
                for w in old_workers:
                    sizes.update(
                        getattr(w.engine, "compiled_batches", None) or [])
                try:
                    for b in sorted(sizes):
                        engine.compile(b)
                except BaseException as exc:
                    raise DeploymentError(
                        f"warmup of {source!r} failed; pool unchanged "
                        f"(still serving version {old_version})") from exc
            # 2. register the version and roll replica by replica
            with self._route_lock:
                version = max(self.versions) + 1
                record = EngineVersion(version, (engine,), source,
                                       time.time())
                self.versions[version] = record
                self.events.append(PoolEvent(
                    "deploy-begin", time.time(), len(self.workers),
                    version, source))
            added: List[_Worker] = []
            drained: List[_Worker] = []
            try:
                for old in old_workers:
                    added.append(self.add_worker(
                        engine, version, kind="deploy-surge",
                        detail=f"replacing worker {old.worker_id}"))
                    self.remove_worker(
                        old.worker_id, kind="deploy-drain",
                        detail=f"version {old.version} replica drained")
                    drained.append(old)
            except BaseException as exc:
                # 3a. roll back: re-admit one replica per drained old
                # worker (their engines are intact), retire the new ones
                for old in drained:
                    self.add_worker(
                        old.engine, old.version,
                        kind="deploy-rollback",
                        detail=f"restoring worker {old.worker_id}'s engine")
                for w in added:
                    try:
                        self.remove_worker(w.worker_id,
                                           kind="deploy-rollback")
                    except ValueError:
                        pass
                with self._route_lock:
                    self.versions.pop(version, None)
                    self.events.append(PoolEvent(
                        "deploy-rollback", time.time(), len(self.workers),
                        version, repr(exc)))
                raise DeploymentError(
                    f"deploy of {source!r} failed mid-roll; rolled back "
                    f"to version {old_version}") from exc
            # 3b. promote
            with self._route_lock:
                self.current_version = version
                self.events.append(PoolEvent(
                    "deploy-done", time.time(), len(self.workers),
                    version, source))
            return record

    # -- manual drive ---------------------------------------------------
    def flush(self) -> int:
        """Drain every replica's queue now; returns requests served.

        Manual-mode scheduling quantum at pool granularity; loops until
        a full sweep over the replicas serves nothing, so requests
        enqueued by completion callbacks are drained too.
        """
        total = 0
        while True:
            n = sum(w.scheduler.flush() for w in self.workers)
            if n == 0:
                return total
            total += n

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop admission, serve every replica's backlog, join workers.

        Schedulers close first (drain-or-fail every queued request),
        then the process backend's executors — children stopped, every
        shared-memory segment unlinked."""
        with self._route_lock:
            self._closed = True
        for w in self.workers:
            w.scheduler.close()
        for w in self.workers:
            self._close_executor(w)

    def __enter__(self) -> "EngineWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
