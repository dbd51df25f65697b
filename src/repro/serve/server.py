"""Serving front door: a replica pool behind three request kinds.

:class:`ForecastServer` routes

* **plain forecasts** — deduplicated through the keyed result cache,
  then routed to an engine replica by the pool's policy and coalesced
  by that replica's micro-batching scheduler;
* **gradient requests** — sensitivity queries
  (:class:`~repro.workflow.sensitivity.GradientRequest`) served by the
  engines' adjoint path with the same cache/dedup/routing machinery,
  keyed by :func:`~repro.serve.cache.gradient_key` (thread backend
  only; see ``docs/differentiation.md``);
* **ensemble requests** — the N perturbed members are sharded across
  the pool's batch slots (they interleave with unrelated traffic
  instead of monopolising a forward).

All three reuse the exact direct-call code paths — the pool is just
another batch executor — so served numbers equal direct numbers.  The
single-engine deployment is not a separate code path either: it is the
pool of 1 (``workers=1``, the default).

The server is also the operations front door (PR 5):
:meth:`ForecastServer.deploy` hot-swaps a new model or engine
through the pool with zero downtime (and invalidates the result
cache, whose entries were computed by the outgoing weights), and
:meth:`ForecastServer.enable_autoscaling` attaches a load-adaptive
:class:`~repro.serve.autoscale.AutoScaler` to the pool.  See the
Operations section of ``docs/serving.md``.

When the pool is saturated (every admissible replica at its queue
bound), :meth:`submit` propagates the pool's
:class:`~repro.serve.pool.PoolSaturated` so the client can back off by
its ``retry_after`` — the server never queues unboundedly.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional

from ..workflow.engine import FieldWindow, ForecastResult
from ..workflow.ensemble import EnsembleForecast, EnsembleForecaster
from ..workflow.sensitivity import GradientRequest
from .autoscale import AutoScaler
from .cache import ForecastCache, gradient_key, window_key
from .pool import EngineVersion, EngineWorkerPool
from .scheduler import MicroBatchScheduler, ServedFuture

#: width of the ``serve-run`` pool that ensemble runs execute on
_RUN_WORKERS = 2


class ForecastServer:
    """Pooled serving endpoint with micro-batching and caching.

    Parameters
    ----------
    engine: the batch executor (``forecast_batch`` + ``time_steps``)
        every replica serves (see
        :class:`~repro.serve.pool.EngineWorkerPool`).
    workers: replica-pool width; the default 1 is the single-engine
        deployment.
    router: pool routing policy, one of
        :data:`~repro.serve.pool.ROUTERS`.  Under ``"key-affinity"``
        the server keys every request by its content digest, so
        duplicate scenarios meet on one replica; under the other two
        it computes no digest unless the result cache needs one.
    max_batch: per-replica micro-batch bound
        (:class:`MicroBatchScheduler`).
    max_wait: unused — the scheduler is work-conserving and has no
        flush timer.  Still accepted (and checked ``>= 0``) only
        because ``benchmarks/e2e/workloads.py`` passes it.
    max_queue: per-replica outstanding-request bound; beyond it
        :meth:`submit` raises
        :class:`~repro.serve.pool.PoolSaturated`.
    cache_bytes: result-cache budget; 0 disables caching.
    backend, fabric: replica execution tier —
        ``backend="process"`` runs each replica's engine in a child
        process behind shared-memory transport, escaping the GIL;
        ``backend="host"`` runs it on a remote rank behind the
        :mod:`repro.hpc.fabric` descriptor transport (``fabric``
        selects ``"socket"`` wire or the deterministic ``"sim"``
        fabric).  See :class:`~repro.serve.pool.EngineWorkerPool` and
        ``docs/serving.md``.  Default stays ``"thread"``.
    autostart: ``False`` makes every replica scheduler manual — no
        worker threads; callers drive batching explicitly through
        :meth:`flush`.  The deterministic mode the scenario harness's
        virtual clock replays traces in.

    Thread safety: every public method may be called concurrently from
    any number of client threads.
    """

    def __init__(self, engine, max_batch: int = 8, max_wait: float = 0.005,
                 cache_bytes: int = 0,
                 workers: int = 1,
                 router: str = "least-outstanding",
                 max_queue: int = 32,
                 backend: str = "thread", fabric: str = "socket",
                 autostart: bool = True):
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self.pool = EngineWorkerPool(engine, replicas=workers,
                                     max_batch=max_batch,
                                     max_queue=max_queue, router=router,
                                     backend=backend, fabric=fabric,
                                     autostart=autostart)
        self.cache = ForecastCache(cache_bytes) if cache_bytes > 0 else None
        # ensemble runs execute here, off the caller's thread
        # and off every replica's batch loop
        self._pool = ThreadPoolExecutor(
            max_workers=_RUN_WORKERS, thread_name_prefix="serve-run")
        # in-flight dedup: identical requests that arrive before the
        # first result lands follow one leader instead of each taking
        # an engine batch slot
        self._inflight: Dict[str, ServedFuture] = {}
        self._inflight_lock = threading.Lock()
        self.deduped_requests = 0
        self._autoscaler: Optional[AutoScaler] = None

    @property
    def scheduler(self) -> MicroBatchScheduler:
        """Replica 0's scheduler — *the* scheduler of a ``workers=1``
        deployment (kept for single-engine introspection; pool-wide
        numbers live in :meth:`metrics`)."""
        return self.pool.workers[0].scheduler

    # -- plain forecasts ------------------------------------------------
    def submit(self, reference: FieldWindow,
               route_key: Optional[str] = None) -> ServedFuture:
        """Queue one forecast; cache hits complete immediately.

        ``route_key`` overrides the pool routing key (the content
        digest by default): under ``"key-affinity"`` it pins a whole
        request *stream* — e.g. every request for one basin — to a
        replica, while the result cache stays keyed by content, so
        locality and dedup compose.

        Raises :class:`~repro.serve.pool.PoolSaturated` (with a
        ``retry_after`` hint) when admission control sheds the request.
        """
        return self._submit_keyed(
            window_key, lambda key: self.pool.submit(reference, key=key),
            reference, route_key)

    def _submit_keyed(self, key_of, pool_submit, payload,
                      route_key: Optional[str]) -> ServedFuture:
        """Cache hit → in-flight dedup → pool submit → settle, shared by
        :meth:`submit` and :meth:`submit_sensitivity`: ``key_of(payload)``
        is the content digest, ``pool_submit(route key)`` the admission."""
        if self.cache is None:
            # content digests are not free: only computed when the
            # routing policy actually reads keys
            if route_key is None and self.pool.router == "key-affinity":
                route_key = key_of(payload)
            return pool_submit(route_key)
        key = key_of(payload)
        cached = self.cache.get(key)
        if cached is not None:
            future = self._hit_future()
            future.batch_size = 0
            future.queue_seconds = future.latency_seconds = 0.0
            future.engine_version = cached.engine_version
            future.set_result(cached)
            return future
        with self._inflight_lock:
            leader = self._inflight.get(key)
            if leader is not None:
                # identical request already queued: follow it instead
                # of occupying another engine batch slot
                self.deduped_requests += 1
                follower = self._hit_future()
                leader.add_done_callback(
                    lambda fut: self._follow(follower, fut))
                return follower
            future = pool_submit(route_key if route_key is not None else key)
            self._inflight[key] = future
        # settle the cache the moment the micro-batch lands — a done
        # callback, so no pool thread sits blocked per miss
        future.add_done_callback(lambda fut: self._settle(key, fut))
        return future

    @staticmethod
    def _hit_future() -> ServedFuture:
        """A future answered without an engine batch slot of its own."""
        future = ServedFuture(request_id=-1)
        future.cache_hit = True
        return future

    @staticmethod
    def _follow(follower: ServedFuture, leader: ServedFuture) -> None:
        try:
            result = leader.result(timeout=0)
        except BaseException as exc:     # noqa: BLE001 — mirror the leader
            follower.set_exception(exc)
            return
        # private copy: leader and follower consumers mutate freely;
        # the follower is pinned to the leader's engine version (its
        # result IS the leader's result)
        follower.engine_version = leader.engine_version
        copy = result.copy()
        copy.engine_version = leader.engine_version
        follower.set_result(copy)

    def _settle(self, key: str, future: ServedFuture) -> None:
        try:
            result = future.result(timeout=0)
            # label the cached entry with the version that computed it;
            # a request pinned to an outgoing version must not settle
            # into the cache after deploy() already invalidated it —
            # that would serve the old weights as hits indefinitely
            result.engine_version = future.engine_version
            if future.engine_version == self.pool.current_version:
                self.cache.put(key, result)
        except Exception:        # noqa: BLE001 — a failed request caches nothing
            pass
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)

    def forecast(self, reference: FieldWindow) -> ForecastResult:
        """Synchronous plain forecast."""
        future = self.submit(reference)
        if self.pool._manual:
            self.flush()
        return future.result()

    # -- gradient requests ----------------------------------------------
    def submit_sensitivity(self, request: GradientRequest) -> ServedFuture:
        """Queue one sensitivity request; cache hits complete immediately.

        The adjoint analogue of :meth:`submit`: the future resolves to
        a :class:`~repro.workflow.sensitivity.SensitivityResult` whose
        gradients are bitwise-identical to a direct
        :meth:`~repro.workflow.engine.ForecastEngine.sensitivity_batch`
        call on the micro-batch the request landed in.  Caching and
        in-flight dedup key on :func:`~repro.serve.cache.gradient_key`
        (window digest + diagnostic + ``wrt`` + observation digest +
        storm parameters), a disjoint namespace from forecast keys.

        Raises
        ------
        NotImplementedError
            on process/host backends — the backward pass needs the
            autograd graph in the serving process (the exception text
            carries the supported alternatives).
        PoolSaturated
            when admission control sheds the request, as for
            :meth:`submit`.
        """
        return self._submit_keyed(
            gradient_key,
            lambda key: self.pool.submit_gradient(request, key=key),
            request, None)

    def flush(self) -> int:
        """Drain every replica's backlog inline (manual servers —
        ``autostart=False``); returns the number of requests served.
        Cache fills and dedup followers settle before this returns,
        because completion callbacks run on the flushing thread."""
        return self.pool.flush()

    # -- ensembles ------------------------------------------------------
    def submit_ensemble(self, reference: FieldWindow, n_members: int = 8,
                        **kwargs) -> "Future[EnsembleForecast]":
        """Run an IC-perturbation ensemble through the replica pool.

        The members are sharded across the pool's batch slots;
        ``kwargs`` forward to
        :class:`~repro.workflow.ensemble.EnsembleForecaster`.
        """
        ens = EnsembleForecaster(self.pool, n_members=n_members,
                                 **kwargs)
        return self._pool.submit(ens.forecast, reference)

    # -- operations -----------------------------------------------------
    def deploy(self, model_or_engine) -> EngineVersion:
        """Hot-swap a new model through the pool with zero downtime.

        Accepts either

        * a batch executor (``forecast_batch`` + ``time_steps``, e.g. a
          :class:`~repro.workflow.engine.ForecastEngine` already wrapped
          around the new weights) — used as-is; or
        * a bare model — wrapped via :meth:`ForecastEngine.with_model`
          around the live engine's normaliser.

        The pool rolls the new :class:`~repro.serve.pool.EngineVersion`
        replica-by-replica (surge, drain, retire): capacity never
        drops, in-flight requests finish bitwise-identical on the
        version that admitted them, and a failed warmup raises with
        serving untouched.
        On success the result cache is invalidated — its entries were
        computed by the outgoing weights.
        """
        if hasattr(model_or_engine, "forecast_batch") \
                and hasattr(model_or_engine, "time_steps"):
            engine = model_or_engine
            source = f"deploy({type(engine).__name__})"
        else:
            template = next(
                (w.engine for w in self.pool.workers
                 if hasattr(w.engine, "with_model")), None)
            if template is None:
                raise ValueError(
                    "deploying a bare model needs a ForecastEngine-backed "
                    "pool; pass an engine instead")
            engine = template.with_model(model_or_engine)
            source = f"model:{type(model_or_engine).__name__}"
        version = self.pool.deploy(engine, source=source)
        if self.cache is not None:
            self.cache.clear()
        # new arrivals must not follow an old-version in-flight leader;
        # the leaders themselves finish normally (their own clients are
        # correctly pinned to the version that admitted them) and their
        # _settle pops are tolerant of the missing entries
        with self._inflight_lock:
            self._inflight.clear()
        return version

    def enable_autoscaling(self, **knobs) -> AutoScaler:
        """Attach a load-adaptive :class:`~repro.serve.autoscale.AutoScaler`
        to the pool (``knobs`` forward to its constructor — including
        ``interval`` for the background tick thread) and start it.
        Idempotent per server: the previous scaler is stopped first.
        The scaler is stopped automatically on :meth:`close`.
        """
        if self._autoscaler is not None:
            self._autoscaler.close()
        self._autoscaler = AutoScaler(self.pool, **knobs)
        self._autoscaler.start()
        return self._autoscaler

    # -- observability --------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Pool-wide occupancy/latency/shed (incl.
        ``engine_version``/``deploys``/``scale_events`` from the
        control plane) plus cache effectiveness; the plan counters are
        the engines' own (``pool.plan_stats()``)."""
        out = self.pool.metrics.summary()
        out["deduped_requests"] = self.deduped_requests
        if self.cache is not None:
            out.update({
                "cache_hits": self.cache.stats.hits,
                "cache_misses": self.cache.stats.misses,
                "cache_hit_rate": self.cache.stats.hit_rate,
                "cache_evictions": self.cache.stats.evictions,
                "cache_resident_bytes": self.cache.resident_bytes,
            })
        return out

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._autoscaler is not None:
            self._autoscaler.close()
        self._pool.shutdown(wait=True)
        self.pool.close()

    def __enter__(self) -> "ForecastServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
