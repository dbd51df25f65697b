"""Serving subsystem: micro-batching, caching, sharding, front door.

Turns independent incoming forecast requests into the batched
forwards of :class:`~repro.workflow.engine.ForecastEngine` — the layer
that converts per-call speed into system throughput:

- :mod:`repro.serve.scheduler` — request queue + work-conserving
  dynamic micro-batching (a free executor runs up to ``max_batch`` of
  what is queued; batches form while it is busy), with
  occupancy/latency metrics;
- :mod:`repro.serve.cache` — keyed LRU cache of completed forecasts;
- :mod:`repro.serve.pool` — N engine replicas behind a named routing
  policy (round-robin, least-outstanding, key-affinity sharding) with
  bounded queues, explicit shed-with-retry-after backpressure (the
  back-off priced by the fitted ``ServingCapacityModel``), and the
  control plane: a dynamic worker set plus zero-downtime versioned
  deploys (``EngineWorkerPool.deploy``);
- :mod:`repro.serve.remote` — the one worker protocol of the
  out-of-process tiers: spawn payload (weights + compiled plans,
  shipped once), ``EngineService`` (the op table and the single serve
  loop / error policy) and the ``RemoteWorker`` client base (the one
  request/response exchange and the idle watchdog).  A tier is this
  protocol plus a codec plus a liveness source:
- :mod:`repro.serve.procpool` — ``backend="process"``: the shm codec
  (arrays in shared-memory segments, descriptors on a pipe, arena in
  shared memory) with process-sentinel liveness, escaping the GIL the
  thread backend serialises on;
- :mod:`repro.serve.hostpool` — ``backend="host"``: the frame codec
  (one :mod:`repro.hpc.fabric` descriptor frame per message, socket
  wire or deterministic sim fabric) with heartbeat liveness;
- :mod:`repro.serve.autoscale` — load-adaptive ``AutoScaler`` growing
  and shrinking the live worker count between bounds;
- :mod:`repro.serve.server` — routes plain, gradient, ensemble, and
  hybrid requests through the replica pool (a single-engine deployment
  is the pool of 1) and fronts the operations API (``deploy``,
  ``enable_autoscaling``).

Gradient requests (``ForecastServer.submit_sensitivity``) ride the
same scheduler/pool/cache machinery as forecasts on the thread
backend; see ``docs/differentiation.md``.

The package namespace carries the names code outside ``serve/``
imports from it; records and helper types (``ServedFuture``,
``ServeMetrics``, ``PoolMetrics``, ``EngineVersion``, …) live in their
modules.

See ``docs/architecture.md`` for how the pieces compose and
``docs/serving.md`` for the tuning guide (including the Operations
section).
"""

from .cache import ForecastCache
from .pool import EngineWorkerPool, PoolSaturated, ServingCapacityModel
from .server import ForecastServer

__all__ = [
    "ForecastCache",
    "EngineWorkerPool",
    "PoolSaturated",
    "ServingCapacityModel",
    "ForecastServer",
]
