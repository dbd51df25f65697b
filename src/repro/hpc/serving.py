"""Serving capacity model: micro-batch latency → sustainable load.

On every backend the engine's batch wall-clock is well described by an
affine law ``seconds(B) ≈ a + b·B`` — a fixed dispatch cost ``a``
(layer/kernel launch overhead, Python orchestration) plus a marginal
per-request cost ``b``.  Micro-batching amortises ``a`` over the batch;
throughput ``B / (a + b·B)`` therefore rises with occupancy and
saturates at ``1/b`` requests per second.  Fitting (``a``, ``b``) from
a scheduler's :class:`~repro.serve.scheduler.BatchRecord` log yields
the capacity numbers an operator actually plans with: the saturation
QPS of one engine replica and the smallest ``max_batch`` that reaches a
target fraction of it within a latency budget.

A replica pool (:class:`~repro.serve.pool.EngineWorkerPool`) adds the
second axis: :class:`PoolCapacityModel` extends the per-replica law to
pool-level saturation throughput vs replica count through a serial
contention fraction (Amdahl form), fitted from observed
(worker count, achieved QPS) pairs read off live pool metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class ServingCapacityModel:
    """Affine micro-batch cost model ``seconds(B) = a + b·B``.

    Attributes
    ----------
    dispatch_seconds: fixed per-forward cost ``a`` [s].
    per_request_seconds: marginal cost ``b`` of one more request in
        the batch [s].
    """

    dispatch_seconds: float
    per_request_seconds: float

    # -- construction ---------------------------------------------------
    @staticmethod
    def fit(batch_sizes: Sequence[int], batch_seconds: Sequence[float]
            ) -> "ServingCapacityModel":
        """Least-squares fit over observed (size, wall-clock) pairs.

        With a single distinct batch size the affine split is not
        identifiable; the cost is then attributed entirely to the
        marginal term (``a = 0``), which makes the model conservative
        (it under-states the batching win instead of inventing one).
        """
        sizes = np.asarray(batch_sizes, dtype=np.float64)
        secs = np.asarray(batch_seconds, dtype=np.float64)
        if sizes.size == 0 or sizes.size != secs.size:
            raise ValueError("need equal, non-zero observation counts")
        if np.unique(sizes).size < 2:
            return ServingCapacityModel(0.0, float(np.mean(secs / sizes)))
        b, a = np.polyfit(sizes, secs, 1)
        return ServingCapacityModel(max(float(a), 0.0),
                                    max(float(b), 1e-12))

    @staticmethod
    def from_batch_log(records) -> "ServingCapacityModel":
        """Fit from a scheduler's ``metrics.batches`` log.

        Failed batches are excluded — an engine call that raised did
        not observe a service time, and an immediate raise would drag
        the fit toward zero.
        """
        ok = [r for r in records if not getattr(r, "failed", False)]
        return ServingCapacityModel.fit([r.size for r in ok],
                                        [r.seconds for r in ok])

    # -- predictions ----------------------------------------------------
    def batch_seconds(self, batch: int) -> float:
        """Modelled wall-clock of one micro-batch of ``batch`` requests."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return self.dispatch_seconds + self.per_request_seconds * batch

    def throughput(self, batch: int) -> float:
        """Requests/second at steady occupancy ``batch``."""
        return batch / self.batch_seconds(batch)

    @property
    def saturation_throughput(self) -> float:
        """Occupancy → ∞ limit: ``1 / b`` requests per second."""
        return 1.0 / self.per_request_seconds

    def optimal_batch(self, latency_slo_seconds: float,
                      max_batch: int = 1024) -> int:
        """Largest occupancy whose batch wall-clock fits the SLO.

        Returns at least 1 (a lone request cannot shrink below the
        dispatch cost) and at most ``max_batch``.
        """
        if latency_slo_seconds <= 0:
            raise ValueError("latency SLO must be positive")
        budget = latency_slo_seconds - self.dispatch_seconds
        best = int(budget / self.per_request_seconds)
        return max(1, min(best, int(max_batch)))


@dataclass(frozen=True)
class PoolCapacityModel:
    """Pool saturation throughput vs replica count (Amdahl form).

    With ``X₁`` one replica's saturated QPS, a pool of ``n`` replicas
    delivers

        ``X(n) = n · X₁ / (1 + σ · (n − 1))``

    where ``σ ∈ [0, 1]`` is the *serial contention fraction* — the
    share of per-request work the replicas cannot actually overlap
    (routing/admission under the pool lock, the Python interpreter's
    GIL between NumPy kernels, memory-bandwidth saturation).  ``σ = 0``
    is perfect sharding (linear in ``n``); ``σ = 1`` means replicas buy
    nothing (a single-core host).  The asymptote is ``X₁/σ``.

    ``X₁`` must be the throughput one replica *actually achieves*
    under the deployed flush policy — ``B/(a + b·B)`` at the real
    occupancy, not the occupancy→∞ limit ``1/b`` — otherwise the
    finite-batch shortfall masquerades as contention.  :meth:`fit`
    therefore prefers a measured single-replica observation as the
    baseline and only falls back to the affine law's asymptote.

    Attributes
    ----------
    replica: the fitted per-replica affine law (kept for reference
        and as the ``X₁`` fallback).
    contention: the serial fraction ``σ``.
    single_replica_qps: measured ``X₁`` baseline; ``None`` falls back
        to ``replica.saturation_throughput``.
    """

    replica: ServingCapacityModel
    contention: float = 0.0
    single_replica_qps: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.contention <= 1.0:
            raise ValueError("contention must be in [0, 1]")
        if self.single_replica_qps is not None \
                and self.single_replica_qps <= 0:
            raise ValueError("single_replica_qps must be positive")

    @property
    def baseline_throughput(self) -> float:
        """``X₁``: the single-replica saturated QPS the model scales."""
        if self.single_replica_qps is not None:
            return self.single_replica_qps
        return self.replica.saturation_throughput

    # -- construction ---------------------------------------------------
    @staticmethod
    def fit(replica: ServingCapacityModel, worker_counts: Sequence[int],
            achieved_qps: Sequence[float]) -> "PoolCapacityModel":
        """Fit ``σ`` from observed (worker count, saturated QPS) pairs.

        The ``X₁`` baseline is the mean of the single-replica
        observations when any are present (the consistent,
        same-flush-policy baseline), else the affine law's asymptote.
        Each multi-replica observation then gives a direct estimate
        ``σ = (n·X₁/X − 1)/(n − 1)``; the fit averages them, clipped
        into [0, 1] (measurement noise can push a lone estimate
        slightly outside).  With no multi-replica observation the fit
        is conservative (``σ = 1``: promise no pool win that was never
        measured).
        """
        ns = np.asarray(worker_counts, dtype=np.float64)
        xs = np.asarray(achieved_qps, dtype=np.float64)
        if ns.size == 0 or ns.size != xs.size:
            raise ValueError("need equal, non-zero observation counts")
        base = (ns == 1) & (xs > 0)
        measured_x1 = float(np.mean(xs[base])) if base.any() else None
        x1 = measured_x1 if measured_x1 is not None \
            else replica.saturation_throughput
        mask = (ns > 1) & (xs > 0)
        if not mask.any():
            return PoolCapacityModel(replica, 1.0, measured_x1)
        sigma = (ns[mask] * x1 / xs[mask] - 1.0) / (ns[mask] - 1.0)
        return PoolCapacityModel(
            replica, float(np.clip(np.mean(sigma), 0.0, 1.0)), measured_x1)

    # -- predictions ----------------------------------------------------
    def saturation_throughput(self, workers: int) -> float:
        """Modelled saturated QPS of a pool of ``workers`` replicas."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        x1 = self.baseline_throughput
        return workers * x1 / (1.0 + self.contention * (workers - 1))

    def speedup(self, workers: int) -> float:
        """Pool-over-single-replica saturation throughput ratio."""
        return self.saturation_throughput(workers) \
            / self.saturation_throughput(1)

    @property
    def asymptotic_throughput(self) -> float:
        """``workers → ∞`` limit: ``X₁/σ`` (infinite when ``σ = 0``)."""
        x1 = self.baseline_throughput
        return float("inf") if self.contention == 0 else x1 / self.contention

    def optimal_workers(self, target_qps: float,
                        max_workers: int = 256) -> Optional[int]:
        """Smallest replica count whose modelled saturation throughput
        reaches ``target_qps``, or ``None`` if no pool of up to
        ``max_workers`` can (the target exceeds the contention
        asymptote or the cap)."""
        if target_qps <= 0:
            raise ValueError("target throughput must be positive")
        for n in range(1, int(max_workers) + 1):
            if self.saturation_throughput(n) >= target_qps:
                return n
        return None

    def required_workers(self, demand_qps: float,
                         target_utilization: float = 0.7,
                         max_workers: int = 256) -> Optional[int]:
        """Smallest replica count serving ``demand_qps`` at or below
        ``target_utilization`` of modelled saturation — the autoscaling
        form of :meth:`optimal_workers` (running replicas *at*
        saturation leaves no headroom for queueing transients, so the
        live target is demand over a utilisation fraction, not demand
        itself).  ``None`` when no pool of up to ``max_workers``
        reaches it."""
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        return self.optimal_workers(demand_qps / target_utilization,
                                    max_workers=max_workers)
