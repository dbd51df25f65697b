"""Load-adaptive autoscaling of the engine replica pool.

The pool's width is a provisioning knob; this module sets it at
runtime.  An :class:`AutoScaler` periodically samples the pool —
sheds and outstanding backlog — into a
:class:`LoadSample`, runs a pure decision function
(:meth:`AutoScaler.decide`) over it, and applies the verdict through
the pool's control plane (:meth:`~repro.serve.pool.EngineWorkerPool.add_worker`
/ :meth:`~repro.serve.pool.EngineWorkerPool.remove_worker`), bounded
by ``min_workers``/``max_workers``.

The decision policy:

* **Scale up** by one replica per tick when the window shed anything,
  or the backlog utilisation (outstanding requests over total queue
  slots) crosses ``high_water``.  A scale-up spawns the replica fully
  warmed *before* it becomes routable.
* **Scale down** when utilisation stays under ``low_water`` for
  ``scale_down_patience`` consecutive ticks (hysteresis: a single
  quiet window is not a trend).  One replica per tick, drained — its
  admitted requests finish before it retires, so shrinking never drops
  work.

Two drive modes, mirroring the scheduler and pool:

* **manual tick** (the default): the operator — or a deterministic
  test — calls :meth:`AutoScaler.tick` whenever a decision should be
  evaluated;
* **threaded**: :meth:`AutoScaler.start` runs ticks every ``interval``
  seconds on a daemon thread until :meth:`AutoScaler.close`.

Every transition lands in the pool's event log as a ``scale-up`` /
``scale-down`` :class:`~repro.serve.pool.PoolEvent` whose ``detail``
is the decision's reason, so the scaling trajectory is auditable after
the fact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from .pool import EngineWorkerPool


@dataclass(frozen=True)
class LoadSample:
    """One observation window of pool load — the decision input.

    Sheds count offered work the pool turned away: a saturated pool
    that sheds half its traffic must read as overloaded, not as
    comfortable, whatever its backlog.
    """

    shed: int                   # sheds in the window
    outstanding: int            # instantaneous backlog at sample time
    workers: int                # admissible replicas at sample time
    queue_slots: int            # workers * max_queue

    @property
    def utilization(self) -> float:
        """Backlog over capacity: outstanding / queue slots, in [0, ∞)."""
        return self.outstanding / self.queue_slots if self.queue_slots \
            else 0.0


class AutoScaler:
    """Grow/shrink a pool's live worker count with offered load.

    Parameters
    ----------
    pool: the :class:`~repro.serve.pool.EngineWorkerPool` to scale.
    min_workers, max_workers: inclusive width bounds; the scaler never
        leaves them (and never fights a concurrent deploy — topology
        mutations serialise on the pool's lock).
    high_water: backlog utilisation at/above which the pool scales up.
    low_water: utilisation at/below which a window counts toward
        scaling down.
    scale_down_patience: consecutive low-utilisation ticks required
        before one replica is drained — hysteresis against flapping.
    interval: tick period of the threaded mode [s].

    The scale-down patience is stretched by what a replica costs to
    bring back: thread replicas are just objects (cost 0), but a
    process replica re-spawns an interpreter, re-ships weights and
    plans, and re-maps its shared-memory arena — observed around a
    second.  Each tick reads the pool's measured
    :attr:`~repro.serve.pool.EngineWorkerPool.mean_spawn_seconds` and
    adds the ticks that cost spans (``ceil(cost / interval)``), so an
    expensive-to-revive replica needs a proportionally longer quiet
    spell before it is drained — flapping one down and immediately
    needing it back would stall traffic for the whole respawn.
    """

    def __init__(self, pool: EngineWorkerPool,
                 min_workers: int = 1, max_workers: int = 8,
                 high_water: float = 0.5, low_water: float = 0.1,
                 scale_down_patience: int = 3,
                 interval: float = 0.25):
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if not 0.0 <= low_water < high_water:
            raise ValueError("need 0 <= low_water < high_water")
        if scale_down_patience < 1:
            raise ValueError("scale_down_patience must be >= 1")
        self.pool = pool
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.high_water = float(high_water)
        self.low_water = float(low_water)
        self.scale_down_patience = int(scale_down_patience)
        self.interval = float(interval)
        self._low_ticks = 0
        self._last_shed = pool.shed_requests
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- sampling -------------------------------------------------------
    def sample(self) -> LoadSample:
        """Snapshot the window since the previous sample/tick."""
        shed = self.pool.shed_requests
        admissible = [w for w in self.pool.workers if not w.draining]
        live = len(admissible)
        sample = LoadSample(
            shed=shed - self._last_shed,
            # backlog and slots over the SAME population (admissible
            # replicas): charging a draining replica's backlog against
            # a denominator that excludes its slots would spike the
            # utilisation during every drain and flap a scale-up right
            # after a scale-down or deploy
            outstanding=sum(w.outstanding for w in admissible),
            workers=live,
            queue_slots=live * self.pool.max_queue)
        self._last_shed = shed
        return sample

    # -- decision (pure: scriptable in tests) ---------------------------
    def decide(self, sample: LoadSample) -> Tuple[int, str]:
        """Desired worker count for one observation window.

        Pure function of the sample and the scaler's knobs (the
        patience counter is applied by :meth:`tick`, not here), so
        tests can script arbitrary :class:`LoadSample` sequences
        without a live pool.
        """
        if sample.shed > 0 or sample.utilization >= self.high_water:
            reason = (f"shed {sample.shed} request(s)" if sample.shed
                      else f"utilization {sample.utilization:.2f} >= "
                           f"{self.high_water:.2f}")
            return min(max(sample.workers + 1, self.min_workers),
                       self.max_workers), reason
        if sample.utilization <= self.low_water:
            return max(sample.workers - 1, self.min_workers), (
                f"utilization {sample.utilization:.2f} <= "
                f"{self.low_water:.2f}")
        return max(min(sample.workers, self.max_workers),
                   self.min_workers), "within band"

    def effective_patience(self) -> int:
        """Scale-down hysteresis in ticks, stretched by replica spawn
        cost: the configured ``scale_down_patience`` plus however many
        ticks one respawn would span.  Pure function of the knobs and
        the pool-measured spawn cost, so tests can assert it directly."""
        cost = self.pool.mean_spawn_seconds
        if cost <= 0.0:
            return self.scale_down_patience
        return self.scale_down_patience \
            + int(math.ceil(cost / max(self.interval, 1e-9)))

    # -- actuation ------------------------------------------------------
    def tick(self) -> int:
        """Sample, decide, apply; returns the live worker count.

        Scale-down proposals must repeat for :meth:`effective_patience`
        consecutive ticks (``scale_down_patience`` stretched by the
        replica spawn cost) before one replica is drained; scale-ups
        apply immediately (sheds are user-visible, idleness is not).
        """
        sample = self.sample()
        desired, reason = self.decide(sample)
        before = sample.workers
        if desired > before:
            self._low_ticks = 0
            for _ in range(desired - before):
                self.pool.add_worker(kind="scale-up", detail=reason)
            return desired
        if desired < before:
            self._low_ticks += 1
            if self._low_ticks < self.effective_patience():
                return before
            self._low_ticks = 0
            # the victim pick and the removal race concurrent deploys
            # (which retire workers under the pool's topology lock the
            # scaler does not hold): losing that race is benign — skip
            # this tick rather than let the error kill the tick thread
            try:
                victim = min(
                    (w for w in self.pool.workers if not w.draining),
                    key=lambda w: (w.outstanding, -w.worker_id))
                self.pool.remove_worker(victim.worker_id,
                                        kind="scale-down", detail=reason)
            except ValueError:
                return before
            return before - 1
        self._low_ticks = 0
        return before

    # -- threaded drive -------------------------------------------------
    def start(self) -> "AutoScaler":
        """Run :meth:`tick` every ``interval`` seconds on a daemon
        thread until :meth:`close`.  Idempotent."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.tick()
                except RuntimeError:
                    return          # pool closed under us: stop scaling

        self._thread = threading.Thread(target=loop, name="autoscaler",
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the tick thread (the pool itself is left untouched)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "AutoScaler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
