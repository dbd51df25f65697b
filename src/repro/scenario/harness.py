"""Trace replay harness: feed a recorded trace through the serving
stack and account for every request exactly.

``replay_trace`` drives a :class:`~repro.serve.server.ForecastServer`
or a bare :class:`~repro.serve.pool.EngineWorkerPool` (thread or
process backend — the harness is backend-agnostic) with the events of
a :class:`~repro.scenario.traffic.TrafficTrace`, in two clock modes:

* ``"wall"`` — open-loop pacing: sleep to each event's arrival time
  (scaled by ``time_scale``) and submit.  Real concurrency, real
  coalescing behind busy replicas, autoscalers tick — the benchmarking
  mode.
  ``time_scale=0`` degenerates to submit-as-fast-as-possible (the old
  step-function load shape).
* ``"virtual"`` — no sleeping: the target must be manual
  (``autostart=False``); events are submitted in trace order and the
  backlog is drained with an inline ``flush()`` every ``flush_every``
  requests.  Every scheduling quantum is deterministic, so two replays
  of one trace produce identical per-basin accounting — the test mode.

The result is a :class:`ScenarioReport` with per-basin offered /
engine-served / cache-or-dedup / shed counts, latency percentiles, and
the worker sets that served each basin (the affinity audit).  Its
invariant — checked by :meth:`ScenarioReport.check` — is **exact
accounting**: ``offered == served + cached + shed`` with zero lost and
zero double-served requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from ..serve.pool import PoolSaturated
from .factory import ScenarioFactory, RollingForecast
from .traffic import TrafficTrace


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.array(values), q))


@dataclass
class BasinReport:
    """Per-basin request accounting and placement."""

    basin: str
    offered: int = 0         # request events submitted (or shed)
    served: int = 0          # completed on an engine (cache_hit False)
    cached: int = 0          # completed from cache or in-flight dedup
    shed: int = 0            # rejected by admission control
    workers: Set[int] = field(default_factory=set)
    #: worker ids that engine-served this basin (affinity audit)
    latencies: List[float] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        done = self.served + self.cached
        return self.cached / done if done else 0.0

    @property
    def latency_p95_ms(self) -> float:
        return 1e3 * _percentile(self.latencies, 95.0)


@dataclass
class ScenarioReport:
    """Whole-trace accounting: per-basin reports plus totals."""

    per_basin: Dict[str, BasinReport]
    elapsed_s: float = 0.0
    duplicate_request_ids: int = 0

    @property
    def offered(self) -> int:
        return sum(b.offered for b in self.per_basin.values())

    @property
    def served(self) -> int:
        return sum(b.served for b in self.per_basin.values())

    @property
    def cached(self) -> int:
        return sum(b.cached for b in self.per_basin.values())

    @property
    def shed(self) -> int:
        return sum(b.shed for b in self.per_basin.values())

    @property
    def lost(self) -> int:
        return self.offered - self.served - self.cached - self.shed

    def accounting(self) -> Dict[str, int]:
        return {"offered": self.offered, "served": self.served,
                "cached": self.cached, "shed": self.shed,
                "lost": self.lost,
                "duplicates": self.duplicate_request_ids}

    def check(self) -> None:
        """Raise unless every offered request is accounted for exactly
        once: ``offered == served + cached + shed``, no duplicates."""
        if self.lost != 0 or self.duplicate_request_ids != 0:
            raise AssertionError(
                f"request accounting violated: {self.accounting()}")

    def sustained_qps(self) -> float:
        done = self.served + self.cached
        return done / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _is_server(target) -> bool:
    # ForecastServer fronts a pool; a pool has no .pool
    return hasattr(target, "pool")


def replay_trace(trace: TrafficTrace, target, factory: ScenarioFactory,
                 mode: str = "wall", time_scale: float = 1.0,
                 flush_every: int = 8, timeout: float = 120.0,
                 shed_retry: float = 0.0,
                 responses: Optional[list] = None) -> ScenarioReport:
    """Feed every trace event through ``target`` and account exactly.

    Parameters
    ----------
    trace: the recorded arrival sequence.
    target: a :class:`~repro.serve.server.ForecastServer` or bare
        :class:`~repro.serve.pool.EngineWorkerPool` (either backend).
    factory: supplies the basins and rolling episodes the events name.
    mode: ``"wall"`` (paced, threaded) or ``"virtual"`` (manual
        target, inline flushes, deterministic).
    time_scale: wall mode only — real seconds per trace second
        (``0`` submits with no pacing, the degenerate step load).
    flush_every: virtual mode only — drain cadence in requests.
    shed_retry: wall mode only — when ``> 0``, a saturated submission
        backs off ``min(retry_after, shed_retry)`` seconds and retries
        until admitted (the closed-loop client: nothing sheds, the pool
        still registers every rejection as offered pressure).  ``0``
        counts the request shed, open-loop.
    responses: optional list; when given, every completed request
        appends ``(event, result)`` in trace order — the bitwise-replay
        audit trail.
    """
    if mode not in ("wall", "virtual"):
        raise ValueError(f"unknown mode {mode!r}")
    if shed_retry > 0.0 and mode != "wall":
        raise ValueError("shed_retry needs wall mode (virtual replays "
                         "must stay deterministic)")
    server = _is_server(target)
    rolls: Dict[str, RollingForecast] = {}
    reports = {name: BasinReport(name) for name in factory.basin_names}
    pending = []          # (event, future) in submission order
    start = time.monotonic()

    def roll(name: str) -> RollingForecast:
        if name not in rolls:
            rolls[name] = factory.rolling(name)
        return rolls[name]

    def drain() -> None:
        if hasattr(target, "flush"):
            target.flush()

    since_flush = 0
    for event in trace.events:
        report = reports[event.basin]
        if event.kind == "advance":
            roll(event.basin).advance()
            continue
        if event.kind == "unique":
            window = factory.basin(event.basin).window(event.param)
        else:
            window = roll(event.basin).current
        if mode == "wall" and time_scale > 0.0:
            due = start + event.t * time_scale
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        report.offered += 1
        future = None
        while future is None:
            try:
                if server:
                    future = target.submit(window, route_key=event.basin)
                else:
                    future = target.submit(window, key=event.basin)
            except PoolSaturated as exc:
                if shed_retry <= 0.0:
                    break
                time.sleep(min(exc.retry_after, shed_retry))
        if future is None:
            report.shed += 1
            continue
        pending.append((event, future))
        if mode == "virtual":
            since_flush += 1
            if since_flush >= flush_every:
                drain()
                since_flush = 0
    if mode == "virtual":
        drain()

    for event, future in pending:
        result = future.result(timeout=timeout)
        report = reports[event.basin]
        if future.cache_hit:
            report.cached += 1
        else:
            report.served += 1
            if future.worker_id is not None:
                report.workers.add(future.worker_id)
        if future.latency_seconds is not None:
            report.latencies.append(future.latency_seconds)
        if responses is not None:
            responses.append((event, result))

    # request ids are per-scheduler counters: uniqueness is per
    # (worker, id) — a duplicate there means a double-served request
    ids = [(f.worker_id, f.request_id)
           for _, f in pending if not f.cache_hit]
    duplicates = len(ids) - len(set(ids))
    return ScenarioReport(per_basin=reports,
                          elapsed_s=time.monotonic() - start,
                          duplicate_request_ids=duplicates)
