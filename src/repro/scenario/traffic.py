"""Open-loop traffic simulation with a replayable trace.

Arrival model: each basin offers a non-homogeneous Poisson stream with
intensity

    λ_b(t) = base_rate · weight_b · spike_b(t)

— a Poisson base scaled by the basin's tenant weight and a Gaussian
storm-spike burst.  Streams are sampled by thinning against the
per-basin peak intensity, each basin from its own counter-based
substream ``default_rng((seed, index))``, so the trace is a pure
function of ``(model, duration, seed)`` and is independent of basin
iteration order.

The product is a :class:`TrafficTrace`: a header plus a time-sorted
list of :class:`TrafficEvent`\\ s (arrival time, basin key, request
kind).  *Same seed ⇒ same trace ⇒ same request accounting*: a replay
regenerates its trace rather than storing one.

Event kinds:

* ``"current"`` — request the basin's rolling episode's current
  window (an exact duplicate between advances: exercises cache, dedup,
  and key-affinity locality);
* ``"unique"`` — request a fresh window at the event's ``param`` time
  offset (cache-busting: exercises batching and admission control);
* ``"advance"`` — not a request: the harness slides the basin's
  rolling episode one model step (deterministic cadence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .factory import ScenarioFactory

#: time offset window (seconds) unique-window requests draw from —
#: far from the rolling episodes so the windows never collide
UNIQUE_T_LO = 1.0e5
UNIQUE_T_HI = 1.0e6


@dataclass(frozen=True)
class StormSpike:
    """Gaussian burst: ``1 + A·exp(−(t−center)²/2σ²)`` — the traffic
    surge when a storm threatens the basin."""

    center_s: float
    width_s: float
    amplitude: float = 4.0

    def factor(self, t: float) -> float:
        z = (t - self.center_s) / self.width_s
        return 1.0 + self.amplitude * np.exp(-0.5 * z * z)

    @property
    def peak(self) -> float:
        return 1.0 + abs(self.amplitude)


@dataclass(frozen=True)
class BasinLoad:
    """One basin's composable arrival process."""

    basin: str
    weight: float = 1.0
    spike: Optional[StormSpike] = None

    def intensity(self, t: float, base_rate: float) -> float:
        lam = base_rate * self.weight
        if self.spike is not None:
            lam *= self.spike.factor(t)
        return float(lam)

    def peak_intensity(self, base_rate: float) -> float:
        lam = base_rate * self.weight
        if self.spike is not None:
            lam *= self.spike.peak
        return float(lam)


@dataclass(frozen=True)
class TrafficModel:
    """The full multi-tenant arrival mix.

    ``unique_fraction`` of arrivals are cache-busting ``"unique"``
    requests; the rest hit the basin's rolling current window.
    ``advance_every_s > 0`` inserts deterministic ``"advance"`` events
    on that cadence per basin (the rolling-forecast stream).
    """

    loads: Tuple[BasinLoad, ...]
    base_rate: float = 20.0
    unique_fraction: float = 0.25
    advance_every_s: float = 0.0

    @classmethod
    def from_factory(cls, factory: ScenarioFactory,
                     base_rate: float = 20.0,
                     unique_fraction: float = 0.25,
                     advance_every_s: float = 0.0,
                     spikes: Optional[Dict[str, StormSpike]] = None
                     ) -> "TrafficModel":
        """Tenant mix straight from the basin specs' weights."""
        spikes = spikes or {}
        loads = tuple(
            BasinLoad(s.name, weight=s.weight, spike=spikes.get(s.name))
            for s in factory.specs)
        return cls(loads, base_rate=base_rate,
                   unique_fraction=unique_fraction,
                   advance_every_s=advance_every_s)


@dataclass(frozen=True)
class TrafficEvent:
    """One trace record.  ``param`` is the unique-window time offset
    for ``kind == "unique"`` and 0.0 otherwise."""

    t: float
    basin: str
    kind: str            # "current" | "unique" | "advance"
    param: float = 0.0

    @property
    def is_request(self) -> bool:
        return self.kind != "advance"


@dataclass
class TrafficTrace:
    """A recorded arrival sequence plus the header that produced it."""

    seed: int
    duration_s: float
    base_rate: float
    events: List[TrafficEvent] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return sum(1 for e in self.events if e.is_request)


def simulate_trace(model: TrafficModel, duration_s: float,
                   seed: int = 0) -> TrafficTrace:
    """Sample the arrival mix into a recorded trace.

    Per-basin thinning against the basin's peak intensity, each basin
    on its own ``default_rng((seed, index))`` substream; the merged
    stream is time-sorted with a deterministic ``(t, basin_index,
    sequence)`` tie-break.  Same ``(model, duration_s, seed)`` ⇒
    bitwise-identical trace.
    """
    keyed: List[Tuple[float, int, int, TrafficEvent]] = []
    for idx, load in enumerate(model.loads):
        rng = np.random.default_rng((seed, idx))
        lam_max = load.peak_intensity(model.base_rate)
        if lam_max <= 0.0:
            continue
        t, seq = 0.0, 0
        while True:
            t += float(rng.exponential(1.0 / lam_max))
            if t >= duration_s:
                break
            accept = float(rng.uniform())
            unique = float(rng.uniform())
            param = float(rng.uniform(UNIQUE_T_LO, UNIQUE_T_HI))
            if accept * lam_max > load.intensity(t, model.base_rate):
                continue           # thinned; draws above keep the
                                   # stream aligned regardless of fate
            if unique < model.unique_fraction:
                event = TrafficEvent(t, load.basin, "unique", param)
            else:
                event = TrafficEvent(t, load.basin, "current")
            keyed.append((t, idx, seq, event))
            seq += 1
        if model.advance_every_s > 0.0:
            k = 1
            while k * model.advance_every_s < duration_s:
                ta = k * model.advance_every_s
                keyed.append((ta, idx, seq, TrafficEvent(
                    ta, load.basin, "advance")))
                seq += 1
                k += 1
    keyed.sort(key=lambda item: item[:3])
    return TrafficTrace(seed=seed, duration_s=float(duration_s),
                        base_rate=model.base_rate,
                        events=[item[3] for item in keyed])
