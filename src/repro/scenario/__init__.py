"""Scenario factory and replayable traffic simulation.

Three layers, each usable alone:

* :mod:`~repro.scenario.factory` — named basins over the ocean layer
  (heterogeneous native meshes, sigma layers, tides, parametric storm
  tracks, all from one seed) staged onto a common serving wire mesh,
  plus the :class:`~repro.scenario.factory.RollingForecast` streaming mode;
* :mod:`~repro.scenario.traffic` — composable arrival processes
  (Poisson base · storm spike, per-basin tenant mix) sampled into a
  :class:`~repro.scenario.traffic.TrafficTrace`, a pure function of
  ``(model, duration, seed)`` that a replay regenerates;
* :mod:`~repro.scenario.harness` — :func:`replay_trace` feeds a trace
  through ``ForecastServer``/``EngineWorkerPool`` (thread or process
  backend, wall or virtual clock) and returns a
  :class:`~repro.scenario.harness.ScenarioReport` with exact per-basin
  request accounting.
"""

from .factory import ScenarioFactory
from .traffic import StormSpike, TrafficModel, simulate_trace
from .harness import replay_trace

__all__ = [
    "ScenarioFactory",
    "StormSpike",
    "TrafficModel",
    "simulate_trace",
    "replay_trace",
]
