"""End-to-end hybrid forecasting workflow (paper Fig. 1 / §III-A).

:class:`ForecastEngine` is the vectorised inference core; every other
class here composes it behind the *batch-executor protocol*
(``forecast_batch(windows) -> list[ForecastResult]`` plus a
``time_steps`` property).  Anything implementing that protocol — the
engine itself, a :class:`SurrogateForecaster`, a serving-side
:class:`~repro.serve.pool.EngineWorkerPool` — slots into
:class:`EnsembleForecaster` and :class:`HybridWorkflow` unchanged, so
direct and served calls run one code path.

The adjoint tier mirrors the protocol:
``sensitivity_batch(windows, wrt=...) -> list[SensitivityResult]``
differentiates scalar surge diagnostics with respect to input fields
and storm-overlay parameters (see :mod:`~repro.workflow.sensitivity`
and ``docs/differentiation.md``).
"""

from .engine import CompiledForward, ForecastEngine
from .forecast import (DualModelForecaster, FieldWindow, ForecastResult,
                       SurrogateForecaster)
from .hybrid import HybridWorkflow
from .ensemble import EnsembleForecast, EnsembleForecaster
from .sensitivity import GradientRequest, StormOverlay

__all__ = [
    "CompiledForward",
    "ForecastEngine",
    "FieldWindow",
    "ForecastResult",
    "SurrogateForecaster",
    "DualModelForecaster",
    "HybridWorkflow",
    "EnsembleForecast",
    "EnsembleForecaster",
    "GradientRequest",
    "StormOverlay",
]
