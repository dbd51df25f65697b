"""Differentiable diagnostics and storm-forcing overlays (adjoint tier).

This module holds everything the gradient-serving path needs besides the
engine itself:

* :data:`DIAGNOSTICS` — scalar reductions of a forecast surge window
  (peak surge, mean surge, misfit against observations) written in
  :class:`~repro.tensor.Tensor` ops so they are differentiable, but
  equally callable on plain arrays for finite-difference reference runs.
* :class:`StormOverlay` — a differentiable re-expression of the
  :class:`~repro.ocean.storm.ParametricCyclone` Holland profile as
  additive wind/surge increments on a :class:`FieldWindow`, with one
  code path serving both the numpy forward (``apply``) and the autograd
  graph (``increments``) so autograd and finite differences see the
  *same* function.
* :class:`GradientRequest` / :class:`SensitivityResult` — the request
  and response payloads routed by the serving tier
  (:meth:`repro.serve.server.ForecastServer.submit_sensitivity`).

The engine-side backward pass lives in
:meth:`repro.workflow.engine.ForecastEngine.sensitivity_batch`; the
methodology and knobs are documented in ``docs/differentiation.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor import Tensor, astensor, enable_grad
from .engine import FieldWindow

GRAVITY = 9.81  # m/s² — matches the SWE solver's gravitational constant.

#: Storm-overlay fields exposed as differentiable parameters, in the
#: order their gradients are reported in ``SensitivityResult.d_storm``.
STORM_PARAMS = (
    "x0",
    "y0",
    "max_wind",
    "radius_max_wind",
    "central_pressure_drop",
    "inflow_angle_rad",
)


# ---------------------------------------------------------------------------
# scalar diagnostics
# ---------------------------------------------------------------------------

def _forecast_slab(zeta: Tensor) -> Tensor:
    """Drop the initial-condition slot and flatten per episode.

    ``zeta`` is (N, T, H, W); slot 0 is the (exactly restored) initial
    condition, which carries no model sensitivity — diagnostics reduce
    over the *forecast* steps ``1..T-1`` only.
    """
    n = zeta.shape[0]
    return zeta[:, 1:].reshape((n, -1))


def _peak_surge(zeta: Tensor, observation: Optional[Tensor]) -> Tensor:
    """Per-episode maximum surge height over the forecast window [m]."""
    return _forecast_slab(zeta).max(axis=1)


def _mean_surge(zeta: Tensor, observation: Optional[Tensor]) -> Tensor:
    """Per-episode mean surge height over the forecast window [m]."""
    return _forecast_slab(zeta).mean(axis=1)


def _surge_mse(zeta: Tensor, observation: Optional[Tensor]) -> Tensor:
    """Mean squared misfit against an observed surge window [m²].

    The assimilation cost function: ``observation`` must broadcast to
    ``zeta``'s (N, T, H, W); its forecast steps are compared pointwise.
    """
    if observation is None:
        raise ValueError("diagnostic 'surge_mse' requires an observation")
    diff = _forecast_slab(zeta) - _forecast_slab(observation)
    return (diff * diff).mean(axis=1)


#: Registry of scalar diagnostics: name -> fn(zeta, observation) -> (N,)
#: per-episode values.  All are written in Tensor ops so the same
#: callable serves the backward pass and the FD reference evaluation.
#: A diagnostic reads the ζ forecast only, which is why the engine's
#: tape forward is ``CoastalSurrogate.surface`` and stops at the ζ head.
DIAGNOSTICS = {
    "peak_surge": _peak_surge,
    "mean_surge": _mean_surge,
    "surge_mse": _surge_mse,
}


def evaluate_diagnostic(name: str, zeta: np.ndarray,
                        observation: Optional[np.ndarray] = None
                        ) -> np.ndarray:
    """Evaluate a registered diagnostic on plain arrays (no graph).

    The numpy reference used by finite-difference validation and by the
    benchmarks: wraps the arrays in graph-free Tensors, applies the same
    registered reduction, and returns the per-episode values as a
    float64 array of shape (N,).
    """
    if name not in DIAGNOSTICS:
        raise ValueError(
            f"unknown diagnostic {name!r}; expected one of "
            f"{sorted(DIAGNOSTICS)}")
    obs = None if observation is None else astensor(np.asarray(observation))
    out = DIAGNOSTICS[name](astensor(np.asarray(zeta)), obs)
    return np.asarray(out.data, dtype=np.float64)


# ---------------------------------------------------------------------------
# differentiable storm-forcing overlay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StormOverlay:
    """Differentiable Holland-cyclone increments over a field window.

    Re-expresses :class:`~repro.ocean.storm.ParametricCyclone` (same
    parameter names, units, and sign conventions) as *additive
    increments* to an existing :class:`FieldWindow`, so a storm
    hypothesis can be overlaid on any reference window and its
    parameters calibrated by gradient descent.  The wind field follows
    the Holland (1980) radial profile with B = 1.4 and the surge
    increment is the static inverse-barometer response
    ``Δζ = Δp·(1 − exp(−(r_mw/r)^B)) / (ρ_w g)``.

    Differentiable parameters (see :data:`STORM_PARAMS`):

    * ``x0``, ``y0`` — storm-centre position at window start [m,
      grid coordinates; +x east / +y north].
    * ``max_wind`` — peak gradient wind speed [m/s, ≥ 0].
    * ``radius_max_wind`` — radius of maximum winds [m, > 0].
    * ``central_pressure_drop`` — ambient minus central pressure
      [Pa, ≥ 0]; larger drop ⇒ deeper storm ⇒ higher surge.
    * ``inflow_angle_rad`` — cross-isobar inflow rotation [rad,
      positive rotates the cyclonic wind inward].

    Fixed (non-differentiated) geometry:

    * ``vx``, ``vy`` — translation velocity [m/s].
    * ``spacing`` — grid spacing ``(dy, dx)`` [m].
    * ``dt`` — time between window slots [s].
    * ``wind_coupling`` — fraction of the 10 m wind imprinted on the
      surface current (the ~3 % rule of thumb).
    * ``depth_efold`` — e-folding depth, in vertical *levels*, of the
      wind-driven current.

    Two smoothing choices diverge (deliberately) from the numpy
    :class:`ParametricCyclone`: the radius uses a smooth grid-scale
    floor ``r = sqrt(dx² + dy² + r₀²)`` instead of a hard
    ``maximum(r, ε)``, and the profile is algebraically rearranged to
    ``V(r) = V_max · (r_mw/r)^0.7 · exp((1 − (r_mw/r)^B)/2)`` so no
    ``sqrt`` is taken of a quantity that underflows to zero near the
    domain edge — both keep the overlay C¹ everywhere, which central
    finite differences (and gradient descent) require.
    """

    x0: float
    y0: float
    vx: float = 5.0
    vy: float = 0.0
    max_wind: float = 30.0
    radius_max_wind: float = 25_000.0
    central_pressure_drop: float = 4_000.0
    inflow_angle_rad: float = 0.35
    spacing: Tuple[float, float] = (1000.0, 1000.0)
    dt: float = 3600.0
    wind_coupling: float = 0.03
    depth_efold: float = 2.0

    HOLLAND_B = 1.4
    RHO_WATER = 1025.0  # kg/m³ — matches repro.ocean.storm.RHO_WATER

    def replace(self, **updates: float) -> "StormOverlay":
        """Return a copy with the given parameters replaced."""
        return dataclasses.replace(self, **updates)

    def increments(self, params: Dict[str, Tensor],
                   time_steps: int, mesh: Tuple[int, int], depth: int
                   ) -> Tuple[Tensor, Tensor, Tensor]:
        """Build the (du3, dv3, dzeta) increment graph from Tensor params.

        ``params`` maps each :data:`STORM_PARAMS` name to a 0-d Tensor
        (typically ``requires_grad=True`` during a backward pass).
        Returns Tensors of shapes (T, H, W, D), (T, H, W, D) and
        (T, H, W): depth-decaying wind-driven current increments for u/v
        and the inverse-barometer surge increment for ζ.  On a
        :func:`_stacked` batch of N overlays, whose parameters are
        (N, 1, 1, 1), every result gains a leading storm axis.  One
        broadcast expression over the slot axis either way: the graph
        has the same few dozen nodes for any N and T, and each element
        sees the arithmetic a single storm's single slot would.
        """
        h, w = mesh
        dy, dx = self.spacing
        # slot times (T, 1, 1), rows (H, 1) and columns (W,) broadcast
        # against each other — and against a batch's leading storm axis
        t = np.arange(time_steps, dtype=np.float64)[:, None, None] * self.dt
        yg = np.arange(h, dtype=np.float64)[:, None] * dy
        xg = np.arange(w, dtype=np.float64) * dx
        # smooth radius floor at grid scale keeps r (and 1/r) C¹ at the eye
        r_floor_sq = dx * dx + dy * dy

        cosa = params["inflow_angle_rad"].cos()
        sina = params["inflow_angle_rad"].sin()
        v_max = params["max_wind"]
        r_mw = params["radius_max_wind"]
        dp = params["central_pressure_drop"]

        dxf = xg - (params["x0"] + self.vx * t)
        dyf = yg - (params["y0"] + self.vy * t)
        r = (dxf * dxf + dyf * dyf + r_floor_sq).sqrt()
        ratio = r_mw / r
        r_b = ratio ** self.HOLLAND_B
        # V(r) = V_max · sqrt(ratio^B · exp(1 − ratio^B)), rearranged
        # so nothing underflows under a sqrt (see class docstring)
        speed = v_max * ratio ** (self.HOLLAND_B / 2.0) \
            * ((1.0 - r_b) * 0.5).exp()
        # unit direction of (cyclonic + inflow-rotated) wind without
        # arctan2: cos(θ+π/2+α), sin(θ+π/2+α) expanded with
        # cosθ = dx/r, sinθ = dy/r
        wu = speed * (-(dyf * cosa + dxf * sina) / r)
        wv = speed * ((dxf * cosa - dyf * sina) / r)
        dzeta = dp * (1.0 - (-r_b).exp()) \
            * (1.0 / (self.RHO_WATER * GRAVITY))
        du2 = wu * self.wind_coupling   # ([N,] T, H, W) surface current
        dv2 = wv * self.wind_coupling
        decay = np.exp(-np.arange(depth, dtype=np.float64)
                       / np.asarray(self.depth_efold)[..., None])
        du3 = du2.reshape(du2.shape + (1,)) * decay
        dv3 = dv2.reshape(dv2.shape + (1,)) * decay
        return du3, dv3, dzeta

    def tensor_params(self, requires_grad: bool = False
                      ) -> Dict[str, Tensor]:
        """The differentiable parameters as float64 Tensors: 0-d, or
        (N, 1, 1, 1) on a :func:`_stacked` batch."""
        return {
            name: Tensor(np.asarray(getattr(self, name), dtype=np.float64),
                         requires_grad=requires_grad)
            for name in STORM_PARAMS
        }

    def apply(self, window: FieldWindow) -> FieldWindow:
        """Overlay the storm on a reference window (numpy forward).

        Runs the *same* increment construction as :meth:`increments`
        (graph-free) and returns a new :class:`FieldWindow` with the
        increments added — the composition the engine differentiates.
        """
        t, h, w, d = window.u3.shape
        du3, dv3, dzeta = self.increments(self.tensor_params(), t, (h, w), d)
        return _overlaid(window, du3.data, dv3.data, dzeta.data)


def _overlaid(window: FieldWindow, du3: np.ndarray, dv3: np.ndarray,
              dzeta: np.ndarray) -> FieldWindow:
    """A new window with one storm's increments added (``w3`` copied)."""
    return FieldWindow(u3=window.u3 + du3, v3=window.v3 + dv3,
                       w3=window.w3.copy(), zeta=window.zeta + dzeta)


def _stacked(storms: Sequence[StormOverlay]) -> StormOverlay:
    """N overlays as one whose every field is an (N, 1, 1, 1) float64
    column, so ``increments`` evaluates all N storms — each with its
    own fixed geometry — in one broadcast expression with a leading
    storm axis.  Only ``increments`` and ``tensor_params`` are
    meaningful on it, which is why it stays private to its two callers
    below."""
    def column(values):
        return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1, 1)
    columns = {f.name: column([getattr(s, f.name) for s in storms])
               for f in dataclasses.fields(StormOverlay)
               if f.name != "spacing"}
    return StormOverlay(spacing=(column([s.spacing[0] for s in storms]),
                                 column([s.spacing[1] for s in storms])),
                        **columns)


def compose_batch(references: Sequence[FieldWindow],
                  storms: Sequence[Optional[StormOverlay]]
                  ) -> List[FieldWindow]:
    """``storms[i].apply(references[i])`` for every overlaid episode
    (``None`` leaves the window as it is), bitwise, with all overlays
    of the batch evaluated in one graph-free expression.  The windows
    share one mesh."""
    overlaid = [i for i, s in enumerate(storms) if s is not None]
    composed = list(references)
    if overlaid:
        batch = _stacked([storms[i] for i in overlaid])
        t, h, w, d = references[0].u3.shape
        du3, dv3, dzeta = batch.increments(batch.tensor_params(),
                                           t, (h, w), d)
        for row, i in enumerate(overlaid):
            composed[i] = _overlaid(references[i], du3.data[row],
                                    dv3.data[row], dzeta.data[row])
    return composed


def overlay_vjp(storms: Sequence[StormOverlay], d_u3: np.ndarray,
                d_v3: np.ndarray, d_zeta: np.ndarray
                ) -> List[Dict[str, float]]:
    """∂J/∂θ per storm from the field adjoints of the composed windows.

    A composed window is reference + increments(θ), so ∂J/∂θ is the
    field adjoint — ``d_u3`` / ``d_v3`` (N, T, H, W, D) and ``d_zeta``
    (N, T, H, W) — contracted with ∂increments/∂θ: one graph over the
    stacked storms and one backward for all N × six parameters (the
    increments add nothing to ``w3``).
    """
    batch = _stacked(storms)
    with enable_grad():
        theta = batch.tensor_params(requires_grad=True)
        du3, dv3, dzeta = batch.increments(
            theta, d_u3.shape[1], d_u3.shape[2:4], d_u3.shape[4])
        ((du3 * d_u3).sum() + (dv3 * d_v3).sum()
         + (dzeta * d_zeta).sum()).backward()
    return [{name: float(theta[name].grad[i, 0, 0, 0])
             for name in STORM_PARAMS} for i in range(len(storms))]


# ---------------------------------------------------------------------------
# request / response payloads
# ---------------------------------------------------------------------------

_VALID_WRT = ("fields", "storm")


@dataclass(frozen=True)
class GradientRequest:
    """A served sensitivity query: differentiate a diagnostic of one window.

    Parameters
    ----------
    window: the reference :class:`FieldWindow` (pre-normalisation,
        physical units).  When ``storm`` is set, the served engine
        overlays ``storm.apply(window)`` before forecasting so storm
        parameters remain upstream of the forward pass.
    diagnostic: a :data:`DIAGNOSTICS` name reduced over the forecast
        steps of the predicted surge.
    wrt: subset of ``("fields", "storm")`` — which sensitivities to
        compute.  ``"fields"`` returns a :class:`FieldWindow` of
        ∂J/∂(input fields); ``"storm"`` returns ∂J/∂θ for each
        :data:`STORM_PARAMS` entry and requires ``storm``.
    observation: observed surge (T, H, W), required by ``surge_mse``.
    storm: optional :class:`StormOverlay` hypothesis.
    """

    window: FieldWindow
    diagnostic: str = "peak_surge"
    wrt: Tuple[str, ...] = ("fields",)
    observation: Optional[np.ndarray] = None
    storm: Optional[StormOverlay] = None

    def __post_init__(self):
        wrt = tuple(self.wrt)
        object.__setattr__(self, "wrt", wrt)
        if not wrt:
            raise ValueError("GradientRequest.wrt must not be empty")
        bad = [w for w in wrt if w not in _VALID_WRT]
        if bad:
            raise ValueError(
                f"unknown wrt targets {bad}; expected subset of "
                f"{_VALID_WRT}")
        if self.diagnostic not in DIAGNOSTICS:
            raise ValueError(
                f"unknown diagnostic {self.diagnostic!r}; expected one "
                f"of {sorted(DIAGNOSTICS)}")
        if self.diagnostic == "surge_mse" and self.observation is None:
            raise ValueError(
                "diagnostic 'surge_mse' requires an observation window")
        if "storm" in wrt and self.storm is None:
            raise ValueError(
                "wrt='storm' requires a StormOverlay on the request")


@dataclass
class SensitivityResult:
    """Gradients of one episode's diagnostic (see :class:`GradientRequest`).

    ``value`` is the diagnostic itself (from the differentiable
    forward); ``d_fields``/``d_storm`` are populated per the request's
    ``wrt``.  ``d_fields`` is a :class:`FieldWindow` holding
    ∂J/∂(u3, v3, w3, ζ) in physical units — gradients have flowed back
    through denormalisation, the model, normalisation, padding and the
    boundary-rim assembly mask.  ``d_storm`` maps each
    :data:`STORM_PARAMS` name to ∂J/∂θ.
    """

    value: float
    diagnostic: str
    wrt: Tuple[str, ...]
    d_fields: Optional[FieldWindow] = None
    d_storm: Optional[Dict[str, float]] = None
    backward_seconds: float = 0.0
    episodes: int = 1
    engine_version: Optional[int] = None

    def copy(self) -> "SensitivityResult":
        """Deep copy (cache isolation — mirrors ForecastResult copies)."""
        return SensitivityResult(
            value=self.value,
            diagnostic=self.diagnostic,
            wrt=tuple(self.wrt),
            d_fields=None if self.d_fields is None else self.d_fields.copy(),
            d_storm=None if self.d_storm is None else dict(self.d_storm),
            backward_seconds=self.backward_seconds,
            episodes=self.episodes,
            engine_version=self.engine_version,
        )

    def nbytes(self) -> int:
        """Approximate payload size (cache accounting)."""
        total = 64
        if self.d_fields is not None:
            for arr in (self.d_fields.u3, self.d_fields.v3,
                        self.d_fields.w3, self.d_fields.zeta):
                total += int(arr.nbytes)
        if self.d_storm is not None:
            total += 16 * len(self.d_storm)
        return total
