"""Storm forcing: wind stress and inverse-barometer pressure (paper §V).

The paper's archive carries wind and air-pressure forcing variables and
names *storm surge* as the first future-work extension.  This module
adds both to the barotropic solver: a parametric cyclone (Holland-type
wind profile) or steady wind supplies surface stress τ = ρₐ C_d |W| W
and a sea-level-pressure field supplies the inverse-barometer gradient
force, turning the tidal model into a tide + surge model.

Usage::

    storm = ParametricCyclone(track=..., ...)
    solver = ShallowWaterSolver(grid, depth, forcing,
                                config=SWEConfig(),)
    surge = StormForcedSolver(solver, storm)
    state = surge.step(state)           # tide + wind + pressure
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .grid import CurvilinearGrid
from .swe import ShallowWaterSolver, ShallowWaterState

RHO_AIR = 1.225        # kg/m³
RHO_WATER = 1025.0     # kg/m³
P_AMBIENT = 101_325.0  # Pa


def _wind_drag_coefficient(speed: np.ndarray) -> np.ndarray:
    """Large & Pond (1981) style drag, capped at hurricane speeds."""
    cd = (0.49 + 0.065 * speed) * 1e-3
    return np.clip(cd, 1.2e-3, 3.5e-3)


@dataclass(frozen=True)
class SteadyWind:
    """Spatially uniform wind — the simplest surge driver."""

    u10: float            # eastward wind at 10 m [m/s]
    v10: float            # northward wind [m/s]

    def wind(self, grid: CurvilinearGrid, t: float
             ) -> Tuple[np.ndarray, np.ndarray]:
        shape = (grid.ny, grid.nx)
        return (np.full(shape, self.u10), np.full(shape, self.v10))

    def pressure(self, grid: CurvilinearGrid, t: float) -> np.ndarray:
        return np.full((grid.ny, grid.nx), P_AMBIENT)


@dataclass(frozen=True)
class ParametricCyclone:
    """Holland-profile cyclone translating across the domain.

    The wind field is the Holland (1980) gradient-wind profile with
    shape parameter B = 1.4: azimuthal speed
    ``max_wind · sqrt((r_mw/r)^B · exp(1 − (r_mw/r)^B))``, which peaks
    at exactly ``max_wind`` on the ``r = radius_max_wind`` ring and
    decays both inward (calm eye) and outward.  Rotation is cyclonic
    for the northern hemisphere (counter-clockwise when the x axis
    points east and the y axis north), with the surface wind rotated
    a further ``inflow_angle_rad`` toward the centre.  The pressure
    field is the matching Holland profile
    ``p(r) = p_c + Δp·exp(−(r_mw/r)^B)``, i.e. the full
    ``central_pressure_drop`` below ambient at the centre, relaxing to
    ``P_AMBIENT`` far away.

    The differentiable serving-side mirror of this profile is
    :class:`repro.workflow.sensitivity.StormOverlay` (same
    parameterisation and sign conventions, arranged for smooth
    gradients); keep the two in sync.

    Parameters
    ----------
    x0, y0: storm-centre position at t = 0 [m, in the grid's
        projected coordinates — the same axes as
        ``CurvilinearGrid.x_axis``/``y_axis`` centres].
    vx, vy: translation velocity of the centre [m/s]; positive vx
        moves the storm toward +x (east), positive vy toward +y
        (north).  The centre at time t is ``(x0 + vx·t, y0 + vy·t)``.
    max_wind: peak gradient-wind speed [m/s], attained at
        ``radius_max_wind``; must be positive.
    radius_max_wind: radius of maximum winds [m] — larger values make
        a broader, flatter storm.
    central_pressure_drop: ambient minus central sea-level pressure
        [Pa]; positive numbers mean a *low* at the centre (4 000 Pa
        = 40 hPa, a strong hurricane).
    inflow_angle_rad: cross-isobar inflow rotation [rad], positive
        turning the surface wind from pure azimuthal flow inward
        toward the centre (typical observed values ≈ 0.2–0.4).
    """

    x0: float
    y0: float
    vx: float = 5.0
    vy: float = 0.0
    max_wind: float = 30.0
    radius_max_wind: float = 25_000.0
    central_pressure_drop: float = 4_000.0
    inflow_angle_rad: float = 0.35

    def _center(self, t: float) -> Tuple[float, float]:
        return self.x0 + self.vx * t, self.y0 + self.vy * t

    def wind(self, grid: CurvilinearGrid, t: float
             ) -> Tuple[np.ndarray, np.ndarray]:
        cx, cy = self._center(t)
        X = np.broadcast_to(grid.x_axis.centers[None, :],
                            (grid.ny, grid.nx))
        Y = np.broadcast_to(grid.y_axis.centers[:, None],
                            (grid.ny, grid.nx))
        dx, dy = X - cx, Y - cy
        r = np.hypot(dx, dy)
        r_safe = np.maximum(r, 1e-3)
        # Holland-style radial speed profile (B = 1.4)
        B = 1.4
        ratio = np.clip(self.radius_max_wind / r_safe, 1e-6, 1e6)
        speed = self.max_wind * np.sqrt(
            ratio ** B * np.exp(1.0 - ratio ** B))
        # cyclonic (counter-clockwise, NH) rotation + inflow angle
        ang = np.arctan2(dy, dx) + np.pi / 2 + self.inflow_angle_rad
        return speed * np.cos(ang), speed * np.sin(ang)

    def pressure(self, grid: CurvilinearGrid, t: float) -> np.ndarray:
        cx, cy = self._center(t)
        X = np.broadcast_to(grid.x_axis.centers[None, :],
                            (grid.ny, grid.nx))
        Y = np.broadcast_to(grid.y_axis.centers[:, None],
                            (grid.ny, grid.nx))
        r = np.hypot(X - cx, Y - cy)
        ratio = np.clip(self.radius_max_wind / np.maximum(r, 1e-3),
                        1e-6, 1e6)
        # Holland: p(r) = p_c + Δp · exp(−(r_mw/r)^B); → p_c at the
        # centre, → ambient far away
        central = P_AMBIENT - self.central_pressure_drop
        return central + self.central_pressure_drop * np.exp(-ratio ** 1.4)


class StormForcedSolver:
    """Wrap a barotropic solver with wind stress + pressure gradients.

    Each step adds, to the wrapped solver's momentum tendencies,

    * surface stress  τ/(ρ_w H) with τ = ρₐ C_d(|W|) |W| W, and
    * the inverse-barometer force −(1/ρ_w) ∇p_air,

    applied as velocity increments over the solver's own Δt so the
    underlying continuity/verification machinery is untouched.
    """

    def __init__(self, solver: ShallowWaterSolver, storm):
        self.solver = solver
        self.storm = storm

    @property
    def dt(self) -> float:
        return self.solver.dt

    def step(self, state: ShallowWaterState) -> ShallowWaterState:
        solver = self.solver
        grid = solver.grid
        out = solver.step(state)

        wu, wv = self.storm.wind(grid, state.t)
        speed = np.hypot(wu, wv)
        cd = _wind_drag_coefficient(speed)
        tau_x = RHO_AIR * cd * speed * wu       # N/m² at cell centres
        tau_y = RHO_AIR * cd * speed * wv

        H = solver.total_depth(out.zeta)
        p = self.storm.pressure(grid, state.t)

        # wind stress and pressure-gradient accelerations on faces
        accel_u = grid.center_to_u(tau_x / (RHO_WATER * H)) \
            - grid.ddx_at_u(p) / RHO_WATER
        accel_v = grid.center_to_v(tau_y / (RHO_WATER * H)) \
            - grid.ddy_at_v(p) / RHO_WATER

        out.u += solver.dt * accel_u
        out.v += solver.dt * accel_v
        out.u[~solver.u_open] = 0.0
        out.v[~solver.v_open] = 0.0
        return out

    def run(self, state: ShallowWaterState, duration: float
            ) -> ShallowWaterState:
        n = max(1, int(round(duration / self.dt)))
        for _ in range(n):
            state = self.step(state)
        return state
