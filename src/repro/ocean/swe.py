"""Split-explicit barotropic shallow-water stepper on the Arakawa-C grid.

This is the computational core of the ROMS-like substrate: the
free-surface / depth-averaged momentum system that carries the tidal
wave through the estuary.  ROMS integrates this "barotropic mode" with
a short explicit time step inside each baroclinic step (paper §II-B);
here the barotropic mode *is* the model, and the baroclinic vertical
structure is diagnosed by :mod:`repro.ocean.sigma`.

Discretisation
--------------
* forward-backward scheme: ζ is advanced first from the flux divergence,
  then momentum uses the *new* ζ — neutrally stable for gravity waves at
  CFL < 1 and the standard choice for split-explicit barotropic modes.
* quadratic bottom friction, Coriolis, lateral viscosity.
* open west boundary with a nudging (sponge) zone clamped to the tidal
  elevation; solid walls elsewhere; optional river inflow at the
  northern river mouth.

The stepper conserves water volume exactly (up to float64 round-off)
in a closed basin — the invariant the paper's verification module
checks on the AI side, and one of our property tests.

Ensemble axis
-------------
The prognostic state may carry one leading ensemble axis
(:meth:`ShallowWaterState.stack`): ``zeta/u/v`` are ``(…, ny, nx[+1])``
and ``t`` a scalar or ``(B,)``.  There is one ``step``; every stencil
indexes with ``...`` and every mask is applied by broadcasting, so a
stacked integration is bit-identical, member by member, to stepping
the members one at a time — at a fraction of the interpreter cost on
small meshes, where a step is dispatch-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .grid import CurvilinearGrid
from .tides import TidalForcing

GRAVITY = 9.81
OMEGA_EARTH = 7.2921e-5


@dataclass(frozen=True)
class SWEConfig:
    """Physical and numerical parameters of the barotropic solver.

    The two fields are what a test turns off for an exact budget; the
    rest are constants of the solver.
    """

    sponge_strength: float = 0.5          # max nudging weight per step
    river_discharge: float = 120.0        # [m³/s] into the northern river arm

    drag_coefficient = 2.5e-3             # quadratic bottom drag C_d
    viscosity = 12.0                      # lateral eddy viscosity [m²/s]
    latitude_deg = 26.6                   # for the Coriolis parameter
    cfl = 0.45                            # fraction of the gravity-wave limit
    min_total_depth = 0.05                # wetting floor [m]
    sponge_cells = 4                      # nudging-zone width at the open bdry

    @property
    def coriolis_f(self) -> float:
        return 2.0 * OMEGA_EARTH * np.sin(np.deg2rad(self.latitude_deg))


@dataclass
class ShallowWaterState:
    """Prognostic fields at one instant.

    Unstacked, the fields are 2-D and ``t`` a float.  A *stacked* state
    (:meth:`stack`) holds B independent members along one leading axis,
    each at its own time: the fields are ``(B, …)`` and ``t`` is
    ``(B,)``.  The solver steps either kind with the same code.
    """

    t: Union[float, np.ndarray]
    zeta: np.ndarray          # (…, ny, nx) free surface [m]
    u: np.ndarray             # (…, ny, nx+1) east velocity at u faces [m/s]
    v: np.ndarray             # (…, ny+1, nx) north velocity at v faces [m/s]

    @property
    def stacked(self) -> bool:
        return self.zeta.ndim > 2

    def copy(self) -> "ShallowWaterState":
        return ShallowWaterState(np.copy(self.t) if self.stacked else self.t,
                                 self.zeta.copy(),
                                 self.u.copy(), self.v.copy())

    @classmethod
    def stack(cls, states: Sequence["ShallowWaterState"]
              ) -> "ShallowWaterState":
        """Stack unstacked states along a new leading ensemble axis."""
        if not states or any(s.stacked for s in states):
            raise ValueError("stack needs one or more unstacked states")
        return cls(np.array([s.t for s in states], dtype=np.float64),
                   np.stack([s.zeta for s in states]),
                   np.stack([s.u for s in states]),
                   np.stack([s.v for s in states]))

    def unstack(self) -> List["ShallowWaterState"]:
        """The members of a stacked state, as independent copies."""
        if not self.stacked:
            raise ValueError("state has no ensemble axis to unstack")
        return [ShallowWaterState(float(t), z.copy(), u.copy(), v.copy())
                for t, z, u, v in zip(self.t, self.zeta, self.u, self.v)]


class ShallowWaterSolver:
    """Barotropic tide solver over a masked, non-uniform C-grid.

    Parameters
    ----------
    grid: horizontal grid and metrics.
    depth: (ny, nx) bathymetry, positive down; ≤0 marks land.
    forcing: tidal boundary forcing applied along the open west edge.
    config: physics/numerics configuration.
    """

    def __init__(self, grid: CurvilinearGrid, depth: np.ndarray,
                 forcing: Optional[TidalForcing] = None,
                 config: SWEConfig = SWEConfig()):
        if depth.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"depth shape {depth.shape} != grid ({grid.ny}, {grid.nx})")
        self.grid = grid
        self.depth = np.asarray(depth, dtype=np.float64)
        self.forcing = forcing
        self.cfg = config

        self.wet = self.depth > 0.0
        self._build_face_masks()
        self._build_sponge()
        self.dt = self.stable_dt()
        self._build_step_constants()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _build_step_constants(self) -> None:
        """Everything :meth:`step` would otherwise recompute per call.

        Derived from the masks, spacings, river share and ``dt``; a
        subclass that overrides any of those re-runs this afterwards.
        Values are exactly what the in-step expressions produced.
        """
        grid = self.grid
        ny, nx = grid.ny, grid.nx
        self._f = self.cfg.coriolis_f
        self._dry = ~self.wet
        self._u_closed = ~self.u_open
        self._v_closed = ~self.v_open
        # cell spacing across the stencil direction, at u and v faces
        self._dyc_u = np.broadcast_to(
            grid.y_axis.spacing[:, None], (ny, nx + 1))
        self._dxc_v = np.broadcast_to(
            grid.x_axis.spacing[None, :], (ny + 1, nx))
        self._lap_u_dx2 = grid.dxu[:, 1:-1] ** 2
        self._lap_u_dy2 = self._dyc_u[1:-1, :] ** 2
        self._lap_v_dx2 = self._dxc_v[:, 1:-1] ** 2
        self._lap_v_dy2 = grid.dyv[1:-1, :] ** 2
        # surface rise per step in each river cell
        self._river_rise = (self.dt * self.river_cell_discharge
                            / grid.area[self.river_mask])

    def _build_face_masks(self) -> None:
        ny, nx = self.grid.ny, self.grid.nx
        wet = self.wet
        self.u_open = np.zeros((ny, nx + 1), dtype=bool)
        self.u_open[:, 1:-1] = wet[:, :-1] & wet[:, 1:]
        # west edge is the open ocean boundary wherever the edge cell is
        # wet; with no tidal forcing the basin is fully closed
        if self.forcing is not None:
            self.u_open[:, 0] = wet[:, 0]
        self.v_open = np.zeros((ny + 1, nx), dtype=bool)
        self.v_open[1:-1, :] = wet[:-1, :] & wet[1:, :]
        # outflow condition applies on the open west faces of the domain
        self.west_outflow = self.u_open[:, 0].copy()
        # river inflow cells on the northern edge (wet cells of the river
        # arm at j = ny−1); discharge is split evenly per cell and stored
        # per cell so subdomain solvers inherit the global share
        self.river_mask = np.zeros((ny, nx), dtype=bool)
        xf = self.grid.x_axis.centers / self.grid.x_axis.length
        self.river_mask[-1, :] = wet[-1, :] & (xf > 0.5)
        n_river = int(self.river_mask.sum())
        self.river_cell_discharge = (
            self.cfg.river_discharge / n_river if n_river else 0.0)

    def _build_sponge(self) -> None:
        """Nudging weights decaying inland from the west boundary."""
        ny, nx = self.grid.ny, self.grid.nx
        w = np.zeros((ny, nx), dtype=np.float64)
        n = self.cfg.sponge_cells
        for i in range(min(n, nx)):
            w[:, i] = self.cfg.sponge_strength * (1.0 - i / n) ** 2
        w[~self.wet] = 0.0
        self.sponge = w

    def stable_dt(self) -> float:
        """CFL-limited step for the fastest gravity wave on the grid."""
        hmax = float(self.depth[self.wet].max())
        c = np.sqrt(GRAVITY * hmax)
        return self.cfg.cfl * self.grid.min_spacing / (c * np.sqrt(2.0))

    def initial_state(self, t0: float = 0.0) -> ShallowWaterState:
        ny, nx = self.grid.ny, self.grid.nx
        zeta = np.zeros((ny, nx))
        if self.forcing is not None:
            # start from the equilibrium boundary level to avoid a shock
            zeta[self.wet] = float(
                np.mean(self.forcing.elevation(t0, self.grid.y_axis.centers)))
        return ShallowWaterState(
            t0, zeta, np.zeros((ny, nx + 1)), np.zeros((ny + 1, nx)))

    # ------------------------------------------------------------------
    # dynamics (every method takes fields with optional leading axes)
    # ------------------------------------------------------------------
    def total_depth(self, zeta: np.ndarray) -> np.ndarray:
        H = self.depth + zeta
        return np.maximum(H, self.cfg.min_total_depth)

    def _face_depths(self, zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        H = self.total_depth(zeta)
        Hu = self.grid.center_to_u(H)
        Hv = self.grid.center_to_v(H)
        return Hu, Hv

    def volume_fluxes(self, state: ShallowWaterState
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-face transports (H·u, H·v), zeroed at closed faces."""
        Hu, Hv = self._face_depths(state.zeta)
        fx = Hu * state.u
        fy = Hv * state.v
        np.copyto(fx, 0.0, where=self._u_closed)
        np.copyto(fy, 0.0, where=self._v_closed)
        return fx, fy

    def step(self, state: ShallowWaterState) -> ShallowWaterState:
        """Advance one barotropic time step (forward-backward).

        A stacked state advances all its members at once; each member's
        result is bit-identical to stepping it alone.
        """
        g = GRAVITY
        f = self._f
        dt = self.dt
        grid = self.grid
        cfg = self.cfg
        t_new = state.t + dt

        # ---- continuity: ζⁿ⁺¹ = ζⁿ − Δt ∇·(H u) -------------------------
        fx, fy = self.volume_fluxes(state)
        div = grid.flux_divergence(fx, fy)
        zeta_new = state.zeta - dt * div
        # river discharge enters through the northern edge
        if self.river_cell_discharge > 0.0:
            zeta_new[..., self.river_mask] += self._river_rise
        np.copyto(zeta_new, 0.0, where=self._dry)

        # ---- open-boundary nudging to the tide --------------------------
        if self.forcing is not None:
            # (ny, 1), or (B, ny, 1) with one tidal phase per member
            tide = self.forcing.elevation(
                np.asarray(t_new)[..., None],
                self.grid.y_axis.centers)[..., None]
            zeta_new = zeta_new + self.sponge * (tide - zeta_new)

        # ---- momentum (uses ζⁿ⁺¹: the "backward" part) -------------------
        Hu, Hv = self._face_depths(zeta_new)
        dzdx = grid.ddx_at_u(zeta_new)
        dzdy = grid.ddy_at_v(zeta_new)

        v_at_u = self._v_at_u(state.v)
        u_at_v = self._u_at_v(state.u)

        speed_u = np.sqrt(state.u ** 2 + v_at_u ** 2)
        speed_v = np.sqrt(state.v ** 2 + u_at_v ** 2)

        du = (-g * dzdx + f * v_at_u
              - cfg.drag_coefficient * speed_u * state.u / Hu
              + cfg.viscosity * self._laplacian_u(state.u))
        dv = (-g * dzdy - f * u_at_v
              - cfg.drag_coefficient * speed_v * state.v / Hv
              + cfg.viscosity * self._laplacian_v(state.v))

        u_new = state.u + dt * du
        v_new = state.v + dt * dv
        np.copyto(u_new, 0.0, where=self._u_closed)
        np.copyto(v_new, 0.0, where=self._v_closed)
        # zero-gradient outflow at the open west faces keeps the boundary
        # transparent to the nudged surface signal
        u_new[..., 0] = np.where(self.west_outflow,
                                 u_new[..., 1], u_new[..., 0])

        return ShallowWaterState(t_new, zeta_new, u_new, v_new)

    # ------------------------------------------------------------------
    # stencil helpers
    # ------------------------------------------------------------------
    def _v_at_u(self, v: np.ndarray) -> np.ndarray:
        vc = 0.5 * (v[..., :-1, :] + v[..., 1:, :])         # v at centres
        out = np.empty(vc.shape[:-1] + (self.grid.nx + 1,))
        out[..., 1:-1] = 0.5 * (vc[..., :-1] + vc[..., 1:])
        out[..., 0] = vc[..., 0]
        out[..., -1] = vc[..., -1]
        return out

    def _u_at_v(self, u: np.ndarray) -> np.ndarray:
        uc = 0.5 * (u[..., :-1] + u[..., 1:])               # u at centres
        out = np.empty(uc.shape[:-2] + (self.grid.ny + 1, self.grid.nx))
        out[..., 1:-1, :] = 0.5 * (uc[..., :-1, :] + uc[..., 1:, :])
        out[..., 0, :] = uc[..., 0, :]
        out[..., -1, :] = uc[..., -1, :]
        return out

    def _laplacian_u(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        out[..., 1:-1] += (u[..., 2:] - 2 * u[..., 1:-1]
                           + u[..., :-2]) / self._lap_u_dx2
        out[..., 1:-1, :] += (u[..., 2:, :] - 2 * u[..., 1:-1, :]
                              + u[..., :-2, :]) / self._lap_u_dy2
        np.copyto(out, 0.0, where=self._u_closed)
        return out

    def _laplacian_v(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[..., 1:-1] += (v[..., 2:] - 2 * v[..., 1:-1]
                           + v[..., :-2]) / self._lap_v_dx2
        out[..., 1:-1, :] += (v[..., 2:, :] - 2 * v[..., 1:-1, :]
                              + v[..., :-2, :]) / self._lap_v_dy2
        np.copyto(out, 0.0, where=self._v_closed)
        return out

    # ------------------------------------------------------------------
    # integration helpers
    # ------------------------------------------------------------------
    def run(self, state: ShallowWaterState, duration: float
            ) -> ShallowWaterState:
        """Advance ``state`` by ``duration`` seconds (whole steps)."""
        n = max(1, int(round(duration / self.dt)))
        for _ in range(n):
            state = self.step(state)
        return state

    def total_volume(self, state: ShallowWaterState
                     ) -> Union[float, np.ndarray]:
        """Water volume above the bed over wet cells [m³]; one value
        per member, shape ``(B,)``, for a stacked state."""
        H = self.total_depth(state.zeta)
        cells = (H * self.grid.area)[..., self.wet]
        if state.stacked:
            # row by row, so a member's volume has the summation order
            # (hence the bits) of the same state unstacked
            return np.array([row.sum() for row in cells])
        return float(cells.sum())
