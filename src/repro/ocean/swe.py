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

Ensemble axis and layout
------------------------
The prognostic state may carry one leading ensemble axis
(:meth:`ShallowWaterState.stack`): ``zeta/u/v`` are ``(…, ny, nx[+1])``
and ``t`` a scalar or ``(B,)``.  :meth:`ShallowWaterSolver.run` packs
the state once onto one padded layout: per member, every field sits on
the same ``(ny+1, nx+1)`` cell grid (ζ in ``[:ny, :nx]``, u in
``[:ny, :]``, v in ``[:, :nx]``), and the members are stacked and
flattened between zero guards.  A stencil neighbour is then one
contiguous view at a fixed offset — ±1 in x, ±(nx+1) in y — so a step
is a fixed sequence of in-place ufuncs over all members at once.
Padding counts as dry and closed, so it stays zero.  The expressions
and their order are the unpadded ones, so a stacked integration is
bit-identical, member by member, to stepping the members one at a
time.  :meth:`~ShallowWaterSolver.step` is ``run`` for one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .grid import CurvilinearGrid
from .tides import TidalForcing

GRAVITY = 9.81
OMEGA_EARTH = 7.2921e-5
#: most tidal boundary values a run evaluates in one call: its steps
#: go in blocks, so a long run never holds its whole boundary series
_TIDE_BLOCK = 1 << 14


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
        """Everything a step would otherwise recompute per call, on one
        member's padded ``(ny+1, nx+1)`` cell grid, flattened.

        Derived from the masks, spacings, river share and ``dt``; a
        subclass that overrides any of those re-runs this afterwards.
        Padding cells count as dry / closed, so every field stays zero
        there, and the coefficients hold 1.0 there, so no step divides
        by zero.  Values are exactly what the unpadded expressions use.
        A mask is a ``uint64`` keep-pattern: ``x & keep`` clears every
        bit of a closed, dry or padding cell — makes it +0.0, exactly
        what ``np.copyto(x, 0.0, where=closed)`` writes — at the cost
        of one contiguous ufunc instead of a masked copy.
        """
        grid = self.grid
        ny, nx = grid.ny, grid.nx
        self._f = self.cfg.coriolis_f
        self._u_closed = ~self.u_open
        self._v_closed = ~self.v_open

        def padded(a, fill):
            out = np.full((ny + 1, nx + 1), fill, dtype=a.dtype)
            out[:a.shape[0], :a.shape[1]] = a
            return out.ravel()

        def keep(mask):
            return np.where(padded(mask, False), ~np.uint64(0),
                            np.uint64(0))

        # cell spacing across the stencil direction, at u and v faces
        dyc = padded(np.broadcast_to(grid.y_axis.spacing[:, None],
                                     (ny, nx + 1)), 1.0)
        dxc = padded(np.broadcast_to(grid.x_axis.spacing[None, :],
                                     (ny + 1, nx)), 1.0)
        dxu, dyv = padded(grid.dxu, 1.0), padded(grid.dyv, 1.0)
        self._padded = {
            "depth": padded(self.depth, 0.0),
            "wet": keep(self.wet),
            "u_open": keep(self.u_open),
            "v_open": keep(self.v_open),
            "sponge": padded(self.sponge, 0.0),
            "area": padded(grid.area, 1.0),
            "dyc": dyc, "dxc": dxc, "dxu": dxu, "dyv": dyv,
            "lap_u_dx2": dxu ** 2, "lap_u_dy2": dyc ** 2,
            "lap_v_dx2": dxc ** 2, "lap_v_dy2": dyv ** 2,
        }
        # surface rise per step in each river cell
        self._river_cells = np.flatnonzero(padded(self.river_mask, False))
        self._padded["river_rise"] = (self.dt * self.river_cell_discharge
                                      / grid.area[self.river_mask])
        # the constants repeated for the ensemble size of the last run:
        # one (B, constants) pair, read and replaced whole
        self._tiled = None

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

    def volume_fluxes(self, state: ShallowWaterState
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-face transports (H·u, H·v), zeroed at closed faces."""
        H = self.total_depth(state.zeta)
        fx = self.grid.center_to_u(H) * state.u
        fy = self.grid.center_to_v(H) * state.v
        np.copyto(fx, 0.0, where=self._u_closed)
        np.copyto(fy, 0.0, where=self._v_closed)
        return fx, fy

    def step(self, state: ShallowWaterState) -> ShallowWaterState:
        """Advance one barotropic time step: :meth:`run` for one step.

        Returns fresh arrays and a fresh ``t``.  A stacked state
        advances all its members at once; each member's result is
        bit-identical to stepping it alone.
        """
        return self._advance(state, 1)

    def run(self, state: ShallowWaterState, duration: float
            ) -> ShallowWaterState:
        """Advance ``state`` by ``duration`` seconds (whole steps)."""
        return self._advance(state, max(1, int(round(duration / self.dt))))

    def _advance(self, state: ShallowWaterState, n: int
                 ) -> ShallowWaterState:
        """``n`` forward-backward steps on the padded, flat layout.

        Each member's fields share one ``(ny+1, nx+1)`` cell grid: ζ in
        ``[:ny, :nx]``, u in ``[:ny, :]``, v in ``[:, :nx]``.  The
        members are stacked and flattened between two guards of
        ``nx+2`` zeros, so each stencil neighbour is one contiguous
        view at a fixed offset: ±1 in x, ±(nx+1) in y.  The state is
        packed once, stepped in place on two alternating buffer sets
        and unpacked once; only the edge fixes of the face stencils
        (centre→face copies, zeroed edge gradients, the west outflow)
        touch strided views.  Every buffer belongs to this call, so
        two threads may integrate on one solver.
        """
        g, f, dt, cfg = GRAVITY, self._f, self.dt, self.cfg
        ny, nx = self.grid.ny, self.grid.nx
        W = nx + 1                          # padded row length
        B = len(state.zeta) if state.stacked else 1
        N = B * (ny + 1) * W
        G = W + 1                           # guard at each end

        def at(a, d=0):
            """The cells of a guarded buffer, shifted by ``d``."""
            return a[G + d:G + d + N]

        def cells(a):
            return (at(a) if len(a) > N else a).reshape(B, ny + 1, W)

        tiled = self._tiled
        if tiled is None or tiled[0] != B:
            c = {k: np.tile(a, B) for k, a in self._padded.items()}
            c["river_at"] = G + np.add.outer(np.arange(B) * (ny + 1) * W,
                                             self._river_cells).ravel()
            tiled = self._tiled = (B, c)
        c = tiled[1]

        # the state: two buffer sets, stepped cur → new in turn; per
        # field, its cells at offsets 0, +1, −1, +W, −W, and their bits
        sets = []
        for full in np.zeros((2, 3, N + 2 * G)):
            sets.append([[at(x, d) for d in (0, 1, -1, W, -W)]
                         + [at(x).view(np.uint64)] for x in full] + [full])
        z3, u3, v3 = (cells(x) for x in sets[0][3])
        z3[:, :ny, :nx] = state.zeta.reshape(B, ny, nx)
        u3[:, :ny, :] = state.u.reshape(B, ny, W)
        v3[:, :, :nx] = state.v.reshape(B, ny + 1, nx)

        # temporaries; the ones read at an offset carry guards
        H, fx, fy, vc, uc = np.zeros((5, N + 2 * G))
        Hc, fxc, fyc, vcc, ucc = (at(x) for x in (H, fx, fy, vc, uc))
        fx_bits, fy_bits = fxc.view(np.uint64), fyc.view(np.uint64)
        Hu, Hv, dzdx, dzdy, vau, uav, twice, a, b, d, tide = np.zeros(
            (11, N))
        H3, Hu3, Hv3, vc3, uc3, vau3, uav3, dzdx3, dzdy3, a3, d3 = (
            cells(x) for x in (H, Hu, Hv, vc, uc, vau, uav, dzdx, dzdy,
                               a, d))
        # edge faces copy the edge cell / centre value ...
        depth_edges = ((Hu3[..., 0], H3[..., 0]),
                       (Hu3[..., nx], H3[..., nx - 1]),
                       (Hv3[:, 0], H3[:, 0]), (Hv3[:, ny], H3[:, ny - 1]))
        centre_edges = ((vau3[..., 0], vc3[..., 0]),
                        (vau3[..., nx], vc3[..., nx - 1]),
                        (uav3[:, 0], uc3[:, 0]), (uav3[:, ny], uc3[:, ny - 1]))
        # ... and have no term where the stencil lacks a neighbour
        grad_edges = (dzdx3[..., 0], dzdx3[..., nx],
                      dzdy3[:, 0], dzdy3[:, ny])
        lap_u_edges = (a3[..., 0], a3[..., nx], d3[:, 0], d3[:, ny - 1])
        lap_v_edges = (a3[..., 0], a3[..., nx - 1], d3[:, 0], d3[:, ny])

        river = self.river_cell_discharge > 0.0
        tide_rows = cells(tide)[:, :ny, :]
        block = max(1, _TIDE_BLOCK // (B * ny))
        t = state.t

        def mean(x, y, out):
            np.add(x, y, out=out)
            np.multiply(0.5, out, out=out)

        def face_depths(zeta):
            """H = max(depth + ζ, floor), averaged onto u and v faces."""
            np.add(c["depth"], zeta, out=Hc)
            np.maximum(Hc, cfg.min_total_depth, out=Hc)
            mean(at(H, -1), Hc, Hu)
            mean(at(H, -W), Hc, Hv)
            for dst, src in depth_edges:
                np.copyto(dst, src)

        def momentum(Q, across, grad, Hq, coriolis, lap_dx2, lap_dy2,
                     lap_edges, Qn, keep):
            """q + Δt (−g ∂ζ ± f q⊥ − C_d |q| q / H + ν ∇²q) into ``Qn``,
            zero on closed faces (which is why ∇²q needs no mask)."""
            q, qp1, qm1, qpW, qmW, _ = Q
            np.square(q, out=a)
            np.square(across, out=b)
            np.add(a, b, out=a)
            np.sqrt(a, out=a)
            np.multiply(cfg.drag_coefficient, a, out=a)
            np.multiply(a, q, out=a)
            np.divide(a, Hq, out=a)
            np.multiply(-g, grad, out=b)
            np.multiply(f, across, out=d)
            coriolis(b, d, out=b)
            np.subtract(b, a, out=b)
            # ∇²q = (0 + ∂²q/∂x²) + ∂²q/∂y²: the unpadded form adds each
            # term to zeros, which turns a −0.0 term into +0.0
            np.multiply(2, q, out=twice)
            np.subtract(qp1, twice, out=a)
            np.add(a, qm1, out=a)
            np.divide(a, lap_dx2, out=a)
            np.subtract(qpW, twice, out=d)
            np.add(d, qmW, out=d)
            np.divide(d, lap_dy2, out=d)
            for edge in lap_edges:
                edge.fill(0.0)
            np.add(a, 0.0, out=a)
            np.add(a, d, out=a)
            np.multiply(cfg.viscosity, a, out=a)
            np.add(b, a, out=b)
            np.multiply(dt, b, out=b)
            np.add(q, b, out=Qn[0])
            np.bitwise_and(Qn[5], keep, out=Qn[5])

        # a step's face depths of ζⁿ⁺¹ are the next step's of ζⁿ
        face_depths(sets[0][0][0])
        for s in range(n):
            Z, U, V, _ = sets[s % 2]
            Zn, Un, Vn, (zn_full, un_full, _) = sets[1 - s % 2]
            z, u, v, zn = Z[0], U[0], V[0], Zn[0]
            if s % block == 0:
                # the next block's times, by the t ← t + dt chain of
                # single steps, and their tidal boundary in one call
                ts = []
                for _ in range(min(block, n - s)):
                    t = t + dt
                    ts.append(t)
                if self.forcing is not None:
                    tides = self.forcing.elevation(
                        np.asarray(ts)[..., None],
                        self.grid.y_axis.centers).reshape(-1, B, ny)

            # ---- continuity: ζⁿ⁺¹ = ζⁿ − Δt ∇·(H u) ---------------------
            np.multiply(Hu, u, out=fxc)
            np.bitwise_and(fx_bits, c["u_open"], out=fx_bits)
            np.multiply(Hv, v, out=fyc)
            np.bitwise_and(fy_bits, c["v_open"], out=fy_bits)
            np.multiply(at(fx, 1), c["dyc"], out=a)
            np.multiply(fxc, c["dyc"], out=b)
            np.subtract(a, b, out=a)
            np.multiply(at(fy, W), c["dxc"], out=b)
            np.multiply(fyc, c["dxc"], out=d)
            np.subtract(b, d, out=b)
            np.add(a, b, out=a)
            np.divide(a, c["area"], out=a)
            np.multiply(dt, a, out=a)
            np.subtract(z, a, out=zn)
            # river discharge enters through the northern edge
            if river:
                zn_full[c["river_at"]] += c["river_rise"]
            np.bitwise_and(Zn[5], c["wet"], out=Zn[5])

            # ---- open-boundary nudging to the tide ----------------------
            if self.forcing is not None:
                np.copyto(tide_rows, tides[s % block][..., None])
                np.subtract(tide, zn, out=a)
                np.multiply(c["sponge"], a, out=a)
                np.add(zn, a, out=zn)

            # ---- momentum (uses ζⁿ⁺¹: the "backward" part) ---------------
            face_depths(zn)
            np.subtract(zn, Zn[2], out=dzdx)
            np.divide(dzdx, c["dxu"], out=dzdx)
            np.subtract(zn, Zn[4], out=dzdy)
            np.divide(dzdy, c["dyv"], out=dzdy)
            for edge in grad_edges:
                edge.fill(0.0)
            mean(v, V[3], vcc)                       # v at centres
            mean(at(vc, -1), vcc, vau)
            mean(u, U[1], ucc)                       # u at centres
            mean(at(uc, -W), ucc, uav)
            for dst, src in centre_edges:
                np.copyto(dst, src)

            momentum(U, vau, dzdx, Hu, np.add, c["lap_u_dx2"],
                     c["lap_u_dy2"], lap_u_edges, Un, c["u_open"])
            # zero-gradient outflow at the open west faces keeps the
            # boundary transparent to the nudged surface signal
            un3 = cells(un_full)
            np.copyto(un3[:, :ny, 0], un3[:, :ny, 1],
                      where=self.west_outflow)
            momentum(V, uav, dzdy, Hv, np.subtract, c["lap_v_dx2"],
                     c["lap_v_dy2"], lap_v_edges, Vn, c["v_open"])

        z3, u3, v3 = (cells(x) for x in sets[n % 2][3])
        fields = (z3[:, :ny, :nx].copy(), u3[:, :ny, :].copy(),
                  v3[:, :, :nx].copy())
        if not state.stacked:
            fields = tuple(x[0] for x in fields)
        return ShallowWaterState(t, *fields)

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
