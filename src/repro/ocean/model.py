"""ROMS-like coastal circulation driver.

:class:`RomsLikeModel` composes the grid, bathymetry, tidal forcing,
barotropic solver and sigma-layer diagnostics into the interface every
other part of the library consumes:

* ``simulate`` — run from an initial state and collect snapshots of
  (u, v, w, ζ) every ``snapshot_interval`` seconds, exactly like the
  decade-long half-hourly ROMS archive the paper trains on;
* ``forecast`` — the fallback path of the hybrid workflow: advance a
  given initial condition (or a stack of them, along the solver's
  ensemble axis) by one episode and return its snapshots;
* boundary-extraction helpers used to assemble surrogate inputs.

Snapshot field layout matches the surrogate convention:
``u3, v3, w3`` are ``(T, H, W, D)`` (depth last, surface layer last)
and ``zeta`` is ``(T, H, W)``, with H = ny (north) and W = nx (east).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .bathymetry import BathymetryConfig, synth_estuary_bathymetry
from .grid import make_charlotte_grid
from .sigma import SigmaLayers, VerticalStructure
from .swe import ShallowWaterSolver, ShallowWaterState, SWEConfig
from .tides import TidalForcing

__all__ = ["OceanConfig", "Snapshot", "RomsLikeModel"]


@dataclass(frozen=True)
class OceanConfig:
    """Configuration of the full ocean substrate."""

    nx: int = 60
    ny: int = 90
    nz: int = 6
    length_x: float = 60_000.0
    length_y: float = 90_000.0
    bathymetry: BathymetryConfig = field(default_factory=BathymetryConfig)
    swe: SWEConfig = field(default_factory=SWEConfig)
    snapshot_interval: float = 1800.0      # 30 minutes, as in the paper

    @staticmethod
    def paper_mesh() -> "OceanConfig":
        """Full 898×598×12 mesh (for perf modelling, not CPU training)."""
        return OceanConfig(nx=598, ny=898, nz=12,
                           length_x=80_000.0, length_y=110_000.0)


@dataclass
class Snapshot:
    """One output snapshot of the four learned variables.

    The snapshot of a stacked state carries the same leading ensemble
    axis: ``t`` is ``(B,)`` and every field ``(B, …)``.
    """

    t: Union[float, np.ndarray]
    u3: np.ndarray      # (…, H, W, D)
    v3: np.ndarray      # (…, H, W, D)
    w3: np.ndarray      # (…, H, W, D)
    zeta: np.ndarray    # (…, H, W)


class RomsLikeModel:
    """Tidal circulation model of a Charlotte-Harbor-like estuary."""

    def __init__(self, config: Optional[OceanConfig] = None,
                 forcing: Optional[TidalForcing] = None):
        cfg = config or OceanConfig()
        self.config = cfg
        self.grid = make_charlotte_grid(cfg.nx, cfg.ny,
                                        cfg.length_x, cfg.length_y)
        self.depth = synth_estuary_bathymetry(self.grid, cfg.bathymetry)
        self.forcing = forcing if forcing is not None else TidalForcing()
        self.solver = ShallowWaterSolver(self.grid, self.depth,
                                         self.forcing, cfg.swe)
        self.layers = SigmaLayers(cfg.nz)
        self.vertical = VerticalStructure(self.grid, self.layers)

    # ------------------------------------------------------------------
    # state → snapshot
    # ------------------------------------------------------------------
    def diagnose(self, state: ShallowWaterState) -> Snapshot:
        """Build the (u, v, w, ζ) snapshot from a barotropic state."""
        if state.stacked:
            # member by member: diagnosis runs once per snapshot, not
            # once per step, so it is not worth a second vectorisation
            members = [self.diagnose(m) for m in state.unstack()]
            return Snapshot(state.t, *(
                np.stack([getattr(m, name) for m in members])
                for name in ("u3", "v3", "w3", "zeta")))
        H = self.solver.total_depth(state.zeta)
        uc = self.grid.u_to_center(state.u)
        vc = self.grid.v_to_center(state.v)
        u3, v3 = self.vertical.horizontal(uc, vc, H)
        w3 = self.vertical.vertical(u3, v3, H)
        wet = self.solver.wet
        for f3 in (u3, v3, w3):
            f3[:, ~wet] = 0.0
        zeta = np.where(wet, state.zeta, 0.0)
        # (nz, ny, nx) → (ny, nx, nz) with surface layer last
        to_hwd = lambda a: np.ascontiguousarray(np.moveaxis(a, 0, -1))
        return Snapshot(state.t, to_hwd(u3), to_hwd(v3), to_hwd(w3), zeta)

    # ------------------------------------------------------------------
    # simulation drivers
    # ------------------------------------------------------------------
    def spinup(self, duration: float = 2 * 86400.0,
               t0: float = 0.0) -> ShallowWaterState:
        """Integrate from rest until the tide is fully developed."""
        state = self.solver.initial_state(t0)
        return self.solver.run(state, duration)

    def simulate(self, state: ShallowWaterState, n_snapshots: int,
                 snapshot_interval: Optional[float] = None
                 ) -> Tuple[List[Snapshot], ShallowWaterState]:
        """Collect ``n_snapshots`` snapshots starting *after* ``state.t``.

        Returns the snapshots and the final prognostic state (so callers
        can continue the run without re-spinning up).
        """
        dt_out = snapshot_interval or self.config.snapshot_interval
        snaps: List[Snapshot] = []
        for _ in range(n_snapshots):
            state = self.solver.run(state, dt_out)
            snaps.append(self.diagnose(state))
        return snaps, state

    def simulate_with_states(self, state: ShallowWaterState,
                             n_snapshots: int, every: int,
                             snapshot_interval: Optional[float] = None
                             ) -> Tuple[List[Snapshot],
                                        List[ShallowWaterState],
                                        ShallowWaterState]:
        """Like :meth:`simulate`, also recording the prognostic state at
        every ``every``-th snapshot boundary (episode starts) — the
        fallback entry points of the hybrid workflow."""
        dt_out = snapshot_interval or self.config.snapshot_interval
        snaps: List[Snapshot] = []
        states: List[ShallowWaterState] = []
        for k in range(n_snapshots):
            if k % every == 0:
                states.append(state.copy())
            state = self.solver.run(state, dt_out)
            snaps.append(self.diagnose(state))
        return snaps, states, state

    def forecast(self, initial: ShallowWaterState, n_snapshots: int,
                 snapshot_interval: Optional[float] = None) -> List[Snapshot]:
        """ROMS-style episode forecast (the hybrid workflow's fallback).

        A stacked ``initial`` (:meth:`ShallowWaterState.stack`) advances
        all its members in one integration and returns stacked
        snapshots, each member bit-identical to forecasting it alone.
        """
        snaps, _ = self.simulate(initial.copy(), n_snapshots,
                                 snapshot_interval)
        return snaps

    # ------------------------------------------------------------------
    # helpers for surrogate input assembly
    # ------------------------------------------------------------------
    @staticmethod
    def boundary_rim(field2d: np.ndarray, width: int = 1) -> np.ndarray:
        """Zero the interior, keep a rim of ``width`` cells (per 2-D slice).

        Works for ``(H, W)`` and ``(H, W, D)`` arrays (rim applies to the
        horizontal plane).
        """
        out = np.zeros_like(field2d)
        w = width
        out[:w, ...] = field2d[:w, ...]
        out[-w:, ...] = field2d[-w:, ...]
        out[:, :w, ...] = field2d[:, :w, ...]
        out[:, -w:, ...] = field2d[:, -w:, ...]
        return out

    def stack_fields(self, snaps: List[Snapshot]
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Stack snapshots into ``(3, H, W, D, T)`` and ``(1, H, W, T)``."""
        u = np.stack([s.u3 for s in snaps], axis=-1)
        v = np.stack([s.v3 for s in snaps], axis=-1)
        w = np.stack([s.w3 for s in snaps], axis=-1)
        z = np.stack([s.zeta for s in snaps], axis=-1)
        return np.stack([u, v, w], axis=0), z[None]
