"""Synthetic estuary bathymetry.

The paper's domain is Charlotte Harbor: a shallow estuary sheltered by
barrier islands, connected to the Gulf through tidal inlets, and fed by
a river at its head.  We synthesise a bathymetry with the same
morphological elements — offshore shelf, barrier islands with inlet
gaps, a shallow lagoon, dredged channels, and a river arm — so the
surrogate faces the same learning problem: tidal waves entering through
narrow inlets and propagating across a shallow, frictional basin.

Depths are positive below the reference surface; land cells carry
``depth ≤ 0`` and are masked by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CurvilinearGrid


@dataclass(frozen=True)
class BathymetryConfig:
    """Morphology parameters (all lengths in metres, depths in metres).

    A scenario basin draws its own shelf depth and noise seed; the rest
    of the morphology is one constant shape.
    """

    shelf_depth: float = 18.0        # offshore depth at the west boundary
    seed: int = 7

    lagoon_depth = 4.0               # typical depth inside the estuary
    channel_depth = 9.0              # dredged navigation channel
    river_depth = 6.0
    barrier_x_frac = 0.28            # barrier island position (x fraction)
    barrier_width_frac = 0.045
    inlet_y_fracs = (0.30, 0.62)     # inlet gap centres
    inlet_half_width_frac = 0.045
    river_x_frac = 0.62              # river channel x position
    river_start_y_frac = 0.80
    land_east_frac = 0.88            # mainland shoreline (east side)
    noise_amp = 0.25


def synth_estuary_bathymetry(grid: CurvilinearGrid,
                             cfg: BathymetryConfig = BathymetryConfig()
                             ) -> np.ndarray:
    """Return depth ``h`` (ny, nx), positive = water, ≤0 = land."""
    ny, nx = grid.ny, grid.nx
    xf = grid.x_axis.centers / grid.x_axis.length   # 0..1 west→east
    yf = grid.y_axis.centers / grid.y_axis.length   # 0..1 south→north
    X, Y = np.meshgrid(xf, yf)

    # Offshore shelf shoaling toward the barrier, lagoon beyond it.
    h = cfg.shelf_depth * (1.0 - 0.75 * X / max(cfg.barrier_x_frac, 1e-9))
    lagoon = X > cfg.barrier_x_frac
    h[lagoon] = cfg.lagoon_depth * (1.0 - 0.35 * (X[lagoon] - cfg.barrier_x_frac))

    # Barrier islands: a land strip at barrier_x_frac with inlet gaps.
    barrier = np.abs(X - cfg.barrier_x_frac) < cfg.barrier_width_frac
    in_inlet = np.zeros_like(barrier)
    for iy in cfg.inlet_y_fracs:
        in_inlet |= np.abs(Y - iy) < cfg.inlet_half_width_frac
    h[barrier & ~in_inlet] = -1.5       # island land
    h[barrier & in_inlet] = cfg.channel_depth  # deep inlet throat

    # Dredged channel from each inlet toward the river mouth.
    for iy in cfg.inlet_y_fracs:
        along = np.clip((X - cfg.barrier_x_frac) /
                        max(cfg.river_x_frac - cfg.barrier_x_frac, 1e-9), 0, 1)
        channel_y = iy + (cfg.river_start_y_frac - iy) * along
        in_channel = (np.abs(Y - channel_y) < 0.02) & (X > cfg.barrier_x_frac) \
            & (X < cfg.river_x_frac + 0.02)
        h[in_channel] = np.maximum(
            h[in_channel],
            cfg.channel_depth * (1 - 0.3 * along[in_channel]))

    # River arm entering from the north.
    river = (np.abs(X - cfg.river_x_frac) < 0.03) & (Y > cfg.river_start_y_frac)
    h[river] = cfg.river_depth

    # Mainland to the east and at the north (except the river).
    h[(X > cfg.land_east_frac) & ~river] = -2.0
    h[(Y > 0.96) & ~river] = -2.0

    # Gentle deterministic bathymetric noise (shoals and holes).
    rng = np.random.default_rng(cfg.seed)
    noise = rng.normal(0.0, 1.0, size=(ny, nx))
    # smooth the noise with a separable box filter to ~3-cell correlation
    for _ in range(3):
        noise[1:-1, :] = (noise[:-2, :] + noise[1:-1, :] + noise[2:, :]) / 3.0
        noise[:, 1:-1] = (noise[:, :-2] + noise[:, 1:-1] + noise[:, 2:]) / 3.0
    water = h > 0
    h[water] = np.maximum(h[water] + cfg.noise_amp * noise[water], 0.8)

    return h.astype(np.float64)


def wet_mask(h: np.ndarray) -> np.ndarray:
    """Boolean mask of wet (ocean) cells: positive depth."""
    return h > 0.0
