"""Water-mass conservation residual (paper Eq. 4–5).

For each horizontal grid cell Ω with contour Γ the conservation of mass
requires

    ∂/∂t ∫_Ω (h + ζ) dΩ  =  −∮_Γ (h + ζ) u · n dΓ

(the paper writes the boundary integral with its sign absorbed).  The
verification metric is the absolute residual of the two sides,
normalised by the cell area so it carries units of m/s — the same units
as the paper's thresholds (3e-4 … 5.5e-4 m/s).

Inputs are surrogate (or solver) outputs at cell centres; face
transports are reconstructed by averaging centre velocities onto the
C-grid faces, matching how the solver computes its fluxes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ocean.grid import CurvilinearGrid

__all__ = ["water_mass_residual", "depth_average", "residual_series_batch"]


def depth_average(field3d: np.ndarray) -> np.ndarray:
    """Depth-average a (…, D) field over uniform sigma layers."""
    return np.asarray(field3d).mean(axis=-1)


def water_mass_residual(grid: CurvilinearGrid, depth: np.ndarray,
                        zeta_prev: np.ndarray, zeta_next: np.ndarray,
                        u_bar: np.ndarray, v_bar: np.ndarray,
                        dt: float,
                        wet: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-cell |mass residual| in m/s per snapshot transition.

    All field arguments accept arbitrary leading axes — (H, W),
    (T, H, W) and (N, T, H, W) inputs vectorise in one call.

    Parameters
    ----------
    grid: horizontal grid (metric terms).
    depth: (H, W) bathymetry h.
    zeta_prev, zeta_next: (…, H, W) free surface at t and t+dt.
    u_bar, v_bar: (…, H, W) depth-averaged velocities at cell centres,
        representative of the interval (callers pass the t+dt fields).
    dt: snapshot interval [s].
    wet: optional (H, W) wet mask; land cells return residual 0.

    Returns
    -------
    (…, H, W) array of non-negative residuals [m/s].
    """
    if wet is None:
        wet = depth > 0.0

    zeta_mid = 0.5 * (zeta_prev + zeta_next)
    H = np.maximum(depth + zeta_mid, 0.0)

    # centre velocities → face transports (C-grid averaging)
    Hu_face = grid.center_to_u(H * u_bar)          # (…, H, W+1)
    Hv_face = grid.center_to_v(H * v_bar)          # (…, H+1, W)

    # faces adjacent to land carry no transport
    wet_u = np.zeros(wet.shape[:-1] + (wet.shape[-1] + 1,), dtype=bool)
    wet_u[:, 1:-1] = wet[:, :-1] & wet[:, 1:]
    wet_u[:, 0] = wet[:, 0]
    wet_u[:, -1] = wet[:, -1]
    wet_v = np.zeros((wet.shape[-2] + 1,) + wet.shape[-1:], dtype=bool)
    wet_v[1:-1, :] = wet[:-1, :] & wet[1:, :]
    wet_v[0, :] = wet[0, :]
    wet_v[-1, :] = wet[-1, :]
    Hu_face = np.where(wet_u, Hu_face, 0.0)
    Hv_face = np.where(wet_v, Hv_face, 0.0)

    div = grid.flux_divergence(Hu_face, Hv_face)   # m/s per cell

    dzdt = (zeta_next - zeta_prev) / dt
    return np.where(wet, np.abs(dzdt + div), 0.0)


def residual_series_batch(grid: CurvilinearGrid, depth: np.ndarray,
                          zeta_seq: np.ndarray, u3_seq: np.ndarray,
                          v3_seq: np.ndarray, dt: float,
                          wet: Optional[np.ndarray] = None
                          ) -> np.ndarray:
    """Residual fields for N forecast sequences in one vectorised pass.

    Parameters
    ----------
    zeta_seq: (N, T, H, W); u3_seq, v3_seq: (N, T, H, W, D).
    dt: snapshot interval.

    Returns
    -------
    (N, T−1, H, W) residuals for each transition t → t+1 of each
    sequence.
    """
    T = zeta_seq.shape[1]
    if T < 2:
        raise ValueError("need at least two snapshots for a time derivative")
    zeta_seq = np.asarray(zeta_seq, dtype=np.float64)
    u_bar = depth_average(np.asarray(u3_seq, dtype=np.float64)[:, 1:])
    v_bar = depth_average(np.asarray(v3_seq, dtype=np.float64)[:, 1:])
    return water_mass_residual(grid, depth, zeta_seq[:, :-1],
                               zeta_seq[:, 1:], u_bar, v_bar, dt, wet)
