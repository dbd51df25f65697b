"""Physics-based result verification (paper §III-E): the water-mass
conservation residual and the thresholded :class:`Verifier`.

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

The :class:`Verifier` checks whether a surrogate forecast adheres to
the water-mass conservation law: the mean per-cell residual over wet
cells must stay below a threshold.  The hybrid workflow consults the
verifier after every surrogate episode and falls back to the ROMS-like
solver on failure ("early error detection during the calculation",
§IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..ocean.grid import CurvilinearGrid

#: "Water mass residuals … smaller than 5.0e-4 m/s are typically
#: considered acceptable by oceanographers" (paper §IV-D).
OCEANOGRAPHY_ACCEPTED_THRESHOLD = 5.0e-4

#: Threshold sweep of the paper's Fig. 7 / Fig. 8 (m/s).
PAPER_THRESHOLDS = (3.0e-4, 3.5e-4, 4.0e-4, 4.5e-4, 5.0e-4, 5.5e-4)


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


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one forecast episode."""

    mean_residual: float          # wet-cell mean over the episode [m/s]
    max_residual: float
    threshold: float
    passed: bool
    per_step_mean: np.ndarray     # (T−1,) mean residual of each transition

    def __repr__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"VerificationResult({tag}, mean={self.mean_residual:.3e}, "
                f"thr={self.threshold:.1e})")


class Verifier:
    """Thresholded mass-conservation check on surrogate forecasts.

    Parameters
    ----------
    grid, depth: domain geometry (wet mask derived from depth).
    dt: snapshot interval of the forecasts to be checked [s].

    An episode passes when its mean residual [m/s] is below
    ``threshold``, the accepted oceanographic one unless a batch call
    overrides it.
    """

    threshold = OCEANOGRAPHY_ACCEPTED_THRESHOLD

    def __init__(self, grid: CurvilinearGrid, depth: np.ndarray,
                 dt: float = 1800.0):
        self.grid = grid
        self.depth = np.asarray(depth)
        self.wet = self.depth > 0.0
        self.dt = float(dt)

    def verify(self, zeta_seq: np.ndarray, u3_seq: np.ndarray,
               v3_seq: np.ndarray) -> VerificationResult:
        """Verify one forecast episode against the threshold."""
        return self.verify_batch([zeta_seq], [u3_seq], [v3_seq])[0]

    def verify_batch(self, zeta_seqs: Sequence[np.ndarray],
                     u3_seqs: Sequence[np.ndarray],
                     v3_seqs: Sequence[np.ndarray],
                     threshold: Optional[float] = None
                     ) -> List[VerificationResult]:
        """Verify N forecast episodes in one vectorised residual pass.

        All episodes must share the verifier's (H, W) geometry; the
        residual fields of every episode are computed in a single
        batched call, so the hybrid gate does not re-serialise a
        batched surrogate forward.
        """
        thr = self.threshold if threshold is None else float(threshold)
        res = residual_series_batch(
            self.grid, self.depth,
            np.stack([np.asarray(z) for z in zeta_seqs]),
            np.stack([np.asarray(u) for u in u3_seqs]),
            np.stack([np.asarray(v) for v in v3_seqs]),
            self.dt, self.wet)
        res_wet = res[:, :, self.wet]               # (N, T−1, n_wet)
        per_step = res_wet.mean(axis=2)             # (N, T−1)
        means = per_step.mean(axis=1)
        maxes = res_wet.max(axis=(1, 2))
        return [
            VerificationResult(
                mean_residual=float(m),
                max_residual=float(mx),
                threshold=thr,
                passed=bool(m < thr),
                per_step_mean=ps,
            )
            for m, mx, ps in zip(means, maxes, per_step)
        ]

    def pass_rate(self, episodes: Sequence[VerificationResult] | Sequence[float],
                  threshold: Optional[float] = None) -> float:
        """Fraction of episodes whose mean residual beats the threshold.

        Accepts either :class:`VerificationResult` objects or raw mean
        residual floats, enabling cheap threshold sweeps (Fig. 7) from a
        single residual computation.
        """
        thr = self.threshold if threshold is None else float(threshold)
        values = [
            e.mean_residual if isinstance(e, VerificationResult) else float(e)
            for e in episodes
        ]
        if not values:
            raise ValueError("no episodes to evaluate")
        return float(np.mean([v < thr for v in values]))
