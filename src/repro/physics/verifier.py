"""Physics-based result verification (paper §III-E).

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
from .residual import residual_series_batch

__all__ = ["VerificationResult", "Verifier", "OCEANOGRAPHY_ACCEPTED_THRESHOLD",
           "PAPER_THRESHOLDS"]

#: "Water mass residuals … smaller than 5.0e-4 m/s are typically
#: considered acceptable by oceanographers" (paper §IV-D).
OCEANOGRAPHY_ACCEPTED_THRESHOLD = 5.0e-4

#: Threshold sweep of the paper's Fig. 7 / Fig. 8 (m/s).
PAPER_THRESHOLDS = (3.0e-4, 3.5e-4, 4.0e-4, 4.5e-4, 5.0e-4, 5.5e-4)


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
