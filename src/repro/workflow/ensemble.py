"""Ensemble uncertainty quantification (paper §V future work).

The paper's conclusion names an "uncertainty quantification module for
the AI surrogate" as future work and motivates the speed of the
surrogate with "an ensemble of tens of thousands of models for
uncertainty quantification" (§I).  This module implements the standard
initial-condition-perturbation ensemble on top of the forecaster: N
surrogate episodes from perturbed ICs give a per-cell forecast mean,
spread (standard deviation), and exceedance probabilities — the
quantities an early-warning system consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .forecast import FieldWindow, SurrogateForecaster


@dataclass
class EnsembleForecast:
    """Statistics of an N-member surrogate ensemble."""

    members: List[FieldWindow]
    mean: FieldWindow
    spread: FieldWindow          # per-cell std over members
    inference_seconds: float

    @property
    def n_members(self) -> int:
        return len(self.members)

    def exceedance_probability(self, zeta_level: float) -> np.ndarray:
        """P(ζ > level) per (T, H, W) cell — the early-warning product."""
        stack = np.stack([m.zeta for m in self.members])   # (N, T, H, W)
        return (stack > zeta_level).mean(axis=0)


class EnsembleForecaster:
    """Initial-condition-perturbation ensemble around one surrogate.

    Parameters
    ----------
    forecaster: any batch executor — an object with
        ``forecast_batch(windows) -> list[ForecastResult]``.  Direct
        callers pass a :class:`SurrogateForecaster` (or the engine
        itself); a serving deployment injects its
        :class:`~repro.serve.pool.EngineWorkerPool`, which shards the
        members across its replicas' micro-batches.  Both routes run
        the same code.
    n_members: ensemble size (member 0 is always unperturbed).
    zeta_sigma: free-surface IC perturbation scale [m] — calibrate to
        the analysis uncertainty of the operational system.  Velocities
        are perturbed by ``VELOCITY_SIGMA`` [m/s].
    seed: RNG seed; the ensemble is fully reproducible.
    """

    VELOCITY_SIGMA = 0.02

    def __init__(self, forecaster: "SurrogateForecaster",
                 n_members: int = 8, zeta_sigma: float = 0.02,
                 seed: int = 0):
        if n_members < 2:
            raise ValueError("an ensemble needs at least 2 members")
        self.forecaster = forecaster
        self.n_members = n_members
        self.zeta_sigma = zeta_sigma
        self.seed = seed

    # ------------------------------------------------------------------
    def _perturbed(self, reference: FieldWindow, member: int,
                   wet: Optional[np.ndarray]) -> FieldWindow:
        if member == 0:
            return reference
        rng = np.random.default_rng(self.seed + member)
        ref = reference.copy()
        zp = rng.normal(0.0, self.zeta_sigma, size=ref.zeta[0].shape)
        up = rng.normal(0.0, self.VELOCITY_SIGMA, size=ref.u3[0].shape)
        vp = rng.normal(0.0, self.VELOCITY_SIGMA, size=ref.v3[0].shape)
        if wet is not None:
            zp[~wet] = 0.0
            up[~wet] = 0.0
            vp[~wet] = 0.0
        # perturb the initial condition only; boundary slots untouched
        ref.zeta[0] += zp
        ref.u3[0] += up
        ref.v3[0] += vp
        return ref

    def forecast(self, reference: FieldWindow,
                 wet: Optional[np.ndarray] = None) -> EnsembleForecast:
        """Run the ensemble for one episode.

        All N members go through the injected executor's
        ``forecast_batch``: one batched model forward when driven
        directly, scheduler micro-batches when served.
        """
        perturbed = [self._perturbed(reference, m, wet)
                     for m in range(self.n_members)]
        outs = self.forecaster.forecast_batch(perturbed)
        members: List[FieldWindow] = [o.fields for o in outs]
        seconds = sum(o.inference_seconds for o in outs)

        def stat(fn):
            return FieldWindow(
                fn(np.stack([m.u3 for m in members]), axis=0),
                fn(np.stack([m.v3 for m in members]), axis=0),
                fn(np.stack([m.w3 for m in members]), axis=0),
                fn(np.stack([m.zeta for m in members]), axis=0),
            )

        return EnsembleForecast(
            members=members,
            mean=stat(np.mean),
            spread=stat(np.std),
            inference_seconds=seconds,
        )
