"""Surrogate forecasting: single episodes and dual-model rollouts.

Implements the inference side of the paper's workflow (§III-A) on top
of the batched :class:`~repro.workflow.engine.ForecastEngine`:

* :class:`SurrogateForecaster` — runs one trained surrogate on
  episodes assembled from an initial condition plus future boundary
  conditions; ``forecast_episode`` is the batch-1 special case of the
  engine and ``forecast_batch`` exposes the vectorised path.
* :class:`DualModelForecaster` — the paper's long-horizon scheme: a
  coarse-interval model forecasts the full horizon, then each coarse
  snapshot seeds the fine-interval model.  All T_c fine episodes run
  in ONE batched forward after the coarse pass (two model forwards
  total for the whole 12-day rollout).
"""

from __future__ import annotations

from typing import List, Sequence

from ..data.preprocess import Normalizer
from ..swin.model import CoastalSurrogate
from .engine import FieldWindow, ForecastEngine, ForecastResult


class SurrogateForecaster:
    """Run a trained surrogate on (IC, boundary-condition) episodes."""

    def __init__(self, model: CoastalSurrogate, normalizer: Normalizer):
        self.engine = ForecastEngine(model, normalizer)
        self.model = model
        self.normalizer = normalizer
        self.pad_hw = self.engine.pad_hw

    @property
    def time_steps(self) -> int:
        """Episode length T — part of the batch-executor protocol."""
        return self.engine.time_steps

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Forecast N episodes in one vectorised model forward."""
        return self.engine.forecast_batch(references)

    def forecast_episode(self, reference: FieldWindow) -> ForecastResult:
        """Forecast one episode (batch-1 special case of the engine).

        Parameters
        ----------
        reference: window of T snapshots; slot 0 is consumed as the
            initial condition, slots 1..T−1 contribute only their
            lateral boundary rims (the surrogate never sees the interior
            of future snapshots).
        """
        return self.engine.forecast_batch([reference])[0]


class DualModelForecaster:
    """Coarse 12-day model + fine 12-hour model (paper §III-A).

    The coarse model forecasts the full horizon at the coarse interval;
    each coarse snapshot then serves as the initial condition of a fine
    episode.  Boundary conditions at the fine interval come from the
    reference data (as in the paper, future lateral boundary conditions
    are exogenous inputs supplied by a larger-domain model).
    """

    def __init__(self, coarse: SurrogateForecaster, fine: SurrogateForecaster,
                 coarse_ratio: int = 24):
        self.coarse = coarse
        self.fine = fine
        self.coarse_ratio = int(coarse_ratio)

    def forecast(self, reference_fine: FieldWindow) -> ForecastResult:
        """Full-horizon forecast at the fine interval.

        One coarse forward, then one batched fine forward covering all
        T_c fine episodes at once.

        Parameters
        ----------
        reference_fine: (T_c · ratio) fine-interval snapshots providing
            the initial condition (slot 0) and boundary rims throughout.

        Returns
        -------
        ForecastResult whose fields hold T_c · ratio fine snapshots.
        """
        Tc = self.coarse.model.config.time_steps
        Tf = self.fine.model.config.time_steps
        ratio = self.coarse_ratio
        if Tf != ratio:
            raise ValueError(
                f"fine model time_steps {Tf} must equal coarse_ratio {ratio}")
        need = Tc * ratio
        if reference_fine.T < need:
            raise ValueError(
                f"need {need} fine snapshots, got {reference_fine.T}")

        # coarse window: every ratio-th fine snapshot
        sub = slice(0, need, ratio)
        coarse_ref = FieldWindow(
            reference_fine.u3[sub], reference_fine.v3[sub],
            reference_fine.w3[sub], reference_fine.zeta[sub])
        coarse_out = self.coarse.forecast_episode(coarse_ref)

        # every coarse snapshot seeds one fine episode; run them all in
        # a single batched forward
        fine_refs: List[FieldWindow] = []
        for k in range(Tc):
            sl = slice(k * ratio, (k + 1) * ratio)
            fine_ref = FieldWindow(
                reference_fine.u3[sl].copy(), reference_fine.v3[sl].copy(),
                reference_fine.w3[sl].copy(), reference_fine.zeta[sl].copy())
            fine_ref.u3[0] = coarse_out.fields.u3[k]
            fine_ref.v3[0] = coarse_out.fields.v3[k]
            fine_ref.w3[0] = coarse_out.fields.w3[k]
            fine_ref.zeta[0] = coarse_out.fields.zeta[k]
            fine_refs.append(fine_ref)
        fine_outs = self.fine.forecast_batch(fine_refs)

        total_seconds = coarse_out.inference_seconds \
            + sum(o.inference_seconds for o in fine_outs)
        return ForecastResult(
            FieldWindow.concat([o.fields for o in fine_outs]),
            total_seconds, episodes=1 + Tc)
