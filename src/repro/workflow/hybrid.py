"""Hybrid AI + ROMS workflow with physics verification (paper Fig. 1).

For every forecast episode the workflow:

1. runs the AI surrogate,
2. verifies the water-mass residual of its output,
3. on failure, reverts to the ROMS-like solver for that episode and
   continues from the solver's state.

:meth:`HybridWorkflow.run_many` serves many scenarios at once: at each
episode index the surrogate passes of all still-active scenarios run
in ONE batched model forward and the verification gate is evaluated in
one vectorised residual pass; the scenarios that fail it are stacked
along the solver's ensemble axis and re-run in ONE
:meth:`~repro.ocean.model.RomsLikeModel.forecast` integration, each
member bit-identical to falling back alone.  :meth:`HybridWorkflow.run`
is the single-scenario special case.

The report accounts both *measured* wall-clock on this machine and
*modelled* paper-scale timing (through
:class:`~repro.hpc.roms_perf.RomsPerfModel`), which regenerates
Fig. 8's time/speedup-vs-threshold curves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ocean.model import RomsLikeModel, Snapshot
from ..ocean.swe import ShallowWaterState
from ..physics.verifier import VerificationResult, Verifier
from .forecast import FieldWindow, SurrogateForecaster

__all__ = ["EpisodeReport", "WorkflowReport", "HybridWorkflow"]


@dataclass
class EpisodeReport:
    """Outcome of one episode of the hybrid loop."""

    index: int
    verification: VerificationResult
    used_fallback: bool
    surrogate_seconds: float
    #: this episode's even share of the wall-clock of the stacked solver
    #: integration it fell back in (like
    #: ``ForecastResult.inference_seconds`` for a batched forward), so
    #: summing over scenarios gives the time actually spent
    fallback_seconds: float


@dataclass
class WorkflowReport:
    """End-to-end accounting for a hybrid run."""

    episodes: List[EpisodeReport] = field(default_factory=list)

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    @property
    def n_fallbacks(self) -> int:
        return sum(e.used_fallback for e in self.episodes)

    @property
    def pass_rate(self) -> float:
        if not self.episodes:
            return float("nan")
        return 1.0 - self.n_fallbacks / self.n_episodes

    @property
    def surrogate_seconds(self) -> float:
        return sum(e.surrogate_seconds for e in self.episodes)

    @property
    def fallback_seconds(self) -> float:
        return sum(e.fallback_seconds for e in self.episodes)

    @property
    def total_seconds(self) -> float:
        return self.surrogate_seconds + self.fallback_seconds


class HybridWorkflow:
    """Episode loop: surrogate → verify → (maybe) solver fallback.

    Parameters
    ----------
    forecaster: any batch executor — an object with
        ``forecast_batch(windows) -> list[ForecastResult]`` and a
        ``time_steps`` property.  Direct callers pass a
        :class:`SurrogateForecaster`; a serving deployment injects a
        :class:`~repro.serve.scheduler.MicroBatchScheduler` so hybrid
        surrogate passes coalesce with unrelated traffic.  Both routes
        run the same code.
    ocean: the ROMS-like model used both for fallback simulation and
        for the verification geometry.
    verifier: mass-conservation check; its threshold is the workflow's
        quality gate.
    """

    def __init__(self, forecaster: SurrogateForecaster,
                 ocean: RomsLikeModel, verifier: Verifier):
        self.forecaster = forecaster
        self.ocean = ocean
        self.verifier = verifier

    # ------------------------------------------------------------------
    def run(self, reference: FieldWindow,
            fallback_states: Sequence[ShallowWaterState],
            threshold: Optional[float] = None
            ) -> tuple[FieldWindow, WorkflowReport]:
        """Run the hybrid loop over consecutive episodes of one scenario.

        Parameters
        ----------
        reference: (n_episodes · T) snapshots providing ICs and boundary
            conditions (see :meth:`SurrogateForecaster.forecast_episode`).
        fallback_states: solver prognostic states aligned with each
            episode start, used when an episode must be re-simulated.
        threshold: override the verifier's threshold (Fig. 8 sweeps).

        Returns
        -------
        (forecast fields over the full horizon, workflow report).
        """
        return self.run_many([reference], [fallback_states], threshold)[0]

    # ------------------------------------------------------------------
    def run_many(self, references: Sequence[FieldWindow],
                 fallback_states: Sequence[Sequence[ShallowWaterState]],
                 threshold: Optional[float] = None
                 ) -> List[Tuple[FieldWindow, WorkflowReport]]:
        """Run the hybrid loop over many scenarios concurrently.

        Episodes within a scenario stay sequential (each initial
        condition chains from the previous episode's output), but at a
        given episode index the scenarios are independent — so their
        surrogate passes share one batched forward, one vectorised
        batch verification and, for those that fail the gate, one
        stacked solver integration.

        Parameters
        ----------
        references: one reference window per scenario (lengths may
            differ; all scenarios must share the forecaster's mesh).
        fallback_states: per scenario, solver states aligned with each
            episode start.
        threshold: override the verifier's threshold for all scenarios.

        Returns
        -------
        One (forecast fields, workflow report) pair per scenario, in
        input order.
        """
        if len(references) != len(fallback_states):
            raise ValueError(
                f"{len(references)} references but "
                f"{len(fallback_states)} fallback-state sequences")
        T = self.forecaster.time_steps
        n_eps: List[int] = []
        for reference, states in zip(references, fallback_states):
            n = reference.T // T
            if n == 0:
                raise ValueError(
                    f"reference window of {reference.T} < T={T}")
            if len(states) < n:
                raise ValueError("need one fallback state per episode")
            n_eps.append(n)

        n_scen = len(references)
        reports = [WorkflowReport() for _ in range(n_scen)]
        pieces: List[List[FieldWindow]] = [[] for _ in range(n_scen)]
        prev_fields: List[Optional[FieldWindow]] = [None] * n_scen

        for ep in range(max(n_eps)):
            active = [i for i in range(n_scen) if ep < n_eps[i]]
            refs: List[FieldWindow] = []
            for i in active:
                sl = slice(ep * T, (ep + 1) * T)
                reference = references[i]
                ref = FieldWindow(
                    reference.u3[sl].copy(), reference.v3[sl].copy(),
                    reference.w3[sl].copy(), reference.zeta[sl].copy())
                if prev_fields[i] is not None:
                    # chain episodes: IC is the previous episode's output
                    ref.u3[0] = prev_fields[i].u3[-1]
                    ref.v3[0] = prev_fields[i].v3[-1]
                    ref.w3[0] = prev_fields[i].w3[-1]
                    ref.zeta[0] = prev_fields[i].zeta[-1]
                refs.append(ref)

            results = self.forecaster.forecast_batch(refs)
            vers = self.verifier.verify_batch(
                [r.fields.zeta for r in results],
                [r.fields.u3 for r in results],
                [r.fields.v3 for r in results], threshold)

            # gate first, then re-run every scenario that failed at this
            # episode index in one stacked solver integration
            failed = [k for k, ver in enumerate(vers) if not ver.passed]
            solver_fields, fallback_seconds = {}, 0.0
            if failed:
                t0 = time.perf_counter()
                snaps = self.ocean.forecast(ShallowWaterState.stack(
                    [fallback_states[active[k]][ep] for k in failed]), T - 1)
                fallback_seconds = (time.perf_counter() - t0) / len(failed)
                solver_fields = {
                    k: self._snaps_to_window(refs[k], snaps, member)
                    for member, k in enumerate(failed)}

            for k, (i, result, ver) in enumerate(zip(active, results, vers)):
                fell_back = k in solver_fields
                fields = solver_fields[k] if fell_back else result.fields
                pieces[i].append(fields)
                prev_fields[i] = fields
                reports[i].episodes.append(EpisodeReport(
                    index=ep, verification=ver, used_fallback=fell_back,
                    surrogate_seconds=result.inference_seconds,
                    fallback_seconds=fallback_seconds if fell_back else 0.0,
                ))

        return [(FieldWindow.concat(p), r) for p, r in zip(pieces, reports)]

    # ------------------------------------------------------------------
    @staticmethod
    def _snaps_to_window(ref: FieldWindow, snaps: Sequence[Snapshot],
                         member: int) -> FieldWindow:
        """IC snapshot followed by one member's T−1 solver snapshots."""
        return FieldWindow(*(
            np.concatenate(
                [getattr(ref, name)[:1],
                 np.stack([getattr(s, name)[member] for s in snaps])])
            for name in ("u3", "v3", "w3", "zeta")))
