"""Forecasting workflow: episode forecasts, dual-model rollout, hybrid loop."""

import inspect
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from repro.data import DataLoader, SlidingWindowDataset
from repro.ocean import OceanConfig, RomsLikeModel
from repro.physics import Verifier
from repro.swin import CoastalSurrogate
from repro.train import Trainer, TrainerConfig
from repro.workflow import (
    DualModelForecaster,
    FieldWindow,
    HybridWorkflow,
    SurrogateForecaster,
)


@pytest.fixture(scope="module")
def ocean():
    return RomsLikeModel(OceanConfig(nx=14, ny=15, nz=6,
                                     length_x=14_000.0, length_y=15_000.0))


@pytest.fixture(scope="module")
def reference(ocean):
    """16 true snapshots (4 episodes of T=4) plus episode-start states."""
    st = ocean.spinup(duration=0.25 * 86400.0)
    snaps, states, _ = ocean.simulate_with_states(st, 16, every=4)
    x3, x2 = ocean.stack_fields(snaps)
    window = FieldWindow(
        u3=np.moveaxis(x3[0], -1, 0), v3=np.moveaxis(x3[1], -1, 0),
        w3=np.moveaxis(x3[2], -1, 0), zeta=np.moveaxis(x2[0], -1, 0))
    return window, states


@pytest.fixture(scope="module")
def trained_forecaster(tiny_surrogate_config, tiny_bundle):
    """A briefly-trained surrogate wrapped for forecasting."""
    model = CoastalSurrogate(tiny_surrogate_config)
    store = tiny_bundle.open_train()
    norm = tiny_bundle.open_normalizer()
    ds = SlidingWindowDataset(store, norm, window=4, stride=4)
    trainer = Trainer(model, TrainerConfig(lr=2e-3))
    trainer.fit(DataLoader(ds, batch_size=1, shuffle=True, seed=0), epochs=2)
    return SurrogateForecaster(model, norm)


class TestFieldWindow:
    def test_concat(self, reference):
        window, _ = reference
        a, b = (FieldWindow(window.u3[t:t + 1], window.v3[t:t + 1],
                            window.w3[t:t + 1], window.zeta[t:t + 1])
                for t in (0, 1))
        c = FieldWindow.concat([a, b])
        assert c.T == 2
        np.testing.assert_array_equal(c.zeta, window.zeta[:2])


class TestSurrogateForecaster:
    def test_forecast_shapes(self, trained_forecaster, reference):
        window, _ = reference
        ep = FieldWindow(window.u3[:4], window.v3[:4],
                         window.w3[:4], window.zeta[:4])
        out = trained_forecaster.forecast_episode(ep)
        assert out.fields.zeta.shape == ep.zeta.shape
        assert out.fields.u3.shape == ep.u3.shape
        assert out.inference_seconds > 0

    def test_initial_condition_preserved(self, trained_forecaster, reference):
        window, _ = reference
        ep = FieldWindow(window.u3[:4], window.v3[:4],
                         window.w3[:4], window.zeta[:4])
        out = trained_forecaster.forecast_episode(ep)
        np.testing.assert_array_equal(out.fields.zeta[0], ep.zeta[0])
        np.testing.assert_array_equal(out.fields.u3[0], ep.u3[0])

    def test_output_in_physical_units(self, trained_forecaster, reference):
        """Denormalised forecasts must be in physically plausible ranges."""
        window, _ = reference
        ep = FieldWindow(window.u3[:4], window.v3[:4],
                         window.w3[:4], window.zeta[:4])
        out = trained_forecaster.forecast_episode(ep)
        assert np.abs(out.fields.zeta).max() < 5.0       # metres
        assert np.abs(out.fields.u3).max() < 5.0         # m/s

    def test_wrong_window_length_raises(self, trained_forecaster, reference):
        window, _ = reference
        bad = FieldWindow(window.u3[:3], window.v3[:3],
                          window.w3[:3], window.zeta[:3])
        with pytest.raises(ValueError, match="time_steps"):
            trained_forecaster.forecast_episode(bad)

    def test_never_reads_future_interior(self, trained_forecaster,
                                         reference):
        """Corrupting the future *interior* must not change the forecast
        (the surrogate sees only rims for t ≥ 1)."""
        window, _ = reference
        ep = FieldWindow(window.u3[:4].copy(), window.v3[:4].copy(),
                         window.w3[:4].copy(), window.zeta[:4].copy())
        base = trained_forecaster.forecast_episode(ep).fields.zeta.copy()
        ep.zeta[2, 5:-5, 5:-5] += 99.0        # interior of a future slot
        ep.u3[2, 5:-5, 5:-5, :] += 99.0
        out = trained_forecaster.forecast_episode(ep).fields.zeta
        np.testing.assert_allclose(out[1], base[1], atol=1e-5)


class TestDualModel:
    def test_rollout_produces_full_horizon(self, trained_forecaster,
                                           reference):
        window, _ = reference
        dual = DualModelForecaster(trained_forecaster, trained_forecaster,
                                   coarse_ratio=4)
        out = dual.forecast(window)
        assert out.fields.T == 16      # T_coarse × ratio = 4 × 4
        assert out.episodes == 5       # 1 coarse + 4 fine

    def test_rollout_needs_enough_reference(self, trained_forecaster,
                                            reference):
        window, _ = reference
        short = FieldWindow(window.u3[:8], window.v3[:8],
                            window.w3[:8], window.zeta[:8])
        dual = DualModelForecaster(trained_forecaster, trained_forecaster,
                                   coarse_ratio=4)
        with pytest.raises(ValueError, match="fine snapshots"):
            dual.forecast(short)

    def test_ratio_must_match_fine_T(self, trained_forecaster):
        with pytest.raises(ValueError, match="coarse_ratio"):
            DualModelForecaster(trained_forecaster, trained_forecaster,
                                coarse_ratio=6).forecast(
                FieldWindow(*(np.zeros((24, 2, 2, 2)),) * 3,
                            zeta=np.zeros((24, 2, 2))))


class TestHybridWorkflow:
    @pytest.fixture()
    def workflow(self, trained_forecaster, ocean):
        verifier = Verifier(ocean.grid, ocean.depth, dt=1800.0)
        return HybridWorkflow(trained_forecaster, ocean, verifier)

    def test_run_produces_full_window(self, workflow, reference):
        window, states = reference
        fields, report = workflow.run(window, states)
        assert fields.T == window.T
        assert report.n_episodes == 4
        assert 0.0 <= report.pass_rate <= 1.0

    def test_strict_threshold_forces_fallback(self, workflow, reference):
        window, states = reference
        fields, report = workflow.run(window, states, threshold=1e-12)
        assert report.n_fallbacks == report.n_episodes
        assert report.fallback_seconds > 0
        # fallback output is solver output: mass-conserving by construction
        assert np.isfinite(fields.zeta).all()

    def test_loose_threshold_avoids_fallback(self, workflow, reference):
        window, states = reference
        fields, report = workflow.run(window, states, threshold=1e6)
        assert report.n_fallbacks == 0
        assert report.pass_rate == 1.0
        assert report.fallback_seconds == 0.0

    def test_fallback_fields_match_solver(self, workflow, reference, ocean):
        """With every episode failing, output after the IC snapshot must be
        genuine solver forecasts from the recorded states."""
        window, states = reference
        fields, report = workflow.run(window, states, threshold=1e-12)
        direct = ocean.forecast(states[0], 3)
        np.testing.assert_allclose(fields.zeta[1], direct[0].zeta,
                                   atol=1e-10)

    def test_report_time_accounting(self, workflow, reference):
        window, states = reference
        _, report = workflow.run(window, states)
        total = report.surrogate_seconds + report.fallback_seconds
        assert report.total_seconds == pytest.approx(total)

    def test_needs_state_per_episode(self, workflow, reference):
        window, states = reference
        with pytest.raises(ValueError, match="fallback state"):
            workflow.run(window, states[:1])


class ScriptedVerifier(Verifier):
    """Verifier whose pass/fail outcomes follow a per-call script.

    Residual numbers stay real; only the gate decision is overridden,
    so mixed pass/fail scenarios are reproducible regardless of how
    well the tiny surrogate happens to be trained.
    """

    def __init__(self, base: Verifier, script):
        super().__init__(base.grid, base.depth, base.dt)
        self._script = deque(script)

    def verify_batch(self, zeta_seqs, u3_seqs, v3_seqs, threshold=None):
        real = super().verify_batch(zeta_seqs, u3_seqs, v3_seqs, threshold)
        flags = self._script.popleft()
        assert len(flags) == len(real)
        return [replace(r, passed=bool(f)) for r, f in zip(real, flags)]


class TestHybridRunManyMixed:
    """Regression: mixed pass/fail across concurrent scenarios must put
    every fallback at the right (scenario, episode) slot and keep the
    report bookkeeping consistent."""

    # episode → gate decision per active scenario (2 scenarios, 4 episodes)
    SCRIPT = [(True, False), (False, True), (True, True), (False, False)]

    @pytest.fixture()
    def mixed_outs(self, trained_forecaster, ocean, reference):
        window, states = reference
        verifier = ScriptedVerifier(
            Verifier(ocean.grid, ocean.depth, dt=1800.0), self.SCRIPT)
        workflow = HybridWorkflow(trained_forecaster, ocean, verifier)
        return workflow.run_many([window, window], [states, states])

    def test_pass_rate_and_flags(self, mixed_outs):
        (_, rep0), (_, rep1) = mixed_outs
        assert [e.used_fallback for e in rep0.episodes] == \
            [False, True, False, True]
        assert [e.used_fallback for e in rep1.episodes] == \
            [True, False, False, True]
        assert rep0.n_fallbacks == rep1.n_fallbacks == 2
        assert rep0.pass_rate == rep1.pass_rate == 0.5
        assert [e.index for e in rep0.episodes] == [0, 1, 2, 3]

    def test_fallback_fields_land_at_correct_indices(self, mixed_outs,
                                                     ocean, reference):
        """A failed (scenario, episode) slot must hold genuine solver
        output from THAT episode's recorded state — and a passed slot
        must not."""
        _, states = reference
        T = 4
        (f0, _), (f1, _) = mixed_outs
        for fields, failed_eps in ((f0, (1, 3)), (f1, (0, 3))):
            for ep in failed_eps:
                direct = ocean.forecast(states[ep], T - 1)
                np.testing.assert_allclose(
                    fields.zeta[ep * T + 1], direct[0].zeta, atol=1e-10)
        # scenario 0 passed episode 0: surrogate output, not the solver
        direct0 = ocean.forecast(states[0], T - 1)
        assert not np.allclose(f0.zeta[1], direct0[0].zeta, atol=1e-10)

    def test_timing_consistency(self, mixed_outs):
        for _, report in mixed_outs:
            for ep in report.episodes:
                assert ep.surrogate_seconds > 0
                if ep.used_fallback:
                    assert ep.fallback_seconds > 0
                else:
                    assert ep.fallback_seconds == 0.0
            assert report.total_seconds == pytest.approx(
                report.surrogate_seconds + report.fallback_seconds)
            assert report.fallback_seconds > 0



class TestHybridStackedFallback:
    """Scenarios that fail the gate at one episode index re-run in ONE
    stacked solver integration, bit-identical to falling back alone."""

    N_SCEN = 3

    @staticmethod
    def _scenarios(ocean, reference):
        """Three scenarios over the same horizon, each with its own
        fallback states (distinct ``t`` and fields per scenario)."""
        window, states = reference
        shifted = [states]
        for shift in (900.0, 2700.0):
            shifted.append([ocean.solver.run(s, shift) for s in states])
        return [window] * 3, shifted

    @staticmethod
    def _workflow(forecaster, ocean, script):
        verifier = ScriptedVerifier(
            Verifier(ocean.grid, ocean.depth, dt=1800.0), script)
        return HybridWorkflow(forecaster, ocean, verifier)

    @staticmethod
    def _record_forecasts(monkeypatch, ocean):
        """Member count of every ``ocean.forecast`` call from here on."""
        sizes = []
        forecast = ocean.forecast

        def recording(initial, *args, **kwargs):
            sizes.append(initial.zeta.shape[0] if initial.stacked else None)
            return forecast(initial, *args, **kwargs)

        monkeypatch.setattr(ocean, "forecast", recording)
        return sizes

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_run_many_equals_per_scenario_run(
            self, trained_forecaster, ocean, reference, monkeypatch, k):
        """k of 3 scenarios fail at episode index 1: fields equal the
        per-scenario ``run`` bit for bit, from one ``ocean.forecast``
        call per episode index that had a failure."""
        windows, states = self._scenarios(ocean, reference)
        fail_at_1 = tuple(i >= k for i in range(self.N_SCEN))
        script = [(True,) * 3, fail_at_1, (True,) * 3, (True,) * 3]

        sizes = self._record_forecasts(monkeypatch, ocean)
        many = self._workflow(trained_forecaster, ocean, script).run_many(
            windows, states)
        assert sizes == ([k] if k else [])

        for i, (fields, report) in enumerate(many):
            alone = self._workflow(
                trained_forecaster, ocean,
                [(flags[i],) for flags in script])
            want, want_report = alone.run(windows[i], states[i])
            for name in ("u3", "v3", "w3", "zeta"):
                np.testing.assert_array_equal(getattr(fields, name),
                                              getattr(want, name))
            assert [e.used_fallback for e in report.episodes] == \
                [e.used_fallback for e in want_report.episodes] == \
                [False, i < k, False, False]

    def test_one_call_per_failed_episode_index(
            self, trained_forecaster, ocean, reference, monkeypatch):
        """Failures at two episode indices (2 scenarios, then 1) cost
        two solver integrations, not three."""
        windows, states = self._scenarios(ocean, reference)
        script = [(False, True, False), (True,) * 3,
                  (True, False, True), (True,) * 3]
        sizes = self._record_forecasts(monkeypatch, ocean)
        outs = self._workflow(trained_forecaster, ocean, script).run_many(
            windows, states)
        assert sizes == [2, 1]
        assert [r.n_fallbacks for _, r in outs] == [1, 1, 1]

    def test_fallback_seconds_split_evenly(self, trained_forecaster, ocean,
                                           reference):
        """Members of one stacked fallback report equal shares of its
        wall clock, so the sum over scenarios is the time spent."""
        windows, states = self._scenarios(ocean, reference)
        script = [(False,) * 3] + [(True,) * 3] * 3
        outs = self._workflow(trained_forecaster, ocean, script).run_many(
            windows, states)
        shares = [r.episodes[0].fallback_seconds for _, r in outs]
        assert shares[0] > 0 and shares == [shares[0]] * 3

    def test_signature_has_no_pool_knob(self):
        assert list(inspect.signature(HybridWorkflow).parameters) == \
            ["forecaster", "ocean", "verifier"]
