"""Batched forecast engine: batched-vs-serial equivalence and forward counts.

The batched inference stack must be a pure optimisation: every consumer
(ensemble, dual-model, hybrid) must produce the same numbers as the
per-episode path while issuing exactly one model forward per stage.
"""

import numpy as np
import pytest
from conftest import count_forwards

from repro.data import DataLoader, SlidingWindowDataset
from repro.data.dataset import assemble_episode_input, assemble_episode_input_batch
from repro.ocean import OceanConfig, RomsLikeModel
from repro.physics import Verifier
from repro.swin import CoastalSurrogate
from repro.tensor import Tensor, no_grad
from repro.train import Trainer, TrainerConfig
from repro.workflow import (
    DualModelForecaster,
    EnsembleForecaster,
    FieldWindow,
    HybridWorkflow,
    SurrogateForecaster,
)

T = 4


@pytest.fixture(scope="module")
def ocean():
    return RomsLikeModel(OceanConfig(nx=14, ny=15, nz=6,
                                     length_x=14_000.0, length_y=15_000.0))


@pytest.fixture(scope="module")
def reference(ocean):
    """16 true snapshots (4 episodes of T=4) plus episode-start states."""
    st = ocean.spinup(duration=0.25 * 86400.0)
    snaps, states, _ = ocean.simulate_with_states(st, 16, every=T)
    x3, x2 = ocean.stack_fields(snaps)
    window = FieldWindow(
        u3=np.moveaxis(x3[0], -1, 0), v3=np.moveaxis(x3[1], -1, 0),
        w3=np.moveaxis(x3[2], -1, 0), zeta=np.moveaxis(x2[0], -1, 0))
    return window, states


@pytest.fixture(scope="module")
def forecaster(tiny_surrogate_config, tiny_bundle):
    model = CoastalSurrogate(tiny_surrogate_config)
    store = tiny_bundle.open_train()
    norm = tiny_bundle.open_normalizer()
    ds = SlidingWindowDataset(store, norm, window=T, stride=T)
    Trainer(model, TrainerConfig(lr=2e-3)).fit(
        DataLoader(ds, batch_size=1, shuffle=True, seed=0), epochs=2)
    return SurrogateForecaster(model, norm)


def episode_windows(window, n):
    return [FieldWindow(window.u3[k * T:(k + 1) * T].copy(),
                        window.v3[k * T:(k + 1) * T].copy(),
                        window.w3[k * T:(k + 1) * T].copy(),
                        window.zeta[k * T:(k + 1) * T].copy())
            for k in range(n)]


def assert_windows_close(a, b, **kw):
    np.testing.assert_allclose(a.u3, b.u3, **kw)
    np.testing.assert_allclose(a.v3, b.v3, **kw)
    np.testing.assert_allclose(a.w3, b.w3, **kw)
    np.testing.assert_allclose(a.zeta, b.zeta, **kw)


class TestAssembleBatch:
    def test_matches_single(self, rng):
        u = rng.normal(size=(1, T, 8, 9, 3))
        z = rng.normal(size=(1, T, 8, 9))
        x3b, x2b = assemble_episode_input_batch(u, u, u, z)
        x3s, x2s = assemble_episode_input(u[0], u[0], u[0], z[0])
        np.testing.assert_array_equal(x3b[0], x3s)
        np.testing.assert_array_equal(x2b[0], x2s)

    def test_batch_items_independent(self, rng):
        u = rng.normal(size=(3, T, 8, 9, 3))
        z = rng.normal(size=(3, T, 8, 9))
        x3b, x2b = assemble_episode_input_batch(u, u, u, z)
        x3s, x2s = assemble_episode_input(u[1], u[1], u[1], z[1])
        np.testing.assert_array_equal(x3b[1], x3s)
        np.testing.assert_array_equal(x2b[1], x2s)


class TestForecastBatch:
    def test_matches_serial(self, forecaster, reference):
        window, _ = reference
        episodes = episode_windows(window, 3)
        batched = forecaster.forecast_batch(episodes)
        for ep, out in zip(episodes, batched):
            serial = forecaster.forecast_episode(ep)
            assert_windows_close(out.fields, serial.fields,
                                 rtol=1e-5, atol=1e-6)

    def test_one_forward_per_batch(self, forecaster, reference):
        window, _ = reference
        episodes = episode_windows(window, 4)
        with count_forwards(forecaster.model) as calls:
            forecaster.forecast_batch(episodes)
        assert calls["n"] == 1

    def test_empty_batch(self, forecaster):
        assert forecaster.forecast_batch([]) == []

    def test_mixed_mesh_raises(self, forecaster, reference):
        window, _ = reference
        a = episode_windows(window, 1)[0]
        b = FieldWindow(a.u3[:, :-1], a.v3[:, :-1], a.w3[:, :-1],
                        a.zeta[:, :-1])
        with pytest.raises(ValueError, match="share one mesh"):
            forecaster.forecast_batch([a, b])

    def test_model_forward_batched_vs_batch1(self, tiny_surrogate, rng):
        """The swin stack at N>1 must equal stacked N=1 forwards."""
        cfg = tiny_surrogate.config
        H, W, D = cfg.mesh
        x3 = rng.normal(size=(2, 3, H, W, D, T)).astype(np.float32)
        x2 = rng.normal(size=(2, 1, H, W, T)).astype(np.float32)
        tiny_surrogate.eval()
        with no_grad():
            y3b, y2b = tiny_surrogate(Tensor(x3), Tensor(x2))
            for n in range(2):
                y3, y2 = tiny_surrogate(Tensor(x3[n:n + 1]),
                                        Tensor(x2[n:n + 1]))
                np.testing.assert_allclose(y3b.data[n], y3.data[0],
                                           rtol=1e-5, atol=1e-6)
                np.testing.assert_allclose(y2b.data[n], y2.data[0],
                                           rtol=1e-5, atol=1e-6)


class TestEnsembleBatched:
    def test_single_forward_and_serial_equivalence(self, forecaster,
                                                   reference, ocean):
        window, _ = reference
        ref = episode_windows(window, 1)[0]
        wet = ocean.solver.wet
        ens = EnsembleForecaster(forecaster, n_members=4, seed=7)

        with count_forwards(forecaster.model) as calls:
            out = ens.forecast(ref, wet=wet)
        assert calls["n"] == 1

        # serial reference: each perturbed member through the batch-1 path
        serial = [forecaster.forecast_episode(ens._perturbed(ref, m, wet))
                  for m in range(ens.n_members)]
        for member, s in zip(out.members, serial):
            assert_windows_close(member, s.fields, rtol=1e-5, atol=1e-6)

        stack = np.stack([s.fields.zeta for s in serial])
        np.testing.assert_allclose(out.mean.zeta, stack.mean(axis=0),
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(out.spread.zeta, stack.std(axis=0),
                                   rtol=1e-4, atol=1e-6)

        level = float(np.quantile(ref.zeta, 0.9))
        np.testing.assert_allclose(
            out.exceedance_probability(level),
            (stack > level).mean(axis=0), atol=1e-12)


class TestDualModelBatched:
    def test_two_forwards_and_serial_equivalence(self, forecaster,
                                                 reference):
        window, _ = reference
        dual = DualModelForecaster(forecaster, forecaster, coarse_ratio=T)

        with count_forwards(forecaster.model) as calls:
            out = dual.forecast(window)
        # one batched coarse forward + one batched fine forward
        assert calls["n"] == 2
        assert out.fields.T == 16
        assert out.episodes == 5

        # serial reference: the pre-batching rollout, episode by episode
        Tc = forecaster.model.config.time_steps
        sub = slice(0, Tc * T, T)
        coarse_ref = FieldWindow(window.u3[sub], window.v3[sub],
                                 window.w3[sub], window.zeta[sub])
        coarse_out = forecaster.forecast_episode(coarse_ref)
        pieces = []
        for k in range(Tc):
            sl = slice(k * T, (k + 1) * T)
            fine_ref = FieldWindow(window.u3[sl].copy(), window.v3[sl].copy(),
                                   window.w3[sl].copy(),
                                   window.zeta[sl].copy())
            fine_ref.u3[0] = coarse_out.fields.u3[k]
            fine_ref.v3[0] = coarse_out.fields.v3[k]
            fine_ref.w3[0] = coarse_out.fields.w3[k]
            fine_ref.zeta[0] = coarse_out.fields.zeta[k]
            pieces.append(forecaster.forecast_episode(fine_ref).fields)
        serial = FieldWindow.concat(pieces)
        assert_windows_close(out.fields, serial, rtol=1e-5, atol=1e-6)


class TestVerifierBatch:
    def test_matches_single(self, forecaster, reference, ocean):
        window, _ = reference
        verifier = Verifier(ocean.grid, ocean.depth, dt=1800.0)
        episodes = episode_windows(window, 4)
        outs = forecaster.forecast_batch(episodes)
        batch = verifier.verify_batch(
            [o.fields.zeta for o in outs], [o.fields.u3 for o in outs],
            [o.fields.v3 for o in outs])
        for o, vb in zip(outs, batch):
            vs = verifier.verify(o.fields.zeta, o.fields.u3, o.fields.v3)
            assert vb.passed == vs.passed
            assert vb.mean_residual == pytest.approx(vs.mean_residual)
            assert vb.max_residual == pytest.approx(vs.max_residual)
            np.testing.assert_allclose(vb.per_step_mean, vs.per_step_mean)


class TestHybridRunMany:
    @pytest.fixture()
    def workflow(self, forecaster, ocean):
        verifier = Verifier(ocean.grid, ocean.depth, dt=1800.0)
        return HybridWorkflow(forecaster, ocean, verifier)

    def test_matches_run(self, workflow, reference):
        window, states = reference
        half = FieldWindow(window.u3[:8], window.v3[:8],
                           window.w3[:8], window.zeta[:8])
        many = workflow.run_many([window, half], [states, states[:2]])
        single = [workflow.run(window, states),
                  workflow.run(half, states[:2])]
        for (mf, mr), (sf, sr) in zip(many, single):
            assert mr.n_episodes == sr.n_episodes
            assert mr.pass_rate == sr.pass_rate
            assert_windows_close(mf, sf, rtol=1e-5, atol=1e-6)

    def test_batches_across_scenarios(self, workflow, reference):
        window, states = reference
        scenarios = [window, window, window]
        with count_forwards(workflow.forecaster.model) as calls:
            outs = workflow.run_many(scenarios, [states] * 3, threshold=1e6)
        # 4 episode indices, each one batched forward for all 3 scenarios
        assert calls["n"] == 4
        assert all(r.pass_rate == 1.0 for _, r in outs)

    def test_fallback_per_scenario(self, workflow, reference, ocean):
        window, states = reference
        outs = workflow.run_many([window], [states], threshold=1e-12)
        fields, report = outs[0]
        assert report.n_fallbacks == report.n_episodes
        direct = ocean.forecast(states[0], T - 1)
        np.testing.assert_allclose(fields.zeta[1], direct[0].zeta,
                                   atol=1e-10)

    def test_mismatched_lengths_raise(self, workflow, reference):
        window, states = reference
        with pytest.raises(ValueError, match="fallback-state"):
            workflow.run_many([window, window], [states])
