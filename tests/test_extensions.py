"""Extensions: ensemble UQ forecasting."""

import numpy as np
import pytest

from repro.workflow import EnsembleForecaster, FieldWindow, SurrogateForecaster


class TestEnsembleForecaster:
    @pytest.fixture()
    def forecaster(self, tiny_surrogate, tiny_bundle):
        return SurrogateForecaster(tiny_surrogate,
                                   tiny_bundle.open_normalizer())

    @pytest.fixture()
    def reference(self, tiny_bundle):
        w = tiny_bundle.open_test().read_window(0, 4)
        return FieldWindow(
            w["u3"].astype(np.float64), w["v3"].astype(np.float64),
            w["w3"].astype(np.float64), w["zeta"].astype(np.float64))

    def test_member_count_and_shapes(self, forecaster, reference):
        ens = EnsembleForecaster(forecaster, n_members=3)
        out = ens.forecast(reference)
        assert out.n_members == 3
        assert out.mean.zeta.shape == reference.zeta.shape
        assert out.spread.zeta.shape == reference.zeta.shape

    def test_member0_is_deterministic_forecast(self, forecaster, reference):
        ens = EnsembleForecaster(forecaster, n_members=2)
        out = ens.forecast(reference)
        det = forecaster.forecast_episode(reference).fields
        np.testing.assert_allclose(out.members[0].zeta, det.zeta, atol=1e-6)

    def test_spread_nonzero_after_initial(self, forecaster, reference):
        ens = EnsembleForecaster(forecaster, n_members=4, zeta_sigma=0.05)
        out = ens.forecast(reference)
        # perturbed ICs differ at slot 0, so spread is nonzero there
        assert out.spread.zeta[0].max() > 0

    def test_reproducible(self, forecaster, reference):
        a = EnsembleForecaster(forecaster, n_members=3, seed=7)
        b = EnsembleForecaster(forecaster, n_members=3, seed=7)
        np.testing.assert_array_equal(a.forecast(reference).mean.zeta,
                                      b.forecast(reference).mean.zeta)

    def test_exceedance_probability_bounds(self, forecaster, reference):
        ens = EnsembleForecaster(forecaster, n_members=3)
        out = ens.forecast(reference)
        p = out.exceedance_probability(0.0)
        assert p.shape == reference.zeta.shape
        assert np.all((0.0 <= p) & (p <= 1.0))

    def test_wet_mask_confines_perturbations(self, forecaster, reference,
                                             tiny_ocean):
        wet = tiny_ocean.solver.wet
        ens = EnsembleForecaster(forecaster, n_members=2, zeta_sigma=0.1)
        out = ens.forecast(reference, wet=wet)
        # land cells of the perturbed member's IC are untouched
        np.testing.assert_array_equal(
            out.members[1].zeta[0][~wet], reference.zeta[0][~wet])

    def test_needs_two_members(self, forecaster):
        with pytest.raises(ValueError):
            EnsembleForecaster(forecaster, n_members=1)


@pytest.fixture(scope="module")
def tiny_ocean():
    from repro.ocean import OceanConfig, RomsLikeModel
    return RomsLikeModel(OceanConfig(nx=14, ny=15, nz=6,
                                     length_x=14_000.0,
                                     length_y=15_000.0))
