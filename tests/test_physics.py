"""Physics verification: residuals small on solver truth, large on junk."""

import numpy as np
import pytest

from repro.ocean import RomsLikeModel
from repro.physics.verifier import (OCEANOGRAPHY_ACCEPTED_THRESHOLD,
                                    depth_average, residual_series_batch,
                                    water_mass_residual)
from repro.physics import PAPER_THRESHOLDS, VerificationResult, Verifier


def _residuals(ocean, zeta, u3, v3, dt):
    """One episode's residual fields, through the batch path."""
    return residual_series_batch(ocean.grid, ocean.depth, zeta[None],
                                 u3[None], v3[None], dt)[0]


@pytest.fixture(scope="module")
def solver_window(tiny_ocean):
    """A short window of genuine solver output."""
    st = tiny_ocean.spinup(duration=6 * 3600.0)
    snaps, _ = tiny_ocean.simulate(st, 6)
    zeta = np.stack([s.zeta for s in snaps])
    u3 = np.stack([s.u3 for s in snaps])
    v3 = np.stack([s.v3 for s in snaps])
    return zeta, u3, v3


@pytest.fixture(scope="module")
def tiny_ocean():
    from repro.ocean import OceanConfig
    return RomsLikeModel(OceanConfig(nx=14, ny=15, nz=6,
                                     length_x=14_000.0, length_y=15_000.0))


class TestDepthAverage:
    def test_uniform_layers(self, rng):
        f = rng.normal(size=(4, 5, 6))
        np.testing.assert_allclose(depth_average(f), f.mean(axis=-1))


class TestResidual:
    def test_zero_for_steady_no_flow(self, tiny_ocean):
        g = tiny_ocean.grid
        h = tiny_ocean.depth
        z = np.zeros((g.ny, g.nx))
        u = np.zeros_like(z)
        r = water_mass_residual(g, h, z, z, u, u, 1800.0)
        np.testing.assert_allclose(r, 0.0)

    def test_nonnegative(self, tiny_ocean, solver_window):
        zeta, u3, v3 = solver_window
        r = _residuals(tiny_ocean, zeta, u3, v3, 1800.0)
        assert np.all(r >= 0)

    def test_land_cells_zero(self, tiny_ocean, solver_window):
        zeta, u3, v3 = solver_window
        r = _residuals(tiny_ocean, zeta, u3, v3, 1800.0)
        dry = ~tiny_ocean.solver.wet
        assert np.all(r[:, dry] == 0.0)

    def test_solver_output_beats_loose_threshold(self, tiny_ocean,
                                                 solver_window):
        """Genuine solver output is nearly mass-conserving — its mean
        residual sits well below the oceanography-accepted 5e-4 m/s."""
        zeta, u3, v3 = solver_window
        r = _residuals(tiny_ocean, zeta, u3, v3, 1800.0)
        wet = tiny_ocean.solver.wet
        assert r[:, wet].mean() < OCEANOGRAPHY_ACCEPTED_THRESHOLD

    def test_corrupted_forecast_fails(self, tiny_ocean, solver_window):
        """Breaking continuity (random ζ jumps) must inflate the residual."""
        zeta, u3, v3 = solver_window
        rng = np.random.default_rng(0)
        bad_zeta = zeta + 2.0 * rng.normal(size=zeta.shape)
        wet = tiny_ocean.solver.wet
        good = _residuals(tiny_ocean, zeta, u3, v3, 1800.0)[:, wet].mean()
        bad = _residuals(tiny_ocean, bad_zeta, u3, v3, 1800.0)[:, wet].mean()
        assert bad > 10 * good
        assert bad > OCEANOGRAPHY_ACCEPTED_THRESHOLD

    def test_requires_two_snapshots(self, tiny_ocean):
        with pytest.raises(ValueError):
            _residuals(tiny_ocean, np.zeros((1, 15, 14)),
                       np.zeros((1, 15, 14, 6)),
                       np.zeros((1, 15, 14, 6)), 1800.0)


class TestVerifier:
    def test_solver_output_passes(self, tiny_ocean, solver_window):
        zeta, u3, v3 = solver_window
        v = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        res = v.verify(zeta, u3, v3)
        assert res.threshold == OCEANOGRAPHY_ACCEPTED_THRESHOLD
        assert res.passed
        assert res.mean_residual < res.threshold

    def test_threshold_override(self, tiny_ocean, solver_window):
        zeta, u3, v3 = solver_window
        v = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        strict, = v.verify_batch([zeta], [u3], [v3], threshold=1e-12)
        assert not strict.passed

    def test_per_step_means_length(self, tiny_ocean, solver_window):
        zeta, u3, v3 = solver_window
        v = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        res = v.verify(zeta, u3, v3)
        assert len(res.per_step_mean) == zeta.shape[0] - 1

    def test_pass_rate_monotone_in_threshold(self, tiny_ocean):
        """Fig. 7's defining property: pass rate is non-decreasing."""
        v = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        rng = np.random.default_rng(1)
        residuals = np.abs(rng.normal(4e-4, 1e-4, size=200))
        rates = [v.pass_rate(list(residuals), thr) for thr in PAPER_THRESHOLDS]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_pass_rate_accepts_results(self, tiny_ocean, solver_window):
        zeta, u3, v3 = solver_window
        v = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        res = v.verify(zeta, u3, v3)
        assert v.pass_rate([res]) in (0.0, 1.0)

    def test_pass_rate_empty_raises(self, tiny_ocean):
        v = Verifier(tiny_ocean.grid, tiny_ocean.depth)
        with pytest.raises(ValueError):
            v.pass_rate([])

    def test_repr_tags_outcome(self):
        r = VerificationResult(1e-5, 2e-5, 1e-4, True, np.zeros(3))
        assert "PASS" in repr(r)
        r = VerificationResult(1e-3, 2e-3, 1e-4, False, np.zeros(3))
        assert "FAIL" in repr(r)

    def test_paper_thresholds_ordered(self):
        assert list(PAPER_THRESHOLDS) == sorted(PAPER_THRESHOLDS)
        assert OCEANOGRAPHY_ACCEPTED_THRESHOLD in PAPER_THRESHOLDS
