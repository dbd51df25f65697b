"""Tidal harmonic analysis: recovery of known constituents."""

import numpy as np
import pytest

from repro.ocean import GULF_CONSTITUENTS, TidalConstituent, TidalForcing
from repro.ocean.harmonics import compare_constituents, fit_constituents

HOUR = 3600.0
DAY = 86400.0


@pytest.fixture()
def month_times():
    """30 days at 30-minute sampling — resolves the Gulf constituents."""
    return np.arange(0.0, 30 * DAY, 1800.0)


class TestFitConstituents:
    def test_recovers_single_constituent(self, month_times):
        c = TidalConstituent("M2", 12.4206 * HOUR, 0.31, 0.7)
        series = c.elevation(month_times)
        fit = fit_constituents(month_times, series, [c])
        assert fit.amplitudes["M2"] == pytest.approx(0.31, abs=1e-6)
        assert fit.phases["M2"] == pytest.approx(0.7, abs=1e-6)
        assert fit.residual_rms < 1e-10

    def test_recovers_full_gulf_set(self, month_times):
        forcing = TidalForcing(alongshore_delay_s_per_m=0.0)
        series = forcing.elevation(month_times)
        fit = fit_constituents(month_times, series)
        for c in GULF_CONSTITUENTS:
            assert fit.amplitudes[c.name] == pytest.approx(
                c.amplitude_m, abs=5e-3), c.name

    def test_mean_level_recovered(self, month_times):
        c = GULF_CONSTITUENTS[0]
        series = 1.25 + c.elevation(month_times)
        fit = fit_constituents(month_times, series, [c])
        assert fit.mean_level == pytest.approx(1.25, abs=1e-8)

    def test_noise_goes_to_residual(self, month_times, rng):
        c = GULF_CONSTITUENTS[0]
        noise = 0.05 * rng.normal(size=month_times.shape)
        fit = fit_constituents(month_times, c.elevation(month_times) + noise,
                               [c])
        assert fit.amplitudes["M2"] == pytest.approx(c.amplitude_m, abs=5e-3)
        assert 0.04 < fit.residual_rms < 0.06

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError, match="samples"):
            fit_constituents(np.arange(5.0), np.zeros(5))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal shapes"):
            fit_constituents(np.arange(100.0), np.zeros(50))


class TestCompareConstituents:
    def test_phase_error_wrapped(self, month_times):
        a = TidalConstituent("M2", 12.4206 * HOUR, 0.3, 0.1)
        b = TidalConstituent("M2", 12.4206 * HOUR, 0.3, 0.1 + 2 * np.pi - 0.2)
        fa = fit_constituents(month_times, a.elevation(month_times), [a])
        fb = fit_constituents(month_times, b.elevation(month_times), [a])
        (_, ref_amp, cand_amp, dphi), = compare_constituents(fa, fb)
        assert abs(dphi) == pytest.approx(0.2, abs=1e-6)
        assert ref_amp == pytest.approx(cand_amp, abs=1e-6)

    def test_solver_preserves_forced_constituents(self):
        """The estuary interior must contain the forced frequencies:
        harmonic analysis of a solver series recovers dominant M2/K1
        energy (amplitudes damped by friction, but non-trivial)."""
        from repro.ocean import OceanConfig, RomsLikeModel
        ocean = RomsLikeModel(OceanConfig(nx=14, ny=15, nz=6,
                                          length_x=14_000.0,
                                          length_y=15_000.0))
        st = ocean.spinup(duration=0.5 * DAY)
        snaps, _ = ocean.simulate(st, 6 * 48)   # six days, 30-min output
        times = np.array([s.t for s in snaps])
        wet = ocean.solver.wet
        j, i = np.argwhere(wet)[len(np.argwhere(wet)) // 2]
        series = np.array([s.zeta[j, i] for s in snaps])
        fit = fit_constituents(times, series)
        total_amp = sum(fit.amplitudes.values())
        assert total_amp > 0.05       # tide clearly present
        assert fit.residual_rms < 0.5
