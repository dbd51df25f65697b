"""Tides, sigma layers, and the RomsLikeModel driver."""

import numpy as np
import pytest

from repro.ocean import (
    GULF_CONSTITUENTS,
    RomsLikeModel,
    SigmaLayers,
    TidalConstituent,
    TidalForcing,
    VerticalStructure,
    make_charlotte_grid,
)

HOUR = 3600.0


class TestTides:
    def test_constituent_periodicity(self):
        m2 = GULF_CONSTITUENTS[0]
        t = np.array([0.0, m2.period_s, 2 * m2.period_s])
        e = m2.elevation(t)
        np.testing.assert_allclose(e, e[0], rtol=1e-9)

    def test_constituent_amplitude_bound(self):
        c = TidalConstituent("X", 12 * HOUR, 0.5)
        t = np.linspace(0, 48 * HOUR, 10_000)
        assert np.abs(c.elevation(t)).max() <= 0.5 + 1e-12

    def test_forcing_sums_constituents(self):
        f = TidalForcing()
        t = 7.3 * HOUR
        total = sum(c.elevation(np.array(t)) for c in f.constituents)
        np.testing.assert_allclose(f.elevation(t), total)

    def test_alongshore_delay_shifts_phase(self):
        f = TidalForcing(alongshore_delay_s_per_m=0.05)
        e0 = f.elevation(6 * HOUR, 0.0)
        e1 = f.elevation(6 * HOUR, 50_000.0)
        assert abs(float(e0) - float(e1)) > 1e-4

    def test_series_shape(self):
        f = TidalForcing()
        times = np.arange(0, 86400, 1800.0)
        assert f.elevation(times).shape == times.shape

    def test_mixed_tide_character(self):
        """Gulf-coast tide: diurnal and semidiurnal energy both present."""
        f = TidalForcing()
        t = np.arange(0, 30 * 86400, 600.0)
        e = f.elevation(t)
        spec = np.abs(np.fft.rfft(e))
        freqs = np.fft.rfftfreq(len(t), 600.0) * 86400  # cycles/day
        semi = spec[(freqs > 1.8) & (freqs < 2.1)].max()
        diur = spec[(freqs > 0.9) & (freqs < 1.1)].max()
        assert semi > 0 and diur > 0
        assert 0.2 < diur / semi < 5.0


class TestSigmaLayers:
    def test_interfaces_span_unit(self):
        layers = SigmaLayers(6)
        assert layers.interfaces[0] == -1.0
        assert layers.interfaces[-1] == 0.0
        assert len(layers.interfaces) == 7

    def test_thickness_fractions_sum_to_one(self):
        layers = SigmaLayers(9)
        np.testing.assert_allclose(layers.thickness_fractions.sum(), 1.0)

    def test_layer_heights_scale_with_depth(self):
        layers = SigmaLayers(4)
        H = np.array([[10.0, 20.0]])
        z = layers.layer_heights_above_bed(H)
        np.testing.assert_allclose(z[:, 0, 1], 2 * z[:, 0, 0])


class TestVerticalStructure:
    @pytest.fixture()
    def vs(self):
        g = make_charlotte_grid(8, 10, 8000.0, 10_000.0)
        return VerticalStructure(g, SigmaLayers(6))

    def test_profile_preserves_depth_average(self, vs):
        H = np.full((10, 8), 7.5)
        p = vs.profile(H)
        frac = vs.layers.thickness_fractions[:, None, None]
        np.testing.assert_allclose((p * frac).sum(axis=0), 1.0, rtol=1e-9)

    def test_profile_monotone_in_z(self, vs):
        """Log layer: velocity increases from bed to surface."""
        H = np.full((10, 8), 5.0)
        p = vs.profile(H)
        assert np.all(np.diff(p, axis=0) > 0)

    def test_horizontal_recovers_depth_average(self, vs, rng):
        H = np.full((10, 8), 6.0)
        ub = rng.normal(size=(10, 8))
        vb = rng.normal(size=(10, 8))
        u3, v3 = vs.horizontal(ub, vb, H)
        frac = vs.layers.thickness_fractions[:, None, None]
        np.testing.assert_allclose((u3 * frac).sum(axis=0), ub, rtol=1e-9)
        np.testing.assert_allclose((v3 * frac).sum(axis=0), vb, rtol=1e-9)

    def test_vertical_zero_for_divergence_free_flow(self, vs):
        """Uniform horizontal flow ⇒ no divergence ⇒ w = 0."""
        H = np.full((10, 8), 6.0)
        u3 = np.ones((6, 10, 8))
        v3 = np.zeros((6, 10, 8))
        w = vs.vertical(u3, v3, H)
        np.testing.assert_allclose(w, 0.0, atol=1e-15)

    def test_vertical_magnitude_small(self, vs, rng):
        """w should be several orders below u (paper Table III scale)."""
        H = np.full((10, 8), 6.0)
        ub = 0.3 * rng.normal(size=(10, 8))
        vb = 0.3 * rng.normal(size=(10, 8))
        u3, v3 = vs.horizontal(ub, vb, H)
        w = vs.vertical(u3, v3, H)
        assert np.abs(w).max() < 0.1 * np.abs(u3).max()


class TestRomsLikeModel:
    def test_snapshot_shapes(self, tiny_ocean):
        cfg = tiny_ocean.config
        st = tiny_ocean.solver.initial_state()
        snaps, _ = tiny_ocean.simulate(st, 2)
        s = snaps[0]
        assert s.u3.shape == (cfg.ny, cfg.nx, cfg.nz)
        assert s.zeta.shape == (cfg.ny, cfg.nx)

    def test_snapshot_times_spaced_by_interval(self, tiny_ocean):
        st = tiny_ocean.solver.initial_state()
        snaps, _ = tiny_ocean.simulate(st, 3)
        dts = np.diff([s.t for s in snaps])
        target = tiny_ocean.config.snapshot_interval
        assert np.all(np.abs(dts - target) < tiny_ocean.solver.dt)

    def test_simulate_continues_from_returned_state(self, tiny_ocean):
        st = tiny_ocean.solver.initial_state()
        first, mid = tiny_ocean.simulate(st, 2)
        second, _ = tiny_ocean.simulate(mid, 1)
        assert second[0].t > first[-1].t

    def test_forecast_does_not_mutate_initial(self, tiny_ocean):
        st = tiny_ocean.spinup(duration=3600.0)
        z = st.zeta.copy()
        tiny_ocean.forecast(st, 2)
        np.testing.assert_array_equal(st.zeta, z)

    def test_land_cells_zero_in_snapshots(self, tiny_ocean):
        st = tiny_ocean.spinup(duration=3600.0)
        snaps, _ = tiny_ocean.simulate(st, 1)
        dry = ~tiny_ocean.solver.wet
        assert np.all(snaps[0].zeta[dry] == 0.0)
        assert np.all(snaps[0].u3[dry, :] == 0.0)

    def test_stack_fields_layout(self, tiny_ocean):
        st = tiny_ocean.solver.initial_state()
        snaps, _ = tiny_ocean.simulate(st, 3)
        x3, x2 = tiny_ocean.stack_fields(snaps)
        cfg = tiny_ocean.config
        assert x3.shape == (3, cfg.ny, cfg.nx, cfg.nz, 3)
        assert x2.shape == (1, cfg.ny, cfg.nx, 3)

    def test_w_field_smaller_than_horizontal(self, tiny_ocean):
        st = tiny_ocean.spinup(duration=2 * 3600.0)
        snaps, _ = tiny_ocean.simulate(st, 1)
        s = snaps[0]
        assert np.abs(s.w3).max() < 0.05 * max(np.abs(s.u3).max(), 1e-9)
