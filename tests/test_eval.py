"""Evaluation: error metrics, series extraction, report formatting."""

import numpy as np
import pytest

from repro.eval.metrics import PAPER_LOCATIONS
from repro.eval import (aggregate_errors, compare_surface_fields,
                        compute_errors, extract_series, format_sci,
                        format_series, format_table, series_skill)
from repro.workflow import FieldWindow


def _window(rng, T=4, H=6, W=5, D=3, scale=1.0):
    return FieldWindow(
        u3=scale * rng.normal(size=(T, H, W, D)),
        v3=scale * rng.normal(size=(T, H, W, D)),
        w3=scale * 1e-4 * rng.normal(size=(T, H, W, D)),
        zeta=scale * rng.normal(size=(T, H, W)),
    )


class TestMetrics:
    def test_zero_error_for_identical(self, rng):
        w = _window(rng)
        e = compute_errors(w, w)
        assert all(v == 0.0 for v in e.mae.values())
        assert all(v == 0.0 for v in e.rmse.values())

    def test_rmse_ge_mae(self, rng):
        a, b = _window(rng), _window(rng)
        e = compute_errors(a, b)
        for var in ("u", "v", "w", "zeta"):
            assert e.rmse[var] >= e.mae[var]

    def test_known_constant_offset(self, rng):
        a = _window(rng)
        b = FieldWindow(a.u3 + 0.5, a.v3.copy(), a.w3.copy(), a.zeta.copy())
        e = compute_errors(b, a)
        assert e.mae["u"] == pytest.approx(0.5)
        assert e.rmse["u"] == pytest.approx(0.5)
        assert e.mae["v"] == 0.0

    def test_skip_initial_excludes_slot0(self, rng):
        a = _window(rng)
        b = FieldWindow(a.u3.copy(), a.v3.copy(), a.w3.copy(),
                        a.zeta.copy())
        b.u3[0] += 100.0    # corrupt only the IC slot
        e = compute_errors(b, a)
        assert e.mae["u"] == 0.0

    def test_wet_mask_restricts(self, rng):
        a, b = _window(rng), _window(rng)
        wet = np.zeros((6, 5), dtype=bool)
        wet[2, 2] = True
        e = compute_errors(a, b, wet=wet)
        diff = np.abs(a.zeta[1:, 2, 2] - b.zeta[1:, 2, 2])
        assert e.mae["zeta"] == pytest.approx(diff.mean())

    def test_aggregate_means(self, rng):
        a, b = _window(rng), _window(rng)
        e1 = compute_errors(a, b)
        agg = aggregate_errors([e1, e1])
        assert agg.mae == e1.mae

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_errors([])

    def test_row_ordering(self, rng):
        e = compute_errors(_window(rng), _window(rng))
        row = e.row("mae")
        assert row == [e.mae["u"], e.mae["v"], e.mae["w"], e.mae["zeta"]]


class TestTimeseries:
    def test_extract_at_paper_locations(self, tiny_ocean, rng):
        T = 5
        H, W = tiny_ocean.grid.ny, tiny_ocean.grid.nx
        ref = FieldWindow(np.zeros((T, H, W, 2)), np.zeros((T, H, W, 2)),
                          np.zeros((T, H, W, 2)),
                          rng.normal(size=(T, H, W)))
        series = extract_series(tiny_ocean.grid, ref, ref,
                                locations=PAPER_LOCATIONS)
        assert len(series) == 3
        for s in series:
            assert s.reference.shape == (T,)
            np.testing.assert_array_equal(s.reference, s.forecast)

    def test_skill_perfect_forecast(self, tiny_ocean, rng):
        T, H, W = 20, tiny_ocean.grid.ny, tiny_ocean.grid.nx
        z = rng.normal(size=(T, H, W))
        ref = FieldWindow(np.zeros((T, H, W, 1)), np.zeros((T, H, W, 1)),
                          np.zeros((T, H, W, 1)), z)
        s = extract_series(tiny_ocean.grid, ref, ref)[0]
        skill = series_skill(s)
        assert skill["rmse"] == 0.0
        assert skill["corr"] == pytest.approx(1.0)
        assert skill["amp_ratio"] == pytest.approx(1.0)

    def test_skill_degrades_with_noise(self, tiny_ocean, rng):
        T, H, W = 50, tiny_ocean.grid.ny, tiny_ocean.grid.nx
        z = np.sin(np.linspace(0, 8 * np.pi, T))[:, None, None] \
            * np.ones((T, H, W))
        noisy = z + 0.8 * rng.normal(size=z.shape)
        ref = FieldWindow(np.zeros((T, H, W, 1)), np.zeros((T, H, W, 1)),
                          np.zeros((T, H, W, 1)), z)
        fore = FieldWindow(np.zeros((T, H, W, 1)), np.zeros((T, H, W, 1)),
                           np.zeros((T, H, W, 1)), noisy)
        s = extract_series(tiny_ocean.grid, ref, fore)[0]
        skill = series_skill(s)
        assert skill["rmse"] > 0.1
        assert skill["corr"] < 0.99

    def test_compare_surface_fields(self, tiny_ocean, rng):
        T, H, W, D = 3, tiny_ocean.grid.ny, tiny_ocean.grid.nx, 4
        a = FieldWindow(rng.normal(size=(T, H, W, D)),
                        rng.normal(size=(T, H, W, D)),
                        rng.normal(size=(T, H, W, D)),
                        rng.normal(size=(T, H, W)))
        wet = tiny_ocean.solver.wet
        cmp = compare_surface_fields(a, a, t=1, wet=wet)
        assert {c.variable for c in cmp} == {"u", "v", "zeta"}
        for c in cmp:
            assert c.diff_mae == 0.0
            assert c.pattern_corr == pytest.approx(1.0)


@pytest.fixture(scope="module")
def tiny_ocean():
    from repro.ocean import OceanConfig, RomsLikeModel
    return RomsLikeModel(OceanConfig(nx=14, ny=15, nz=6,
                                     length_x=14_000.0,
                                     length_y=15_000.0))


class TestReporting:
    def test_format_sci(self):
        assert format_sci(0.018) == "1.80E-02"
        assert format_sci(9.6e-05) == "9.60E-05"

    def test_table_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_series(self):
        out = format_series([1, 2], [10.0, 20.0], "x", "y")
        assert "10.0" in out and "20.0" in out

    def test_table_handles_empty_rows(self):
        out = format_table(["h"], [])
        assert "h" in out
