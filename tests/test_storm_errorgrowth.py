"""Storm forcing (surge extension)."""

import numpy as np
import pytest

from repro.ocean import (ParametricCyclone, StormForcedSolver, SWEConfig,
                         ShallowWaterSolver, TidalForcing, make_charlotte_grid,
                         synth_estuary_bathymetry)
from repro.ocean.storm import SteadyWind
from repro.ocean.storm import P_AMBIENT, _wind_drag_coefficient


@pytest.fixture(scope="module")
def base_solver():
    g = make_charlotte_grid(16, 18, 16_000.0, 18_000.0)
    return ShallowWaterSolver(g, synth_estuary_bathymetry(g),
                              TidalForcing(), SWEConfig())


class TestWindDrag:
    def test_monotone_in_speed(self):
        speeds = np.array([2.0, 10.0, 25.0])
        cd = _wind_drag_coefficient(speeds)
        assert np.all(np.diff(cd) >= 0)

    def test_capped(self):
        assert _wind_drag_coefficient(np.array([100.0]))[0] == 3.5e-3


class TestSteadyWind:
    def test_uniform_fields(self, base_solver):
        w = SteadyWind(u10=8.0, v10=-3.0)
        wu, wv = w.wind(base_solver.grid, 0.0)
        assert np.all(wu == 8.0) and np.all(wv == -3.0)
        assert np.all(w.pressure(base_solver.grid, 0.0) == P_AMBIENT)

    def test_onshore_wind_raises_coastal_water(self, base_solver):
        """Eastward (onshore) wind must pile water against the eastern
        shore relative to the unforced tide — the basic surge signal."""
        calm = base_solver
        windy = StormForcedSolver(calm, SteadyWind(u10=15.0, v10=0.0))

        s_calm = calm.initial_state()
        s_wind = calm.initial_state()
        for _ in range(400):
            s_calm = calm.step(s_calm)
            s_wind = windy.step(s_wind)

        wet = calm.wet
        # compare mean ζ in the eastern (downwind) third of wet cells
        nx = calm.grid.nx
        east = wet.copy()
        east[:, : 2 * nx // 3] = False
        surge = s_wind.zeta[east].mean() - s_calm.zeta[east].mean()
        assert surge > 0.005, f"no surge signal (Δζ={surge:.4f} m)"

    def test_forced_run_stays_stable(self, base_solver):
        windy = StormForcedSolver(base_solver, SteadyWind(u10=20.0, v10=10.0))
        s = base_solver.initial_state()
        s = windy.run(s, 3600.0)
        assert np.isfinite(s.zeta).all()
        assert np.abs(s.u).max() < 5.0


class TestParametricCyclone:
    def test_pressure_minimum_at_center(self, base_solver):
        storm = ParametricCyclone(x0=8_000.0, y0=9_000.0, vx=0.0, vy=0.0)
        p = storm.pressure(base_solver.grid, 0.0)
        jc, ic = np.unravel_index(np.argmin(p), p.shape)
        cx = base_solver.grid.x_axis.centers[ic]
        cy = base_solver.grid.y_axis.centers[jc]
        assert abs(cx - 8_000.0) < 2_000.0
        assert abs(cy - 9_000.0) < 2_000.0
        assert p.min() < P_AMBIENT - 1000.0

    def test_wind_peaks_near_rmw(self, base_solver):
        storm = ParametricCyclone(x0=8_000.0, y0=9_000.0, vx=0.0, vy=0.0,
                                  max_wind=35.0, radius_max_wind=5_000.0)
        wu, wv = storm.wind(base_solver.grid, 0.0)
        speed = np.hypot(wu, wv)
        assert speed.max() <= 35.0 + 1e-6
        assert speed.max() > 25.0     # profile reaches near-peak on grid

    def test_cyclonic_rotation(self, base_solver):
        """NH cyclone: wind north of the centre blows westward."""
        storm = ParametricCyclone(x0=8_000.0, y0=9_000.0, vx=0.0, vy=0.0,
                                  inflow_angle_rad=0.0)
        g = base_solver.grid
        wu, wv = storm.wind(g, 0.0)
        north_j = int(np.argmin(np.abs(g.y_axis.centers - 14_000.0)))
        center_i = int(np.argmin(np.abs(g.x_axis.centers - 8_000.0)))
        assert wu[north_j, center_i] < 0.0

    def test_track_translates(self, base_solver):
        storm = ParametricCyclone(x0=0.0, y0=9_000.0, vx=10.0, vy=0.0)
        p0 = storm.pressure(base_solver.grid, 0.0)
        p1 = storm.pressure(base_solver.grid, 600.0)
        i0 = np.unravel_index(np.argmin(p0), p0.shape)[1]
        i1 = np.unravel_index(np.argmin(p1), p1.shape)[1]
        assert i1 > i0

    def test_cyclone_surge_exceeds_tide_alone(self, base_solver):
        storm = ParametricCyclone(x0=-10_000.0, y0=9_000.0, vx=8.0,
                                  vy=0.0, max_wind=30.0)
        forced = StormForcedSolver(base_solver, storm)
        s_tide = base_solver.initial_state()
        s_storm = base_solver.initial_state()
        for _ in range(300):
            s_tide = base_solver.step(s_tide)
            s_storm = forced.step(s_storm)
        wet = base_solver.wet
        assert np.abs(s_storm.zeta - s_tide.zeta)[wet].max() > 0.01
