"""Shallow-water solver: conservation, stability, boundary behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ocean import (
    SWEConfig,
    ShallowWaterSolver,
    ShallowWaterState,
    TidalForcing,
    cfl_number,
    energy,
    make_charlotte_grid,
    synth_estuary_bathymetry,
    volume_budget,
    wet_mask,
)


@pytest.fixture(scope="module")
def closed_solver():
    """No forcing, no river, no sponge: a strictly closed basin."""
    g = make_charlotte_grid(20, 24, 20_000.0, 24_000.0)
    h = synth_estuary_bathymetry(g)
    cfg = SWEConfig(river_discharge=0.0, sponge_strength=0.0)
    return ShallowWaterSolver(g, h, forcing=None, config=cfg)


@pytest.fixture(scope="module")
def forced_solver():
    g = make_charlotte_grid(20, 24, 20_000.0, 24_000.0)
    h = synth_estuary_bathymetry(g)
    return ShallowWaterSolver(g, h, TidalForcing(), SWEConfig())


def _perturbed_state(solver, rng, amp=0.05):
    st = solver.initial_state()
    st.zeta[solver.wet] = amp * rng.normal(size=int(solver.wet.sum()))
    return st


class TestSetup:
    def test_depth_shape_validated(self):
        g = make_charlotte_grid(10, 10, 1e4, 1e4)
        with pytest.raises(ValueError, match="depth shape"):
            ShallowWaterSolver(g, np.ones((5, 5)))

    def test_wet_mask_excludes_land(self, closed_solver):
        assert closed_solver.wet.sum() < closed_solver.wet.size
        assert closed_solver.wet.sum() > 0

    def test_dt_respects_cfl(self, closed_solver):
        st = closed_solver.initial_state()
        assert cfl_number(closed_solver, st) <= 1.0

    def test_closed_faces_have_no_flow(self, closed_solver, rng):
        st = _perturbed_state(closed_solver, rng)
        st = closed_solver.step(st)
        assert np.all(st.u[~closed_solver.u_open] == 0.0)
        assert np.all(st.v[~closed_solver.v_open] == 0.0)

    def test_land_cells_stay_zero(self, forced_solver):
        st = forced_solver.initial_state()
        for _ in range(20):
            st = forced_solver.step(st)
        assert np.all(st.zeta[~forced_solver.wet] == 0.0)


class TestConservation:
    def test_one_step_volume_budget_closes(self, closed_solver, rng):
        s0 = _perturbed_state(closed_solver, rng)
        s1 = closed_solver.step(s0)
        vb = volume_budget(closed_solver, s0, s1)
        assert vb.relative_residual < 1e-9

    def test_closed_basin_volume_constant_long_run(self, closed_solver, rng):
        s = _perturbed_state(closed_solver, rng)
        v0 = closed_solver.total_volume(s)
        for _ in range(200):
            s = closed_solver.step(s)
        v1 = closed_solver.total_volume(s)
        assert abs(v1 - v0) / v0 < 1e-12

    def test_river_adds_exact_volume(self, rng):
        g = make_charlotte_grid(20, 24, 20_000.0, 24_000.0)
        h = synth_estuary_bathymetry(g)
        cfg = SWEConfig(river_discharge=500.0, sponge_strength=0.0)
        solver = ShallowWaterSolver(g, h, forcing=None, config=cfg)
        s = solver.initial_state()
        v0 = solver.total_volume(s)
        n = 50
        for _ in range(n):
            s = solver.step(s)
        v1 = solver.total_volume(s)
        np.testing.assert_allclose(v1 - v0, 500.0 * n * solver.dt, rtol=1e-9)

    @given(st.floats(0.01, 0.10), st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_volume_conservation_property(self, amp, steps):
        """Conservation holds for any perturbation amplitude/duration."""
        g = make_charlotte_grid(12, 14, 12_000.0, 14_000.0)
        h = synth_estuary_bathymetry(g)
        cfg = SWEConfig(river_discharge=0.0, sponge_strength=0.0)
        solver = ShallowWaterSolver(g, h, forcing=None, config=cfg)
        rng = np.random.default_rng(42)
        s = solver.initial_state()
        s.zeta[solver.wet] = amp * rng.normal(size=int(solver.wet.sum()))
        v0 = solver.total_volume(s)
        for _ in range(steps):
            s = solver.step(s)
        assert abs(solver.total_volume(s) - v0) / v0 < 1e-11


class TestDynamics:
    def test_gravity_wave_spreads_disturbance(self, closed_solver):
        """A local bump must radiate outward at finite speed."""
        s = closed_solver.initial_state()
        wet = closed_solver.wet
        jj, ii = np.argwhere(wet)[len(np.argwhere(wet)) // 2]
        s.zeta[jj, ii] = 0.3
        far_mask = wet.copy()
        far_mask[max(jj - 3, 0):jj + 4, max(ii - 3, 0):ii + 4] = False
        s1 = closed_solver.step(s)
        # immediately after one short step the far field is untouched
        assert np.abs(s1.zeta[far_mask]).max() < 1e-12
        for _ in range(300):
            s1 = closed_solver.step(s1)
        assert np.abs(s1.zeta[far_mask]).max() > 1e-6

    def test_friction_damps_energy_in_closed_basin(self, closed_solver, rng):
        s = _perturbed_state(closed_solver, rng, amp=0.1)
        for _ in range(50):
            s = closed_solver.step(s)
        e_mid = energy(closed_solver, s)["total"]
        for _ in range(2000):
            s = closed_solver.step(s)
        e_end = energy(closed_solver, s)["total"]
        assert e_end < e_mid

    def test_tide_enters_through_boundary(self, forced_solver):
        s = forced_solver.initial_state()
        for _ in range(500):
            s = forced_solver.step(s)
        # interior surface must respond to the forcing (nonzero signal)
        interior = s.zeta[:, forced_solver.cfg.sponge_cells + 2:]
        wet_int = forced_solver.wet[:, forced_solver.cfg.sponge_cells + 2:]
        assert np.abs(interior[wet_int]).max() > 0.01

    def test_velocities_remain_physical(self, forced_solver):
        """Long tidal run stays bounded (no numerical blow-up)."""
        s = forced_solver.initial_state()
        for _ in range(3000):
            s = forced_solver.step(s)
        assert np.abs(s.u).max() < 3.0       # m/s — estuarine currents
        assert np.abs(s.zeta).max() < 2.0    # m — tidal range bound
        assert np.isfinite(s.zeta).all()

    def test_advection_option_stable(self, rng):
        g = make_charlotte_grid(14, 16, 14_000.0, 16_000.0)
        h = synth_estuary_bathymetry(g)
        solver = ShallowWaterSolver(g, h, TidalForcing(),
                                    SWEConfig(advection=True))
        s = solver.initial_state()
        for _ in range(500):
            s = solver.step(s)
        assert np.isfinite(s.zeta).all()
        assert np.abs(s.u).max() < 5.0

    def test_run_advances_time(self, forced_solver):
        s = forced_solver.initial_state()
        out = forced_solver.run(s, 600.0)
        n = max(1, int(round(600.0 / forced_solver.dt)))
        np.testing.assert_allclose(out.t, s.t + n * forced_solver.dt)


class TestCoriolis:
    def test_f_positive_northern_hemisphere(self):
        assert SWEConfig().coriolis_f > 0

    def test_f_scales_with_latitude(self):
        low = SWEConfig(latitude_deg=10.0).coriolis_f
        high = SWEConfig(latitude_deg=60.0).coriolis_f
        assert high > low


class TestBathymetry:
    def test_wet_mask_helper(self):
        h = np.array([[1.0, -1.0], [0.0, 2.0]])
        np.testing.assert_array_equal(
            wet_mask(h), [[True, False], [False, True]])

    def test_estuary_has_inlets(self):
        g = make_charlotte_grid(40, 60, 40_000.0, 60_000.0)
        h = synth_estuary_bathymetry(g)
        # a barrier column must contain both land and deep inlet water
        from repro.ocean.bathymetry import BathymetryConfig
        bx = int(BathymetryConfig().barrier_x_frac * g.nx)
        col = h[:, bx]
        assert (col < 0).any(), "barrier island missing"
        assert (col > 5.0).any(), "inlet channel missing"

    def test_bathymetry_deterministic(self):
        g = make_charlotte_grid(20, 20, 2e4, 2e4)
        np.testing.assert_array_equal(synth_estuary_bathymetry(g),
                                      synth_estuary_bathymetry(g))


class TestEnsembleAxis:
    """One ``step`` serves unstacked and stacked states; a stacked
    integration is bit-identical, member by member, to the serial one."""

    # name → (forcing, config)
    SETUPS = {
        "forced_river": (TidalForcing(), SWEConfig()),
        "closed": (None, SWEConfig(river_discharge=0.0, sponge_strength=0.0)),
        "advection": (TidalForcing(), SWEConfig(advection=True)),
    }

    @staticmethod
    def _members(solver, n, seed=7):
        """n distinct states, each at its own time (so its own tide)."""
        rng = np.random.default_rng(seed)
        members = []
        for k in range(n):
            s = solver.initial_state(t0=1000.0 + 4321.0 * k)
            s.zeta[solver.wet] += 0.05 * rng.normal(size=int(solver.wet.sum()))
            members.append(solver.run(s, 40 * solver.dt))
        return members

    @staticmethod
    def _assert_same_state(got, want):
        assert got.t == want.t
        np.testing.assert_array_equal(got.zeta, want.zeta)
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.v, want.v)

    @pytest.fixture(scope="class", params=sorted(SETUPS))
    def solver(self, request):
        g = make_charlotte_grid(14, 15, 14_000.0, 15_000.0)
        forcing, config = self.SETUPS[request.param]
        return ShallowWaterSolver(g, synth_estuary_bathymetry(g),
                                  forcing, config)

    @pytest.mark.parametrize("B", [1, 2, 8])
    def test_stacked_equals_serial_bitwise(self, solver, B):
        members = self._members(solver, B)
        stacked = ShallowWaterState.stack(members)
        for _ in range(200):
            stacked = solver.step(stacked)
            members = [solver.step(m) for m in members]
        assert stacked.t.shape == (B,)
        for got, want in zip(stacked.unstack(), members):
            self._assert_same_state(got, want)

    def test_stack_unstack_round_trip(self, forced_solver):
        members = self._members(forced_solver, 3)
        stacked = ShallowWaterState.stack(members)
        assert stacked.stacked and not members[0].stacked
        assert stacked.zeta.shape == (3,) + members[0].zeta.shape
        back = stacked.unstack()
        for got, want in zip(back, members):
            assert isinstance(got.t, float)
            self._assert_same_state(got, want)
        # members are copies, and so is a stacked copy()
        back[0].zeta += 1.0
        twin = stacked.copy()
        twin.t += 1.0
        np.testing.assert_array_equal(stacked.zeta[0], members[0].zeta)
        assert stacked.t[0] == members[0].t

    def test_stack_rejects_empty_and_nested(self, forced_solver):
        members = self._members(forced_solver, 2)
        with pytest.raises(ValueError, match="unstacked"):
            ShallowWaterState.stack([])
        with pytest.raises(ValueError, match="unstacked"):
            ShallowWaterState.stack([ShallowWaterState.stack(members)])
        with pytest.raises(ValueError, match="no ensemble axis"):
            members[0].unstack()

    def test_per_member_volume_conserved_in_closed_basin(self, closed_solver,
                                                         rng):
        members = [_perturbed_state(closed_solver, rng, amp=a)
                   for a in (0.02, 0.05, 0.08)]
        stacked = ShallowWaterState.stack(members)
        v0 = closed_solver.total_volume(stacked)
        assert v0.shape == (3,)
        # one value per member, each the unstacked number exactly
        assert v0.tolist() == [closed_solver.total_volume(m)
                               for m in members]
        for _ in range(200):
            stacked = closed_solver.step(stacked)
        v1 = closed_solver.total_volume(stacked)
        assert np.all(np.abs(v1 - v0) / v0 < 1e-12)

    def test_fluxes_and_depth_carry_the_axis(self, forced_solver):
        members = self._members(forced_solver, 3)
        stacked = ShallowWaterState.stack(members)
        fx, fy = forced_solver.volume_fluxes(stacked)
        H = forced_solver.total_depth(stacked.zeta)
        for k, m in enumerate(members):
            fx_k, fy_k = forced_solver.volume_fluxes(m)
            np.testing.assert_array_equal(fx[k], fx_k)
            np.testing.assert_array_equal(fy[k], fy_k)
            np.testing.assert_array_equal(
                H[k], forced_solver.total_depth(m.zeta))
