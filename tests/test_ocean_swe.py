"""Shallow-water solver: conservation, stability, boundary behaviour."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ocean import (SWEConfig, ShallowWaterSolver, ShallowWaterState,
                         TidalForcing, make_charlotte_grid,
                         synth_estuary_bathymetry, wet_mask)
from repro.ocean.diagnostics import cfl_number, energy, volume_budget


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


def assert_same_bits(got, want):
    """Every float of two states has the same bit pattern: unlike
    ``assert_array_equal``, this tells ``-0.0`` from ``+0.0``."""
    for name in ("t", "zeta", "u", "v"):
        a = np.asarray(getattr(got, name), dtype=np.float64)
        b = np.asarray(getattr(want, name), dtype=np.float64)
        assert a.shape == b.shape, name
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64),
                                      err_msg=name)


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

    def test_run_advances_time(self, forced_solver):
        s = forced_solver.initial_state()
        out = forced_solver.run(s, 600.0)
        n = max(1, int(round(600.0 / forced_solver.dt)))
        np.testing.assert_allclose(out.t, s.t + n * forced_solver.dt)


class TestCoriolis:
    def test_f_positive_northern_hemisphere(self):
        assert SWEConfig().coriolis_f > 0

    def test_f_scales_with_latitude(self):
        """f = 2Ω·sin(latitude), at the solver's one latitude."""
        cfg = SWEConfig()
        assert cfg.coriolis_f == 2.0 * 7.2921e-5 * np.sin(
            np.deg2rad(cfg.latitude_deg))


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
            assert_same_bits(got, want)

    def test_stack_unstack_round_trip(self, forced_solver):
        members = self._members(forced_solver, 3)
        stacked = ShallowWaterState.stack(members)
        assert stacked.stacked and not members[0].stacked
        assert stacked.zeta.shape == (3,) + members[0].zeta.shape
        back = stacked.unstack()
        for got, want in zip(back, members):
            assert isinstance(got.t, float)
            assert_same_bits(got, want)
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


# ----------------------------------------------------------------------
# slow reference: the step on (…, ny, nx[+1]) fields, expression by
# expression through the grid operators — the oracle of the solver's
# padded, flat fast path
# ----------------------------------------------------------------------
def _ref_v_at_u(v, nx):
    vc = 0.5 * (v[..., :-1, :] + v[..., 1:, :])         # v at centres
    out = np.empty(vc.shape[:-1] + (nx + 1,))
    out[..., 1:-1] = 0.5 * (vc[..., :-1] + vc[..., 1:])
    out[..., 0] = vc[..., 0]
    out[..., -1] = vc[..., -1]
    return out


def _ref_u_at_v(u, ny, nx):
    uc = 0.5 * (u[..., :-1] + u[..., 1:])               # u at centres
    out = np.empty(uc.shape[:-2] + (ny + 1, nx))
    out[..., 1:-1, :] = 0.5 * (uc[..., :-1, :] + uc[..., 1:, :])
    out[..., 0, :] = uc[..., 0, :]
    out[..., -1, :] = uc[..., -1, :]
    return out


def _ref_laplacian(a, dx2, dy2, closed):
    out = np.zeros_like(a)
    out[..., 1:-1] += (a[..., 2:] - 2 * a[..., 1:-1] + a[..., :-2]) / dx2
    out[..., 1:-1, :] += (a[..., 2:, :] - 2 * a[..., 1:-1, :]
                          + a[..., :-2, :]) / dy2
    np.copyto(out, 0.0, where=closed)
    return out


def _ref_face_depths(solver, zeta):
    H = solver.total_depth(zeta)
    return solver.grid.center_to_u(H), solver.grid.center_to_v(H)


def reference_step(solver, state):
    """One forward-backward step, as the solver computed it before its
    fields moved onto the padded layout."""
    g, dt, grid, cfg = 9.81, solver.dt, solver.grid, solver.cfg
    f = cfg.coriolis_f
    ny, nx = grid.ny, grid.nx
    u_closed, v_closed = ~solver.u_open, ~solver.v_open
    t_new = state.t + dt

    Hu, Hv = _ref_face_depths(solver, state.zeta)
    fx, fy = Hu * state.u, Hv * state.v
    np.copyto(fx, 0.0, where=u_closed)
    np.copyto(fy, 0.0, where=v_closed)
    zeta_new = state.zeta - dt * grid.flux_divergence(fx, fy)
    if solver.river_cell_discharge > 0.0:
        zeta_new[..., solver.river_mask] += (
            dt * solver.river_cell_discharge / grid.area[solver.river_mask])
    np.copyto(zeta_new, 0.0, where=~solver.wet)
    if solver.forcing is not None:
        tide = solver.forcing.elevation(
            np.asarray(t_new)[..., None], grid.y_axis.centers)[..., None]
        zeta_new = zeta_new + solver.sponge * (tide - zeta_new)

    Hu, Hv = _ref_face_depths(solver, zeta_new)
    dzdx = grid.ddx_at_u(zeta_new)
    dzdy = grid.ddy_at_v(zeta_new)
    v_at_u = _ref_v_at_u(state.v, nx)
    u_at_v = _ref_u_at_v(state.u, ny, nx)
    speed_u = np.sqrt(state.u ** 2 + v_at_u ** 2)
    speed_v = np.sqrt(state.v ** 2 + u_at_v ** 2)
    dyc_u = np.broadcast_to(grid.y_axis.spacing[:, None], (ny, nx + 1))
    dxc_v = np.broadcast_to(grid.x_axis.spacing[None, :], (ny + 1, nx))
    lap_u = _ref_laplacian(state.u, grid.dxu[:, 1:-1] ** 2,
                           dyc_u[1:-1, :] ** 2, u_closed)
    lap_v = _ref_laplacian(state.v, dxc_v[:, 1:-1] ** 2,
                           grid.dyv[1:-1, :] ** 2, v_closed)
    du = (-g * dzdx + f * v_at_u
          - cfg.drag_coefficient * speed_u * state.u / Hu
          + cfg.viscosity * lap_u)
    dv = (-g * dzdy - f * u_at_v
          - cfg.drag_coefficient * speed_v * state.v / Hv
          + cfg.viscosity * lap_v)
    u_new = state.u + dt * du
    v_new = state.v + dt * dv
    np.copyto(u_new, 0.0, where=u_closed)
    np.copyto(v_new, 0.0, where=v_closed)
    u_new[..., 0] = np.where(solver.west_outflow,
                             u_new[..., 1], u_new[..., 0])
    return ShallowWaterState(t_new, zeta_new, u_new, v_new)


class TestFastPathOracle:
    """``run`` and ``step`` hold every bit of :func:`reference_step` on
    the hybrid workflow's mesh: forced with a river, closed, and forced
    without a river; one state and stacks of 3 and 8, over two chained
    30-minute snapshots."""

    SETUPS = {
        "forced_river": (TidalForcing(), SWEConfig()),
        "closed": (None, SWEConfig(river_discharge=0.0, sponge_strength=0.0)),
        "river_off": (TidalForcing(), SWEConfig(river_discharge=0.0)),
    }
    SNAPSHOT = 1800.0

    @pytest.fixture(scope="class", params=sorted(SETUPS))
    def solver(self, request):
        g = make_charlotte_grid(14, 15, 14_000.0, 15_000.0)
        forcing, config = self.SETUPS[request.param]
        return ShallowWaterSolver(g, synth_estuary_bathymetry(g),
                                  forcing, config)

    @staticmethod
    def _initial(solver, B):
        """A state with flow in it: B members (unstacked for B = 0),
        each at its own time, spun up by the reference step."""
        rng = np.random.default_rng([B, 3])
        members = []
        for k in range(max(B, 1)):
            s = solver.initial_state(t0=900.0 + 3917.0 * k)
            s.zeta[solver.wet] += 0.05 * rng.normal(
                size=int(solver.wet.sum()))
            for _ in range(30):
                s = reference_step(solver, s)
            members.append(s)
        return ShallowWaterState.stack(members) if B else members[0]

    @pytest.mark.parametrize("B", [0, 3, 8])
    def test_run_equals_reference_bitwise(self, solver, B):
        state = want = self._initial(solver, B)
        n = int(round(self.SNAPSHOT / solver.dt))
        for _ in range(2):
            state = solver.run(state, self.SNAPSHOT)
            for _ in range(n):
                want = reference_step(solver, want)
            assert_same_bits(state, want)

    @pytest.mark.parametrize("B", [0, 3])
    def test_step_equals_reference_bitwise(self, solver, B):
        state = want = self._initial(solver, B)
        for _ in range(25):
            state = solver.step(state)
            want = reference_step(solver, want)
        assert_same_bits(state, want)

    def test_step_returns_fresh_arrays(self, solver):
        state = self._initial(solver, 3)
        out = solver.step(state)
        for name in ("t", "zeta", "u", "v"):
            got = getattr(out, name)
            assert not np.shares_memory(got, getattr(state, name)), name
            assert got.flags.c_contiguous and got.flags.writeable, name
        twice = solver.step(state)
        assert not np.shares_memory(out.zeta, twice.zeta)

    def test_threads_integrate_on_one_solver(self, solver):
        """Every buffer belongs to one call: concurrent runs on one
        solver give the bits of the same runs one after another."""
        states = [self._initial(solver, B) for B in (0, 3, 8, 3)]
        want = [solver.run(s, self.SNAPSHOT) for s in states]
        got = [None] * len(states)

        def work(i):
            got[i] = solver.run(states[i], self.SNAPSHOT)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(states))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for a, b in zip(got, want):
            assert_same_bits(a, b)

    def test_padding_raises_no_floating_point_error(self, solver):
        """Padding cells never divide by zero or make inf / NaN."""
        state = self._initial(solver, 8)
        with np.errstate(all="raise"):
            out = solver.run(state, self.SNAPSHOT)
        assert all(np.isfinite(a).all() for a in (out.zeta, out.u, out.v))
