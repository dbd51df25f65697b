"""Scenario factory + traffic simulator: determinism, statistics,
trace persistence, and exact request accounting.

The contracts under test: one seed pins the whole scenario set bitwise
(basins, windows, arrival trace); the arrival process has the Poisson
statistics it claims (rate, spike shape, tenant mix); a trace survives
a JSONL round-trip exactly; and a replay through the serving stack —
thread or process backend, virtual or wall clock — accounts for every
offered request exactly once: ``offered == served + cached + shed``,
zero lost, zero double-served.
"""

import numpy as np
import pytest

from repro.scenario import (
    BasinLoad,
    BasinSpec,
    DiurnalCycle,
    ScenarioFactory,
    StormSpike,
    TrafficModel,
    TrafficTrace,
    replay_trace,
    simulate_trace,
)
from repro.serve import EngineWorkerPool, ForecastServer
from repro.serve.autoscale import AutoScaler
from repro.workflow.engine import FieldWindow

from conftest import REMOTE_TIERS

VARS = ("u3", "v3", "w3", "zeta")


@pytest.fixture(scope="module")
def factory():
    return ScenarioFactory(seed=42)


# ----------------------------------------------------------------------
# scenario factory: one seed, bitwise basins
# ----------------------------------------------------------------------
class TestFactory:
    def test_same_seed_bitwise_identical_windows(self, factory):
        other = ScenarioFactory(seed=42)
        for name in factory.basin_names:
            for t in (0.0, 1800.0, 7200.0):
                a = factory.basin(name).window(t)
                b = other.basin(name).window(t)
                for var in VARS:
                    np.testing.assert_array_equal(getattr(a, var),
                                                  getattr(b, var))

    def test_different_seed_differs(self, factory):
        other = ScenarioFactory(seed=43)
        a = factory.basin("punta-gorda").window(0.0)
        b = other.basin("punta-gorda").window(0.0)
        assert not np.array_equal(a.zeta, b.zeta)

    def test_windows_staged_onto_wire_mesh(self, factory):
        """Fields live inside the native extent, zero beyond it."""
        T = factory.time_steps
        H, W, D = factory.wire_mesh
        for name in factory.basin_names:
            basin = factory.basin(name)
            ny, nx, nz = basin.native_mesh
            win = basin.window(900.0)
            assert win.zeta.shape == (T, H, W)
            assert win.u3.shape == (T, H, W, D)
            # something is happening inside the basin...
            assert np.abs(win.zeta[:, :ny, :nx]).max() > 0.0
            assert np.abs(win.u3[:, :ny, :nx, :nz]).max() > 0.0
            # ...and nothing beyond its native extent
            assert np.all(win.zeta[:, ny:, :] == 0.0)
            assert np.all(win.zeta[:, :, nx:] == 0.0)
            assert np.all(win.u3[:, ny:, :, :] == 0.0)
            assert np.all(win.u3[:, :, nx:, :] == 0.0)
            assert np.all(win.u3[:, :, :, nz:] == 0.0)

    def test_basins_are_heterogeneous(self, factory):
        meshes = {factory.basin(n).native_mesh for n in factory.basin_names}
        assert len(meshes) == len(factory.basin_names)

    def test_fields_physically_plausible(self, factory):
        win = factory.basin("boca-grande").window(0.0)
        assert np.abs(win.zeta).max() < 5.0        # metres of surge+tide
        assert np.abs(win.u3).max() < 10.0         # m/s currents

    def test_rejects_native_mesh_exceeding_wire(self):
        too_big = (BasinSpec("huge", ny=99, nx=4, nz=2),)
        with pytest.raises(ValueError, match="exceeds wire mesh"):
            ScenarioFactory(seed=0, basins=too_big)

    def test_rejects_duplicate_basin_names(self):
        dup = (BasinSpec("a", ny=4, nx=4, nz=2),
               BasinSpec("a", ny=5, nx=5, nz=2))
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioFactory(seed=0, basins=dup)

    def test_rolling_current_is_stable_and_advance_slides(self, factory):
        roll = factory.rolling("matlacha")
        first = roll.current
        assert roll.current is first               # exact-duplicate requests
        nxt = roll.advance()
        assert nxt is roll.current
        assert not np.array_equal(first.zeta, nxt.zeta)
        # open-loop advance is just the window at the shifted time
        basin = factory.basin("matlacha")
        np.testing.assert_array_equal(
            nxt.zeta, basin.window(basin.dt_seconds).zeta)

    def test_advance_warm_start_is_exact_half_blend(self, factory):
        basin = factory.basin("san-carlos")
        roll = factory.rolling("san-carlos")
        fake = FieldWindow(*(np.full_like(getattr(roll.current, v), 0.25)
                             for v in VARS))
        blended = roll.advance(forecast=fake)
        open_loop = basin.window(basin.dt_seconds)
        for var in VARS:
            got, obs = getattr(blended, var), getattr(open_loop, var)
            np.testing.assert_array_equal(
                got[0], 0.5 * (obs[0] + getattr(fake, var)[-1]))
            np.testing.assert_array_equal(got[1:], obs[1:])


# ----------------------------------------------------------------------
# traffic simulation: determinism + arrival statistics
# ----------------------------------------------------------------------
class TestTraffic:
    def test_same_seed_same_trace_different_seed_differs(self, factory):
        model = TrafficModel.from_factory(factory, base_rate=10.0)
        a = simulate_trace(model, duration_s=5.0, seed=7)
        b = simulate_trace(model, duration_s=5.0, seed=7)
        c = simulate_trace(model, duration_s=5.0, seed=8)
        assert a == b
        assert a != c
        assert a.n_requests > 0

    def test_poisson_rate_within_confidence_bounds(self):
        """Homogeneous single-basin stream: count ≈ Poisson(λT)."""
        lam, duration = 50.0, 20.0
        model = TrafficModel((BasinLoad("b"),), base_rate=lam,
                             unique_fraction=0.0)
        trace = simulate_trace(model, duration_s=duration, seed=3)
        expected = lam * duration
        # 4.5σ two-sided bound: deterministic test, negligible flake
        assert abs(trace.n_requests - expected) < 4.5 * np.sqrt(expected)

    def test_tenant_weights_shape_the_mix(self, factory):
        model = TrafficModel.from_factory(factory, base_rate=30.0)
        trace = simulate_trace(model, duration_s=20.0, seed=5)
        counts = trace.requests_by_basin()
        for spec in factory.specs:
            expected = 30.0 * spec.weight * 20.0
            assert abs(counts[spec.name] - expected) \
                < 4.5 * np.sqrt(expected)

    def test_storm_spike_concentrates_arrivals(self):
        spike = StormSpike(center_s=50.0, width_s=5.0, amplitude=4.0)
        model = TrafficModel((BasinLoad("b", spike=spike),),
                             base_rate=10.0, unique_fraction=0.0)
        trace = simulate_trace(model, duration_s=100.0, seed=9)
        times = trace.arrival_times()
        in_spike = np.sum((times >= 40.0) & (times <= 60.0))
        baseline = np.sum(times <= 20.0)
        # expected ≈ 678 vs 200: demand a clear 2× separation
        assert in_spike > 2 * baseline

    def test_diurnal_modulation_moves_peak(self):
        # quarter-period phase ⇒ maximum demand at t=0, minimum at T/2
        cyc = DiurnalCycle(amplitude=0.9, period_s=100.0,
                           phase_rad=np.pi / 2)
        model = TrafficModel((BasinLoad("b", diurnal=cyc),),
                             base_rate=20.0, unique_fraction=0.0)
        times = simulate_trace(model, duration_s=100.0, seed=2) \
            .arrival_times()
        near_peak = np.sum(times <= 25.0) + np.sum(times >= 75.0)
        near_trough = np.sum((times > 25.0) & (times < 75.0))
        assert near_peak > 1.5 * near_trough

    def test_unique_fraction_within_confidence_bounds(self, factory):
        model = TrafficModel.from_factory(factory, base_rate=20.0,
                                          unique_fraction=0.3)
        trace = simulate_trace(model, duration_s=10.0, seed=11)
        uniques = sum(1 for e in trace.events if e.kind == "unique")
        frac = uniques / trace.n_requests
        sigma = np.sqrt(0.3 * 0.7 / trace.n_requests)
        assert abs(frac - 0.3) < 4.5 * sigma
        # unique params land in the cache-busting offset window
        for e in trace.events:
            if e.kind == "unique":
                assert 1.0e5 <= e.param <= 1.0e6

    def test_advance_events_on_exact_cadence(self, factory):
        model = TrafficModel.from_factory(factory, base_rate=2.0,
                                          advance_every_s=1.5)
        trace = simulate_trace(model, duration_s=10.0, seed=1)
        for name in factory.basin_names:
            ticks = [e.t for e in trace.events
                     if e.basin == name and e.kind == "advance"]
            assert ticks == [1.5 * k for k in range(1, 7)]

    def test_events_time_sorted(self, factory):
        model = TrafficModel.from_factory(factory, base_rate=15.0,
                                          advance_every_s=0.7)
        trace = simulate_trace(model, duration_s=8.0, seed=4)
        times = [e.t for e in trace.events]
        assert times == sorted(times)


# ----------------------------------------------------------------------
# trace persistence
# ----------------------------------------------------------------------
class TestTracePersistence:
    def test_jsonl_round_trip_is_exact(self, factory, tmp_path):
        model = TrafficModel.from_factory(factory, base_rate=12.0,
                                          unique_fraction=0.4,
                                          advance_every_s=2.0)
        trace = simulate_trace(model, duration_s=6.0, seed=13)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        assert loaded == trace                      # bitwise, floats too
        assert [e.t for e in loaded.events] == [e.t for e in trace.events]

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 99, "seed": 0, "duration_s": 1.0, '
                        '"base_rate": 1.0, "n_events": 0}\n')
        with pytest.raises(ValueError, match="version"):
            TrafficTrace.load(path)

    def test_load_rejects_truncated_file(self, factory, tmp_path):
        model = TrafficModel.from_factory(factory, base_rate=10.0)
        trace = simulate_trace(model, duration_s=3.0, seed=6)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            TrafficTrace.load(path)


# ----------------------------------------------------------------------
# replay accounting: every request accounted for exactly once
# ----------------------------------------------------------------------
def small_trace(factory, base_rate=5.0, duration=4.0, seed=21,
                unique_fraction=0.3, advance_every_s=1.5):
    model = TrafficModel.from_factory(
        factory, base_rate=base_rate, unique_fraction=unique_fraction,
        advance_every_s=advance_every_s)
    return simulate_trace(model, duration_s=duration, seed=seed)


class TestReplayAccounting:
    def test_virtual_mode_exact_accounting_with_cache(self, factory,
                                                      engine):
        trace = small_trace(factory)
        with ForecastServer(engine, max_batch=4, workers=3,
                            router="key-affinity", cache_bytes=1 << 23,
                            autostart=False) as server:
            report = replay_trace(trace, server, factory, mode="virtual",
                                  flush_every=4)
        report.check()
        acc = report.accounting()
        assert acc["offered"] == trace.n_requests
        assert acc["offered"] == acc["served"] + acc["cached"] + acc["shed"]
        assert acc["lost"] == 0 and acc["duplicates"] == 0
        # rolling duplicates must actually hit the cache/dedup layer
        assert acc["cached"] > 0

    def test_virtual_replay_is_deterministic(self, factory, engine):
        trace = small_trace(factory)

        def run():
            with ForecastServer(engine, max_batch=4,
                                workers=3, router="key-affinity",
                                cache_bytes=1 << 23,
                                autostart=False) as server:
                return replay_trace(trace, server, factory,
                                    mode="virtual", flush_every=4)

        a, b = run(), run()
        for name in factory.basin_names:
            ra, rb = a.per_basin[name], b.per_basin[name]
            assert (ra.offered, ra.served, ra.cached, ra.shed) \
                == (rb.offered, rb.served, rb.cached, rb.shed)
            assert ra.workers == rb.workers

    def test_loaded_trace_replays_like_generated(self, factory, engine,
                                                 tmp_path):
        trace = small_trace(factory)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)

        def run(t):
            with ForecastServer(engine, max_batch=4,
                                workers=2, cache_bytes=1 << 23,
                                autostart=False) as server:
                return replay_trace(t, server, factory,
                                    mode="virtual", flush_every=4)

        a, b = run(trace), run(loaded)
        assert a.accounting() == b.accounting()

    def test_shedding_still_accounts_exactly(self, factory, engine):
        """Starve admission (tiny queues, rare flushes): requests shed,
        but none are lost or double-served."""
        trace = small_trace(factory, base_rate=8.0, unique_fraction=1.0)
        pool = EngineWorkerPool(engine, replicas=2, max_batch=2, max_queue=2,
                                autostart=False)
        try:
            report = replay_trace(trace, pool, factory, mode="virtual",
                                  flush_every=32)
        finally:
            pool.close()
        report.check()
        assert report.shed > 0
        assert report.offered == trace.n_requests
        assert report.served + report.cached + report.shed \
            == report.offered

    def test_storm_spike_autoscales_and_accounts_exactly(
            self, factory, engine, monkeypatch):
        """A storm spike through key-affinity + cache + an attached
        AutoScaler on a virtual clock: one scaler tick and one drain per
        quantum of *trace* time, so the backlog a tick samples is what
        arrived in that quantum.  The pool must grow through the spike,
        shrink back to ``min_workers`` in the quiet tail, and lose or
        double-serve nothing on the way."""
        duration, quantum = 8.0, 0.25
        spikes = {name: StormSpike(center_s=duration / 2,
                                   width_s=duration / 16, amplitude=24.0)
                  for name in factory.basin_names}
        model = TrafficModel.from_factory(
            factory, base_rate=1.0, unique_fraction=0.5,
            advance_every_s=duration / 8, spikes=spikes)
        trace = simulate_trace(model, duration_s=duration, seed=4)
        arrivals = iter([e.t for e in trace.events if e.kind != "advance"])
        widths = []
        with ForecastServer(engine, workers=1, max_batch=4,
                            max_queue=8, router="key-affinity",
                            cache_bytes=1 << 23,
                            autostart=False) as server:
            scaler = AutoScaler(server.pool, min_workers=1, max_workers=3,
                                high_water=0.5, low_water=0.1,
                                scale_down_patience=2)
            submit, next_tick = server.submit, quantum

            def submit_on_clock(window, route_key=None):
                # replay_trace submits once per request event, in order
                nonlocal next_tick
                t = next(arrivals)
                while t >= next_tick:
                    widths.append(scaler.tick())
                    server.flush()
                    next_tick += quantum
                return submit(window, route_key=route_key)

            monkeypatch.setattr(server, "submit", submit_on_clock)
            report = replay_trace(trace, server, factory, mode="virtual",
                                  flush_every=trace.n_requests + 1)
            for _ in range(2 * scaler.scale_down_patience):
                widths.append(scaler.tick())        # the quiet tail
        report.check()
        acc = report.accounting()
        assert acc["offered"] == trace.n_requests
        assert acc["offered"] == acc["served"] + acc["cached"] + acc["shed"]
        assert acc["lost"] == 0 and acc["duplicates"] == 0
        # the spike overloads one replica: all three terms are exercised
        assert acc["cached"] > 0 and acc["shed"] > 0
        assert max(widths) > 1, widths              # grew through the spike
        assert widths[-1] == scaler.min_workers == 1, widths
        ups = [e.workers_after for e in scaler.events if e.action == "up"]
        downs = [e for e in scaler.events if e.action == "down"]
        assert ups and max(ups) == max(widths)
        assert len(downs) >= len(ups)

    def test_wall_mode_thread_backend_exact_accounting(self, factory,
                                                       engine):
        trace = small_trace(factory, base_rate=4.0, duration=3.0)
        with ForecastServer(engine, max_batch=4, workers=2,
                            cache_bytes=1 << 23) as server:
            report = replay_trace(trace, server, factory, mode="wall",
                                  time_scale=0.02)
        report.check()
        assert report.offered == trace.n_requests
        assert report.sustained_qps() > 0.0

    def test_wall_mode_process_backend_exact_accounting(self, factory,
                                                        engine):
        """The accounting invariant holds across the process boundary."""
        trace = small_trace(factory, base_rate=2.0, duration=3.0,
                            unique_fraction=0.5, advance_every_s=0.0)
        pool = EngineWorkerPool(engine, replicas=2, max_batch=4,
                                **REMOTE_TIERS["process"].pool_kwargs)
        try:
            # time_scale=0: the degenerate submit-as-fast-as-possible
            # (step-function) load shape
            report = replay_trace(trace, pool, factory, mode="wall",
                                  time_scale=0.0)
        finally:
            pool.close()
        report.check()
        assert report.offered == trace.n_requests
        assert report.served == trace.n_requests   # bare pool: no cache
        assert len({w for b in report.per_basin.values()
                    for w in b.workers}) <= 2
