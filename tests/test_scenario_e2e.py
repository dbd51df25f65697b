"""End-to-end scenario serving: rolling forecasts for K basins through
the full stack — affinity, cache locality, and bitwise replay.

Three guarantees, checked on the real ``ForecastServer``:

* **placement** — keyed by basin name, every engine-served request of
  a basin lands on exactly the replica ``stable_key_hash(name) % K``;
* **locality** — rolling duplicates actually convert into cache/dedup
  hits at a floor rate, so the scenario exercises the layers it claims;
* **bitwise** — closed-loop rolling results equal a direct
  ``ForecastEngine.forecast_batch`` loop, and a recorded trace replayed
  through two fresh servers produces bitwise-identical responses.
"""

import numpy as np
import pytest

from conftest import assert_windows_equal

from repro.scenario import (
    ScenarioFactory,
    TrafficModel,
    replay_trace,
    simulate_trace,
)
from repro.serve import ForecastServer, window_key
from repro.serve.pool import stable_key_hash

WORKERS = 3


@pytest.fixture(scope="module")
def factory():
    return ScenarioFactory(seed=11)


def manual_server(engine, **kwargs):
    kwargs.setdefault("workers", WORKERS)
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("router", "key-affinity")
    kwargs.setdefault("cache_bytes", 1 << 24)
    return ForecastServer(engine, autostart=False, **kwargs)


class TestRollingForecastsEndToEnd:
    DUPES = 3      # submissions of the current window per basin per round
    ROUNDS = 3

    def test_affinity_hit_rate_and_closed_loop_bitwise(self, factory,
                                                       engine):
        """K basins roll forward closed-loop; the server must pin each
        basin to its hash replica, convert duplicates into hits, and
        reproduce the direct engine loop bitwise."""
        names = factory.basin_names
        served_futures = {n: [] for n in names}
        hits = total = 0
        server_results = {}

        with manual_server(engine) as server:
            rolls = {n: factory.rolling(n) for n in names}
            for _ in range(self.ROUNDS):
                futures = {n: [server.submit(rolls[n].current,
                                             route_key=n)
                               for _ in range(self.DUPES)]
                           for n in names}
                server.flush()
                for n in names:
                    results = [f.result(timeout=60) for f in futures[n]]
                    for f in results[1:]:       # duplicates agree
                        assert_windows_equal(results[0].fields, f.fields)
                    for f in futures[n]:
                        total += 1
                        if f.cache_hit:
                            hits += 1
                        else:
                            served_futures[n].append(f)
                    server_results.setdefault(n, []).append(results[0])
                    rolls[n].advance(forecast=results[0])

        # placement: every engine-served request on the hash replica
        for n in names:
            workers = {f.worker_id for f in served_futures[n]}
            assert workers == {stable_key_hash(n) % WORKERS}, n

        # locality: per round each basin needs one engine pass, the
        # duplicates follow it (dedup) or hit the cache
        assert hits / total >= (self.DUPES - 1) / self.DUPES

        # bitwise: the same closed loop driven directly on the engine
        direct_rolls = {n: factory.rolling(n) for n in names}
        for r in range(self.ROUNDS):
            for n in names:
                direct = engine.forecast_batch([direct_rolls[n].current])[0]
                got = server_results[n][r]
                assert_windows_equal(got.fields, direct.fields)
                direct_rolls[n].advance(forecast=direct)

    def test_dedup_leaders_share_with_followers(self, factory, engine):
        """A burst of one basin's current window takes one engine slot;
        the metrics must show the dedup actually happened."""
        with manual_server(engine, workers=2) as server:
            window = factory.rolling("punta-gorda").current
            futures = [server.submit(window, route_key="punta-gorda")
                       for _ in range(5)]
            server.flush()
            results = [f.result(timeout=60) for f in futures]
            for r in results[1:]:
                assert_windows_equal(results[0].fields, r.fields)
            metrics = server.metrics()
        assert sum(1 for f in futures if not f.cache_hit) == 1
        assert metrics["deduped_requests"] >= 4


class TestTraceReplayBitwise:
    def make_trace(self, factory):
        model = TrafficModel.from_factory(factory, base_rate=4.0,
                                          unique_fraction=0.3,
                                          advance_every_s=1.0)
        return simulate_trace(model, duration_s=4.0, seed=17)

    def test_two_fresh_servers_produce_identical_responses(self, factory,
                                                           engine):
        trace = self.make_trace(factory)

        def run():
            responses = []
            with manual_server(engine) as server:
                replay_trace(trace, server, ScenarioFactory(seed=11),
                             mode="virtual", flush_every=4,
                             responses=responses).check()
            return responses

        a, b = run(), run()
        assert len(a) == len(b) == trace.n_requests
        for (ev_a, res_a), (ev_b, res_b) in zip(a, b):
            assert ev_a == ev_b
            assert_windows_equal(res_a.fields, res_b.fields)

    def test_replayed_responses_match_direct_engine(self, factory,
                                                    engine):
        """Every response of a replay equals the direct
        ``forecast_batch`` on the window the event denotes — the server
        adds placement, batching, and caching, never different numbers.
        """
        trace = self.make_trace(factory)
        responses = []
        with manual_server(engine) as server:
            replay_trace(trace, server, ScenarioFactory(seed=11),
                         mode="virtual", flush_every=4,
                         responses=responses).check()

        # mirror the replay's window reconstruction open-loop
        mirror = ScenarioFactory(seed=11)
        rolls = {}
        direct_cache = {}
        i = 0
        for event in trace.events:
            if event.kind == "advance":
                rolls.setdefault(
                    event.basin, mirror.rolling(event.basin)).advance()
                continue
            if event.kind == "unique":
                window = mirror.basin(event.basin).window(event.param)
            else:
                window = rolls.setdefault(
                    event.basin, mirror.rolling(event.basin)).current
            got_event, got = responses[i]
            i += 1
            assert got_event == event
            key = window_key(window)
            if key not in direct_cache:
                direct_cache[key] = engine.forecast_batch([window])[0]
            assert_windows_equal(got.fields, direct_cache[key].fields)
        assert i == len(responses)

    def test_round_tripped_trace_replays_bitwise(self, factory, engine,
                                                 tmp_path):
        from repro.scenario import TrafficTrace

        trace = self.make_trace(factory)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)

        def run(t):
            responses = []
            with manual_server(engine) as server:
                replay_trace(t, server, ScenarioFactory(seed=11),
                             mode="virtual", flush_every=4,
                             responses=responses).check()
            return responses

        for (_, res_a), (_, res_b) in zip(run(trace), run(loaded)):
            assert_windows_equal(res_a.fields, res_b.fields)
