"""Replica pool: routing purity, affinity, backpressure, aggregation.

The pool must add *placement* and nothing else: whichever policy routes
a request, its result is bitwise-identical to a direct
``ForecastEngine.forecast_batch`` call on the micro-batch it landed in;
key-affinity pins equal keys to one replica; admission control sheds
exactly at the configured bound with a usable retry hint; and the
pool-level metrics are the sums of the per-worker logs.
"""

import inspect
import threading
from contextlib import closing

import numpy as np
import pytest
from conftest import (  # noqa: F401 — shared serving fixtures
    assert_windows_equal,
    make_window,
)

from repro.serve import (EngineWorkerPool, ForecastServer, PoolSaturated,
                         ServingCapacityModel)
import repro.serve.server as server_mod
from repro.serve.cache import window_key
from repro.serve.pool import stable_key_hash
from repro.serve.scheduler import ServeMetrics
from repro.workflow import EnsembleForecaster, SurrogateForecaster

POLICIES = ("round-robin", "least-outstanding", "key-affinity")


def manual_pool(engine, **kwargs):
    kwargs.setdefault("replicas", 3)
    kwargs.setdefault("max_batch", 2)
    return EngineWorkerPool(engine, autostart=False, **kwargs)


def assert_latency_is_queue_plus_batch(pool, wins):
    futures = [pool.submit(w) for w in wins]
    for fut in futures:
        fut.result(timeout=120)
    metrics = pool.workers[0].scheduler.metrics
    assert metrics.n_requests == len(wins)
    for fut in futures:
        batch = metrics.batches[fut.batch_index]
        wait = batch.queue_seconds[batch.request_ids.index(fut.request_id)]
        assert fut.queue_seconds == wait >= 0
        assert fut.latency_seconds == wait + batch.seconds


class TestPoolEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_pooled_bitwise_equal_direct_any_policy(self, engine, windows,
                                                    policy):
        pool = manual_pool(engine, router=policy)
        futures = []
        for i, w in enumerate(windows[:9]):
            # duplicate keys on purpose so affinity actually co-locates
            futures.append((w, pool.submit(w, key=f"k{i % 4}")))
        assert pool.flush() == 9
        by_id = {}
        for w, fut in futures:
            # request ids are per-scheduler; qualify by worker
            by_id[(fut.worker_id, fut.request_id)] = (w, fut.result(timeout=1))
        for worker in pool.workers:
            for batch in worker.scheduler.metrics.batches:
                direct = engine.forecast_batch(
                    [by_id[(worker.worker_id, rid)][0]
                     for rid in batch.request_ids])
                for rid, d in zip(batch.request_ids, direct):
                    assert_windows_equal(
                        by_id[(worker.worker_id, rid)][1].fields, d.fields)
        pool.close()

    def test_executor_protocol_matches_direct(self, engine, windows):
        """pool.forecast_batch is drop-in for engine.forecast_batch."""
        with closing(manual_pool(engine)) as pool:
            served = pool.forecast_batch(windows[:6])
        direct = engine.forecast_batch(windows[:6])
        for s, d in zip(served, direct):
            assert_windows_equal(s.fields, d.fields)

    def test_latency_is_queue_plus_batch_seconds_on_threads(
            self, engine, windows):
        """One clock read per batch: a request's latency is exactly its
        queue wait plus its batch's engine call."""
        with closing(EngineWorkerPool(engine, max_batch=4)) as pool:
            assert_latency_is_queue_plus_batch(pool, windows[:6])

    def test_latency_is_queue_plus_batch_seconds(self, engine, windows,
                                                 remote_tier):
        """The same on a remote tier, whose batch time includes the
        transport."""
        with closing(EngineWorkerPool(engine, max_batch=4,
                                      **remote_tier.pool_kwargs)) as pool:
            assert_latency_is_queue_plus_batch(pool, windows[:6])

    def test_threaded_pool_serves_concurrent_clients(self, engine):
        pool = EngineWorkerPool(engine, replicas=2, max_batch=3, max_queue=64)
        tagged, lock = [], threading.Lock()

        def client(cid):
            for k in range(4):
                w = make_window(200 + 10 * cid + k)
                fut = pool.submit(w, key=f"c{cid}-{k}")
                with lock:
                    tagged.append((w, fut))

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [(w, fut.result(timeout=60)) for w, fut in tagged]
        pool.close()
        for w, res in results:
            # pairing: slot 0 is the exact IC of the submitted window
            np.testing.assert_array_equal(res.fields.zeta[0], w.zeta[0])
        assert pool.metrics.n_requests == 12

    def test_ensemble_through_pool_equals_direct(self, engine, windows):
        direct = EnsembleForecaster(engine, n_members=4,
                                    seed=3).forecast(windows[0])
        with closing(manual_pool(engine, max_batch=4)) as pool:
            served = EnsembleForecaster(pool, n_members=4,
                                        seed=3).forecast(windows[0])
        assert_windows_equal(served.mean, direct.mean)
        assert_windows_equal(served.spread, direct.spread)


class TestReplicasAreBornWarm:
    """One rule: the pool warms every engine that can compile its
    bucket set before the replica is routable, and a remote replica
    starts with exactly the plans its parent engine holds."""

    def test_remote_replica_is_born_warm(self, engine_factory, windows,
                                         remote_tier):
        """The parent's plans cross the wire in the spawn payload: the
        remote holds them before any traffic, and its first partial
        batch replays one of them."""
        engine = engine_factory()       # private: the pool compiles plans
        with closing(EngineWorkerPool(engine, max_batch=4, autostart=False,
                                      **remote_tier.pool_kwargs)) as pool:
            child = pool.workers[0].executor
            born = child.plan_stats()
            futures = [pool.submit(w) for w in windows[:3]]
            pool.flush()
            served = [f.result(timeout=60) for f in futures]
            after = child.plan_stats()
        assert born["batches"] == engine.compiled_batches == [1, 2, 4]
        assert set(born) == set(engine.plan_stats()) | {"transport"}
        assert born["transport"]["backend"] == remote_tier.backend
        # the first partial batch pads into the b4 plan the child was
        # born with: a hit, never an eager fallback
        assert (after["hits"], after["misses"]) == (1, 0)
        assert all(r.compiled and r.plan_batch == 4 for r in served)
        for s, d in zip(served, engine.forecast_batch(windows[:3])):
            assert_windows_equal(s.fields, d.fields)

    def test_engine_without_compile_buckets_serves_eager(
            self, tiny_surrogate, identity_norm, windows):
        forecaster = SurrogateForecaster(tiny_surrogate, identity_norm)
        with closing(EngineWorkerPool(forecaster, max_batch=4,
                                      autostart=False)) as pool:
            served = pool.forecast_batch(windows[:3])
        assert forecaster.engine.compiled_batches == []
        assert not any(r.compiled for r in served)
        assert forecaster.engine.plan_stats()["misses"] == 1
        for s, d in zip(served, forecaster.forecast_batch(windows[:3])):
            assert_windows_equal(s.fields, d.fields)


class TestRouting:
    def test_round_robin_spreads_evenly(self, engine, windows):
        with closing(manual_pool(engine, router="round-robin")) as pool:
            for w in windows[:6]:
                pool.submit(w)
            assert [wk.outstanding for wk in pool.workers] == [2, 2, 2]
            pool.flush()

    def test_least_outstanding_balances(self, engine, windows):
        with closing(manual_pool(engine, router="least-outstanding")) as pool:
            for w in windows[:5]:
                pool.submit(w)
            assert sorted(wk.outstanding for wk in pool.workers) == [1, 2, 2]
            pool.flush()
            assert [wk.outstanding for wk in pool.workers] == [0, 0, 0]
            # drained replicas are preferred again
            pool.submit(windows[5])
            assert sum(wk.outstanding for wk in pool.workers) == 1
            pool.flush()

    def test_key_affinity_pins_duplicate_keys(self, engine, windows):
        with closing(manual_pool(engine, router="key-affinity",
                                 max_queue=64)) as pool:
            homes = {}
            for trial in range(3):            # same keys, many submissions
                for k in range(4):
                    fut = pool.submit(windows[(trial + k) % 12],
                                      key=f"scenario-{k}")
                    homes.setdefault(f"scenario-{k}", set()).add(
                        fut.worker_id)
                pool.flush()
            for key, workers in homes.items():
                assert len(workers) == 1, f"{key} visited {workers}"
                assert workers == {stable_key_hash(key) % 3}

    def test_key_affinity_keyless_falls_back(self, engine, windows):
        with closing(manual_pool(engine, router="key-affinity")) as pool:
            for w in windows[:3]:
                pool.submit(w)               # no key: round-robin fallback
            assert [wk.outstanding for wk in pool.workers] == [1, 1, 1]
            pool.flush()

    def test_pool_rejects_unknown_router(self, engine):
        with pytest.raises(ValueError, match="unknown router"):
            EngineWorkerPool(engine, router="fastest-first")

    def test_only_affinity_computes_digests(self, engine, windows,
                                            monkeypatch):
        """Without a cache a digest serves routing alone: only the
        policy that reads keys pays for one."""
        digested = []
        monkeypatch.setattr(server_mod, "window_key",
                            lambda w: digested.append(w) or window_key(w))
        for policy in POLICIES:
            digested.clear()
            with ForecastServer(engine, workers=2, router=policy,
                                autostart=False) as server:
                server.submit(windows[0])       # close() serves it
            assert len(digested) == (policy == "key-affinity"), policy

    def test_stable_hash_is_deterministic(self):
        assert stable_key_hash("abc") == stable_key_hash("abc")
        assert stable_key_hash("abc") != stable_key_hash("abd")


class TestBackpressure:
    def test_shed_at_configured_bound(self, engine, windows):
        with closing(manual_pool(engine, replicas=2, max_queue=2)) as pool:
            for w in windows[:4]:            # fills 2 workers × 2 slots
                pool.submit(w)
            with pytest.raises(PoolSaturated) as exc:
                pool.submit(windows[4])
            assert exc.value.retry_after > 0
            assert pool.shed_requests == 1
            assert pool.metrics.summary()["shed_requests"] == 1
            pool.flush()                     # drain → admission reopens
            fut = pool.submit(windows[4])
            pool.flush()
            assert fut.done()

    def test_affinity_sheds_strictly(self, engine, windows):
        """A full home replica sheds even while others are idle —
        spilling would silently break co-location."""
        with closing(manual_pool(engine, router="key-affinity",
                                 max_queue=1)) as pool:
            key = "hot-scenario"
            home = stable_key_hash(key) % 3
            pool.submit(windows[0], key=key)
            with pytest.raises(PoolSaturated):
                pool.submit(windows[1], key=key)
            assert sum(wk.outstanding for wk in pool.workers) == 1
            # hot-key skew is attributed to the full home replica
            assert pool.metrics.shed_by_worker()[home] == 1
            assert sum(pool.metrics.shed_by_worker().values()) == 1
            # a key homed elsewhere is still admitted
            other = next(f"k{j}" for j in range(64)
                         if stable_key_hash(f"k{j}") % 3
                         != stable_key_hash(key) % 3)
            pool.submit(windows[2], key=other)
            pool.flush()

    def test_retry_after_uses_fitted_cost_model(self, engine, windows):
        with closing(manual_pool(engine, replicas=1, max_batch=2,
                                 max_queue=2)) as pool:
            pool.forecast_batch(windows[:3])  # observe batches of 2 and 1
            fitted = ServingCapacityModel.from_batch_log(
                pool.metrics.batches)
            for w in windows[:2]:
                pool.submit(w)
            with pytest.raises(PoolSaturated) as exc:
                pool.submit(windows[2])
            expect = fitted.dispatch_seconds + 2 * fitted.per_request_seconds
            assert exc.value.retry_after == pytest.approx(expect)
            pool.flush()

    def test_retry_after_bounded_by_one_batch(self, engine, windows):
        """A slot frees after ONE micro-batch — a deep queue must not
        inflate the advertised back-off past a + b·max_batch."""
        with closing(manual_pool(engine, replicas=1, max_batch=2,
                                 max_queue=6)) as pool:
            pool.forecast_batch(windows[:3])  # fit gets 2 batch sizes
            fitted = ServingCapacityModel.from_batch_log(
                pool.metrics.batches)
            for w in windows[:6]:
                pool.submit(w)
            with pytest.raises(PoolSaturated) as exc:
                pool.submit(windows[6])
            cap = fitted.dispatch_seconds + 2 * fitted.per_request_seconds
            assert exc.value.retry_after == pytest.approx(cap)
            pool.flush()

    def test_forecast_batch_survives_tiny_queue(self, engine, windows):
        """The executor protocol retries shed members instead of
        dropping them — an ensemble cannot lose members."""
        with closing(EngineWorkerPool(engine, replicas=2, max_batch=2,
                                      max_queue=1)) as pool:
            served = pool.forecast_batch(windows[:6])
        direct = engine.forecast_batch(windows[:6])
        for s, d in zip(served, direct):
            assert_windows_equal(s.fields, d.fields)

    def test_rejects_bad_configuration(self, engine):
        with pytest.raises(ValueError, match="max_queue"):
            EngineWorkerPool(engine, replicas=2, max_queue=0)
        with pytest.raises(ValueError, match="replicas"):
            EngineWorkerPool(engine, replicas=0)
        with pytest.raises(TypeError, match="batch executor"):
            EngineWorkerPool([engine, engine])
        with pytest.raises(TypeError, match="batch executor"):
            ForecastServer([engine, engine])


class TestMetricsAggregation:
    def test_pool_metrics_sum_per_worker_logs(self, engine, windows):
        with closing(manual_pool(engine, router="round-robin")) as pool:
            futures = [pool.submit(w) for w in windows[:7]]
            pool.flush()
            [f.result(timeout=1) for f in futures]
            m = pool.metrics
            per = [wk.scheduler.metrics for wk in pool.workers]
            assert m.n_requests == sum(p.n_requests for p in per) == 7
            assert m.n_batches == sum(p.n_batches for p in per)
            assert m.mean_occupancy == pytest.approx(7 / m.n_batches)
            assert m.max_occupancy == max(p.max_occupancy for p in per)
            assert m.engine_seconds == pytest.approx(
                sum(b.seconds for p in per for b in p.batches))
            assert sum(m.requests_by_worker().values()) == 7
            assert np.isfinite(m.latency_percentile(50))
            s = m.summary()
            assert s["workers"] == 3 and s["requests"] == 7
            assert s["shed_requests"] == 0 and s["outstanding"] == 0
            assert s["engine_seconds"] == pytest.approx(m.engine_seconds)

    def test_worker_id_matches_serving_scheduler(self, engine, windows):
        with closing(manual_pool(engine, router="round-robin")) as pool:
            futures = [pool.submit(w) for w in windows[:6]]
            pool.flush()
            for fut in futures:
                worker = pool.workers[fut.worker_id]
                served_ids = [rid for b in worker.scheduler.metrics.batches
                              for rid in b.request_ids]
                assert fut.request_id in served_ids

    def test_failed_batches_aggregate(self, windows, engine):
        class Flaky:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0
                self.time_steps = inner.time_steps

            def forecast_batch(self, refs):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("transient backend failure")
                return self.inner.forecast_batch(refs)

        with closing(EngineWorkerPool(engine, max_batch=1, autostart=False,
                                      router="round-robin")) as pool:
            pool.add_worker(engine=Flaky(engine))
            futures = [pool.submit(w) for w in windows[:2]]
            pool.flush()
            assert pool.metrics.n_failed_batches == 1
            assert pool.metrics.summary()["failed_batches"] == 1
            outcomes = {f.worker_id: f for f in futures}
            outcomes[0].result(timeout=1)
            with pytest.raises(RuntimeError, match="transient"):
                outcomes[1].result(timeout=1)
            # the failure released its admission slot
            assert pool.metrics.outstanding == 0


def serve_metrics_members():
    """The read surface of ``ServeMetrics`` as the class declares it:
    every public property and zero-argument method."""
    return sorted(
        name for name, member in vars(ServeMetrics).items()
        if not name.startswith("_") and (
            isinstance(member, property)
            or inspect.isfunction(member)
            and len(inspect.signature(member).parameters) == 1))


class TestPoolMetricsMirrorServeMetrics:
    """``PoolMetrics`` answers every ``ServeMetrics`` member from one
    ``ServeMetrics`` over the live + retired workers' merged logs."""

    @pytest.fixture(scope="class")
    def pool_and_merged(self, engine, windows):
        with closing(manual_pool(engine, router="round-robin")) as pool:
            for w in windows[:7]:
                pool.submit(w)
            pool.flush()
            pool.remove_worker(pool.workers[0].worker_id)
            pool.submit(windows[7])     # a lone partial batch
            pool.flush()
            per = pool.metrics.per_worker
            assert len(per) == 3 and len(pool.workers) == 2
            assert sum(m.n_requests for m in per) == 8
            for i, m in enumerate(per, start=1):
                # a thread pool reports no transport: fake some
                m.ipc_wait_s, m.marshal_bytes = 0.5 * i, 100 * i
                m.net_wait_s, m.frame_bytes = 0.25 * i, 10 * i
                m.inflight_depth = i
            yield pool, ServeMetrics(
                batches=[b for m in per for b in m.batches],
                ipc_wait_s=3.0, marshal_bytes=600, net_wait_s=1.5,
                frame_bytes=60, inflight_depth=3)

    def test_discovery_sees_the_surface(self):
        assert {"n_requests", "n_batches", "summary"} \
            <= set(serve_metrics_members())

    @pytest.mark.parametrize("member", serve_metrics_members())
    def test_member_equals_serve_metrics_over_merged_logs(
            self, pool_and_merged, member):
        pool, merged = pool_and_merged
        got, want = getattr(pool.metrics, member), getattr(merged, member)
        if callable(want):
            got, want = got(), want()
        if member == "summary":
            # the pool's summary adds its own keys around the replica's
            got = {k: got[k] for k in want}
        assert got == want


class TestServerWithPool:
    def test_pool_of_one_is_default(self, engine, windows):
        with ForecastServer(engine, max_batch=4) as server:
            res = server.forecast(windows[0])
            assert len(server.pool.workers) == 1
            assert server.scheduler is server.pool.workers[0].scheduler
        direct = engine.forecast_batch([windows[0]])[0]
        assert_windows_equal(res.fields, direct.fields)

    def test_sharded_server_caches_and_dedups(self, engine, windows):
        with ForecastServer(engine, workers=2, router="key-affinity",
                            max_batch=4,
                            cache_bytes=1 << 24) as server:
            first = server.forecast(windows[0])
            followers = [server.submit(windows[0]) for _ in range(3)]
            for f in followers:
                assert_windows_equal(f.result(timeout=60).fields,
                                     first.fields)
            m = server.metrics()
            assert m["workers"] == 2
            assert m["cache_hits"] + m["deduped_requests"] >= 3
        # every engine-served copy of the hot window sat on its home
        # replica: affinity keeps cache/dedup locality under sharding
        home = stable_key_hash(window_key(windows[0])) % 2
        other = server.pool.workers[1 - home].scheduler.metrics
        assert other.n_requests == 0

    def test_sharded_ensemble_equals_direct(self, engine, windows):
        direct = EnsembleForecaster(engine, n_members=4,
                                    seed=3).forecast(windows[1])
        with ForecastServer(engine, workers=2, max_batch=2) as server:
            served = server.submit_ensemble(windows[1], n_members=4,
                                            seed=3).result(timeout=120)
        assert_windows_equal(served.mean, direct.mean)
        assert_windows_equal(served.spread, direct.spread)
