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

import numpy as np
import pytest
from conftest import (  # noqa: F401 — shared serving fixtures
    assert_windows_equal,
    make_window,
)

from repro.hpc import PoolCapacityModel, ServingCapacityModel
from repro.serve import (
    EngineWorkerPool,
    ForecastServer,
    KeyAffinityRouter,
    PoolSaturated,
    Router,
    window_key,
)
from repro.serve.pool import stable_key_hash
from repro.serve.scheduler import ServeMetrics
from repro.workflow import EnsembleForecaster

POLICIES = ("round-robin", "least-outstanding", "key-affinity")


def manual_pool(engine, **kwargs):
    kwargs.setdefault("replicas", 3)
    kwargs.setdefault("max_batch", 2)
    return EngineWorkerPool(engine, autostart=False, **kwargs)


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
        with manual_pool(engine) as pool:
            served = pool.forecast_batch(windows[:6])
        direct = engine.forecast_batch(windows[:6])
        for s, d in zip(served, direct):
            assert_windows_equal(s.fields, d.fields)

    @pytest.mark.parametrize("backend", ["thread", "process", "host"])
    def test_latency_is_queue_plus_batch_seconds(self, engine, windows,
                                                 backend):
        """One clock read per batch: on every tier a request's latency
        is exactly its queue wait plus its batch's engine call."""
        with EngineWorkerPool(engine, max_batch=4, backend=backend,
                              fabric="sim") as pool:
            futures = [pool.submit(w) for w in windows[:6]]
            for fut in futures:
                fut.result(timeout=120)
            metrics = pool.workers[0].scheduler.metrics
        assert metrics.n_requests == 6
        for fut, rec in zip(futures, metrics.requests):
            batch = metrics.batches[rec.batch_index]
            assert rec.queue_seconds >= 0
            assert rec.latency_seconds == pytest.approx(
                rec.queue_seconds + batch.seconds, abs=1e-6)
            assert (fut.queue_seconds, fut.latency_seconds) \
                == (rec.queue_seconds, rec.latency_seconds)

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
        with manual_pool(engine, max_batch=4) as pool:
            served = EnsembleForecaster(pool, n_members=4,
                                        seed=3).forecast(windows[0])
        assert_windows_equal(served.mean, direct.mean)
        assert_windows_equal(served.spread, direct.spread)


class TestRouting:
    def test_round_robin_spreads_evenly(self, engine, windows):
        with manual_pool(engine, router="round-robin") as pool:
            for w in windows[:6]:
                pool.submit(w)
            assert [wk.submitted for wk in pool.workers] == [2, 2, 2]
            pool.flush()

    def test_least_outstanding_balances(self, engine, windows):
        with manual_pool(engine, router="least-outstanding") as pool:
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
        with manual_pool(engine, router="key-affinity",
                         max_queue=64) as pool:
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
        with manual_pool(engine, router="key-affinity") as pool:
            for w in windows[:3]:
                pool.submit(w)               # no key: round-robin fallback
            assert [wk.submitted for wk in pool.workers] == [1, 1, 1]
            pool.flush()

    def test_router_make_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown router"):
            Router.make("fastest-first")
        assert isinstance(Router.make("key-affinity"), KeyAffinityRouter)

    def test_only_affinity_reads_keys(self):
        from repro.serve.pool import (
            LeastOutstandingRouter,
            RoundRobinRouter,
        )
        assert KeyAffinityRouter.uses_keys
        assert not RoundRobinRouter.uses_keys
        assert not LeastOutstandingRouter.uses_keys

    def test_stable_hash_is_deterministic(self):
        assert stable_key_hash("abc") == stable_key_hash("abc")
        assert stable_key_hash("abc") != stable_key_hash("abd")


class TestBackpressure:
    def test_shed_at_configured_bound(self, engine, windows):
        with manual_pool(engine, replicas=2, max_queue=2) as pool:
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
        with manual_pool(engine, router="key-affinity",
                         max_queue=1) as pool:
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
        with manual_pool(engine, replicas=1, max_batch=2,
                         max_queue=2) as pool:
            pool.forecast_batch(windows[:3])  # observe batches of 2 and 1
            fitted = pool.capacity_model()
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
        with manual_pool(engine, replicas=1, max_batch=2,
                         max_queue=6) as pool:
            pool.forecast_batch(windows[:3])  # fit gets 2 batch sizes
            fitted = pool.capacity_model()
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
        with EngineWorkerPool(engine, replicas=2, max_batch=2,
                              max_queue=1) as pool:
            served = pool.forecast_batch(windows[:6])
        direct = engine.forecast_batch(windows[:6])
        for s, d in zip(served, direct):
            assert_windows_equal(s.fields, d.fields)

    def test_rejects_bad_configuration(self, engine):
        with pytest.raises(ValueError, match="max_queue"):
            EngineWorkerPool(engine, replicas=2, max_queue=0)
        with pytest.raises(ValueError, match="replicas"):
            EngineWorkerPool(engine, replicas=0)
        with pytest.raises(ValueError, match="replicas"):
            EngineWorkerPool([engine, engine], replicas=3)
        with pytest.raises(ValueError, match="at least one"):
            EngineWorkerPool([])


class TestMetricsAggregation:
    def test_pool_metrics_sum_per_worker_logs(self, engine, windows):
        with manual_pool(engine, router="round-robin") as pool:
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
        with manual_pool(engine, router="round-robin") as pool:
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

        with EngineWorkerPool([Flaky(engine), engine], max_batch=1,
                              autostart=False,
                              router="round-robin") as pool:
            futures = [pool.submit(w) for w in windows[:2]]
            pool.flush()
            assert pool.metrics.n_failed_batches == 1
            assert pool.metrics.summary()["failed_batches"] == 1
            outcomes = {f.worker_id: f for f in futures}
            with pytest.raises(RuntimeError, match="transient"):
                outcomes[0].result(timeout=1)
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
        with manual_pool(engine, router="round-robin") as pool:
            for w in windows[:7]:
                pool.submit(w)
            pool.flush()
            pool.remove_worker(pool.workers[0].worker_id)
            pool.submit(windows[7])     # a lone partial batch
            pool.flush()
            per = pool.metrics.per_worker
            assert len(per) == 3 and pool.n_workers == 2
            assert sum(m.n_requests for m in per) == 8
            for i, m in enumerate(per, start=1):
                # a thread pool reports no transport: fake some
                m.ipc_wait_s, m.marshal_bytes = 0.5 * i, 100 * i
                m.net_wait_s, m.frame_bytes = 0.25 * i, 10 * i
                m.inflight_depth = i
            yield pool, ServeMetrics(
                batches=[b for m in per for b in m.batches],
                requests=[r for m in per for r in m.requests],
                ipc_wait_s=3.0, marshal_bytes=600, net_wait_s=1.5,
                frame_bytes=60, inflight_depth=3)

    def test_discovery_sees_the_surface(self):
        assert {"n_requests", "plan_batches", "occupancy_histogram",
                "summary"} <= set(serve_metrics_members())

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
    def test_engine_sequence_infers_workers(self, engine, windows):
        """The documented sequence form needs no redundant workers=."""
        with ForecastServer([engine, engine], max_batch=4) as server:
            res = server.forecast(windows[3])
            assert server.pool.n_workers == 2
        direct = engine.forecast_batch([windows[3]])[0]
        assert_windows_equal(res.fields, direct.fields)

    def test_pool_of_one_is_default(self, engine, windows):
        with ForecastServer(engine, max_batch=4) as server:
            res = server.forecast(windows[0])
            assert server.pool.n_workers == 1
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


class TestPoolCapacityModel:
    REPLICA = ServingCapacityModel(dispatch_seconds=0.004,
                                   per_request_seconds=0.001)

    def test_zero_contention_is_linear(self):
        model = PoolCapacityModel(self.REPLICA, contention=0.0)
        assert model.saturation_throughput(1) == pytest.approx(1000.0)
        assert model.saturation_throughput(4) == pytest.approx(4000.0)
        assert model.speedup(8) == pytest.approx(8.0)
        assert model.asymptotic_throughput == float("inf")

    def test_fit_recovers_contention_exactly(self):
        sigma = 0.15
        truth = PoolCapacityModel(self.REPLICA, contention=sigma)
        counts = [1, 2, 4, 8]
        fitted = PoolCapacityModel.fit(
            self.REPLICA, counts,
            [truth.saturation_throughput(n) for n in counts])
        assert fitted.contention == pytest.approx(sigma, rel=1e-9)
        assert fitted.speedup(4) == pytest.approx(truth.speedup(4))

    def test_fit_without_multireplica_observation_is_conservative(self):
        fitted = PoolCapacityModel.fit(self.REPLICA, [1], [990.0])
        assert fitted.contention == 1.0
        # σ = 1 pins every pool size to the measured single-replica rate
        assert fitted.single_replica_qps == pytest.approx(990.0)
        assert fitted.saturation_throughput(8) == pytest.approx(990.0)

    def test_fit_baseline_is_measured_not_asymptotic(self):
        """A replica saturating at finite max_batch achieves less than
        the 1/b asymptote; perfect pool scaling over that *measured*
        baseline must fit σ = 0, not phantom contention."""
        measured_x1 = 396.0                 # < 1/b = 1000 (finite batch)
        fitted = PoolCapacityModel.fit(
            self.REPLICA, [1, 2], [measured_x1, 2 * measured_x1])
        assert fitted.contention == 0.0
        assert fitted.baseline_throughput == pytest.approx(measured_x1)
        assert fitted.saturation_throughput(4) == pytest.approx(
            4 * measured_x1)

    def test_fit_clips_noise(self):
        # measured slightly superlinear → σ clipped to 0, not negative
        fitted = PoolCapacityModel.fit(self.REPLICA, [4], [4100.0])
        assert fitted.contention == 0.0

    def test_optimal_workers(self):
        model = PoolCapacityModel(self.REPLICA, contention=0.1)
        n = model.optimal_workers(2500.0)
        assert model.saturation_throughput(n) >= 2500.0
        assert model.saturation_throughput(n - 1) < 2500.0
        # asymptote X1/σ = 10000: unreachable targets report None
        assert model.optimal_workers(20000.0) is None
        with pytest.raises(ValueError, match="positive"):
            model.optimal_workers(0.0)

    def test_validates_contention_range(self):
        with pytest.raises(ValueError, match="contention"):
            PoolCapacityModel(self.REPLICA, contention=1.5)
        with pytest.raises(ValueError, match="observation"):
            PoolCapacityModel.fit(self.REPLICA, [], [])
