"""Serving operations: hot-swap, version pinning, rollback, autoscaling.

The control plane must move the pool between states without ever
touching the numbers: a deploy rolls a new engine version through the
replicas while every in-flight request finishes bitwise-identical on
the version that admitted it; a failed warmup (or a checkpoint that
does not load) leaves serving exactly as it was; and the autoscaler
grows/shrinks the live worker count from observed load without losing
a single admitted request.  Manual modes (pool ``autostart=False``,
autoscaler ``tick()``) make every scenario deterministic.
"""

import threading

import numpy as np
import pytest
from conftest import (  # noqa: F401 — shared serving fixtures
    assert_windows_equal,
    make_window,
)

from repro.hpc import PoolCapacityModel, ServingCapacityModel
from repro.serve import (
    AutoScaler,
    DeploymentError,
    EngineWorkerPool,
    ForecastServer,
    LoadSample,
)
from repro.train import load_model_like, save_checkpoint


@pytest.fixture()
def engine_pair(engine_factory):
    """Two engines over same-config models with *different* weights."""
    # distinct perturbation seeds force v1 vs v2 outputs apart
    return engine_factory(perturb=71), engine_factory(perturb=72)


def manual_pool(engine, **kwargs):
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("max_batch", 2)
    return EngineWorkerPool(engine, autostart=False, **kwargs)


def assert_batches_match_engine(pool, engines_by_version, by_request):
    """Every executed micro-batch (live + retired workers) must equal
    the direct ``forecast_batch`` of the *admitting worker's version*
    on its exact composition — the bitwise version-pinning guarantee."""
    checked = 0
    for worker in pool._all_workers():
        engine = engines_by_version[worker.version]
        for batch in worker.scheduler.metrics.batches:
            windows = [by_request[(worker.worker_id, rid)][0]
                       for rid in batch.request_ids]
            direct = engine.forecast_batch(windows)
            for rid, d in zip(batch.request_ids, direct):
                window, fut = by_request[(worker.worker_id, rid)]
                assert fut.engine_version == worker.version
                assert_windows_equal(fut.result(timeout=5).fields, d.fields)
                checked += 1
    return checked


class TestHotSwap:
    def test_inflight_requests_pinned_bitwise_to_old_version(
            self, engine_pair):
        e1, e2 = engine_pair
        pool = manual_pool(e1)
        # admitted under version 1, still queued when the deploy starts
        inflight = [(make_window(s), None) for s in range(5)]
        inflight = [(w, pool.submit(w)) for w, _ in inflight]
        record = pool.deploy(e2, source="swap")
        assert record.version == 2 and pool.current_version == 2
        # the deploy itself drained them — on the admitting version
        for w, fut in inflight:
            assert fut.done() and fut.engine_version == 1
        after = [(make_window(100 + s), None) for s in range(3)]
        after = [(w, pool.submit(w)) for w, _ in after]
        pool.flush()
        by_request = {}
        for w, fut in inflight + after:
            by_request[(fut.worker_id, fut.request_id)] = (w, fut)
        checked = assert_batches_match_engine(
            pool, {1: e1, 2: e2}, by_request)
        assert checked == 8
        # both versions actually served traffic, and v1 != v2 numerically
        versions = {fut.engine_version for _, fut in inflight + after}
        assert versions == {1, 2}
        r1 = e1.forecast_batch([after[0][0]])[0]
        r2 = e2.forecast_batch([after[0][0]])[0]
        assert not np.array_equal(r1.fields.zeta, r2.fields.zeta)
        pool.close()

    def test_deploy_events_and_metrics_survive_worker_turnover(
            self, engine_pair):
        e1, e2 = engine_pair
        with manual_pool(e1) as pool:
            pool.forecast_batch([make_window(s) for s in range(4)])
            served_before = pool.metrics.n_requests
            pool.deploy(e2)
            # every original replica was retired, yet history remains
            assert pool.metrics.n_requests == served_before == 4
            assert {w.version for w in pool.workers} == {2}
            kinds = [e.kind for e in pool.events]
            assert kinds[0] == "deploy-begin" and kinds[-1] == "deploy-done"
            assert kinds.count("deploy-surge") == 2
            assert kinds.count("deploy-drain") == 2
            summary = pool.metrics.summary()
            assert summary["engine_version"] == 2
            assert summary["deploys"] == 1
            assert summary["workers"] == 2
            assert pool.metrics.requests_by_version() == {1: 4, 2: 0}

    def test_zero_shed_during_manual_deploy(self, engine_pair):
        e1, e2 = engine_pair
        with manual_pool(e1, max_queue=2) as pool:
            for s in range(4):              # both replicas at their bound
                pool.submit(make_window(s))
            pool.deploy(e2)
            assert pool.shed_requests == 0

    def test_warmup_failure_rolls_back_untouched(self, engine_pair):
        e1, _ = engine_pair

        class BrokenEngine:
            time_steps = e1.time_steps

            def forecast_batch(self, refs):
                raise AssertionError("must never serve")

            def compile(self, batch):
                raise RuntimeError("bad weights: warmup exploded")

        with manual_pool(e1) as pool:
            before_ids = [w.worker_id for w in pool.workers]
            with pytest.raises(DeploymentError, match="warmup"):
                pool.deploy(BrokenEngine())
            # nothing serving-visible changed
            assert [w.worker_id for w in pool.workers] == before_ids
            assert pool.current_version == 1
            assert sorted(pool.versions) == [1]
            res = pool.forecast(make_window(0))
            direct = e1.forecast_batch([make_window(0)])[0]
            assert_windows_equal(res.fields, direct.fields)

    def test_deploy_always_warms_outgoing_sizes_plus_bucket_set(
            self, engine_pair):
        """No switch decides whether a deploy warms: any engine that
        can ``compile`` gets the sizes the outgoing engines held plus
        the whole ``max_batch`` bucket set, before it takes traffic —
        on a pool that never asked for ``warm_plans`` too."""
        e1, _ = engine_pair
        e1.compile(3)

        class Recording:
            time_steps = e1.time_steps

            def __init__(self):
                self.compiled = []

            def forecast_batch(self, refs):
                return e1.forecast_batch(refs)

            def compile(self, batch):
                self.compiled.append(batch)

        try:
            with manual_pool(e1, max_batch=4, warm_plans=False) as pool:
                new = Recording()
                surged_cold = []
                real_add = pool.add_worker

                def add_worker(*args, **kwargs):
                    surged_cold.append(not new.compiled)
                    return real_add(*args, **kwargs)

                pool.add_worker = add_worker
                pool.deploy(new)
                # plan_buckets(4) ∪ {3}, all before the first surge
                assert new.compiled == [1, 2, 3, 4]
                assert surged_cold == [False, False]
        finally:
            e1.clear_plans()

    def test_midroll_failure_rolls_back_to_old_version(self, engine_pair,
                                                       monkeypatch):
        e1, e2 = engine_pair
        with manual_pool(e1) as pool:
            pool.forecast_batch([make_window(s) for s in range(3)])
            real_add = pool.add_worker
            calls = {"n": 0}

            def flaky_add(*args, **kwargs):
                if kwargs.get("kind") == "deploy-surge":
                    calls["n"] += 1
                    if calls["n"] == 2:
                        raise RuntimeError("replica spawn failed")
                return real_add(*args, **kwargs)

            monkeypatch.setattr(pool, "add_worker", flaky_add)
            with pytest.raises(DeploymentError, match="rolled back"):
                pool.deploy(e2)
            assert pool.current_version == 1
            assert sorted(pool.versions) == [1]
            live = [w for w in pool.workers if not w.draining]
            assert len(live) == 2
            assert {w.version for w in live} == {1}
            assert any(e.kind == "deploy-rollback" for e in pool.events)
            # and the pool still serves version-1 numbers
            res = pool.forecast(make_window(11))
            direct = e1.forecast_batch([make_window(11)])[0]
            assert_windows_equal(res.fields, direct.fields)

    def test_deploy_rejects_mismatched_episode_length(self, engine_pair):
        e1, _ = engine_pair

        class WrongT:
            time_steps = e1.time_steps + 1

            def forecast_batch(self, refs):
                return []

        with manual_pool(e1) as pool:
            with pytest.raises(ValueError, match="time_steps"):
                pool.deploy(WrongT())
            assert pool.current_version == 1


class TestServerDeploy:
    def test_checkpoint_deploy_swaps_numbers_and_cache(
            self, engine_pair, tmp_path):
        e1, e2 = engine_pair
        path = tmp_path / "next.npz"
        save_checkpoint(path, e2.model)
        window = make_window(1)
        with ForecastServer(e1, max_batch=4, cache_bytes=1 << 22) as server:
            before = server.forecast(window)
            assert_windows_equal(before.fields,
                                 e1.forecast_batch([window])[0].fields)
            record = server.deploy(path)
            assert record.version == 2
            assert str(path) in record.source
            # the cache was invalidated: same request, new weights
            after = server.forecast(window)
            assert_windows_equal(after.fields,
                                 e2.forecast_batch([window])[0].fields)
            assert not np.array_equal(after.fields.zeta,
                                      before.fields.zeta)
            m = server.metrics()
            assert m["engine_version"] == 2 and m["deploys"] == 1

    def test_bad_checkpoint_leaves_server_serving(self, engine_pair,
                                                  tmp_path):
        e1, _ = engine_pair
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, **{"model/garbage": np.zeros(3)})
        with ForecastServer(e1, max_batch=4) as server:
            with pytest.raises(KeyError):
                server.deploy(path)
            assert server.pool.current_version == 1
            window = make_window(2)
            assert_windows_equal(
                server.forecast(window).fields,
                e1.forecast_batch([window])[0].fields)

    def test_late_settle_of_old_version_cannot_repopulate_cache(
            self, engine_pair):
        """A request pinned to the outgoing version whose completion
        callback fires *after* deploy() invalidated the cache must not
        reinstate old-weights results as cache hits."""
        e1, e2 = engine_pair
        from repro.serve import window_key
        window = make_window(5)
        key = window_key(window)
        with ForecastServer(e1, max_batch=4, cache_bytes=1 << 22) as server:
            old_future = server.submit(window)    # admitted under v1
            old_future.result(timeout=30)
            server.deploy(e2)                     # invalidates the cache
            assert server.cache.get(key) is None
            # the late-settle interleaving: a v1 completion lands after
            # the deploy's clear()
            server._settle(key, old_future)
            assert server.cache.get(key) is None, \
                "stale version-1 result settled into the cleared cache"
            after = server.forecast(window)
            assert_windows_equal(after.fields,
                                 e2.forecast_batch([window])[0].fields)

    def test_load_model_like_restores_bitwise(self, engine_pair, tmp_path):
        e1, e2 = engine_pair
        path = tmp_path / "weights.npz"
        save_checkpoint(path, e2.model)
        clone = load_model_like(path, e1.model)
        assert clone is not e2.model
        for k, v in clone.state_dict().items():
            np.testing.assert_array_equal(v, e2.model.state_dict()[k])

    def test_no_request_loss_across_deploy_under_concurrent_load(
            self, engine_pair, tmp_path):
        """Acceptance: a threaded server under sustained load completes
        a deploy with zero shed and zero lost requests, and every
        response is bitwise-equal to its pinned version's direct
        ``forecast_batch`` output."""
        e1, e2 = engine_pair
        path = tmp_path / "v2.npz"
        save_checkpoint(path, e2.model)
        server = ForecastServer(e1, workers=2, max_batch=4, max_queue=512)
        tagged, lock = [], threading.Lock()
        deploy_started = threading.Event()

        def client(cid):
            for k in range(12):
                w = make_window(1000 + 100 * cid + k)
                fut = server.submit(w)
                with lock:
                    tagged.append((w, fut))
                if cid == 0 and k == 3:
                    deploy_started.set()

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(3)]
        for t in threads:
            t.start()
        deploy_started.wait(timeout=30)
        record = server.deploy(path)
        for t in threads:
            t.join()
        # a guaranteed post-deploy request so version 2 definitely serves
        w_last = make_window(9999)
        tagged.append((w_last, server.submit(w_last)))
        for _, fut in tagged:
            fut.result(timeout=60)
        assert record.version == 2
        assert server.pool.shed_requests == 0
        assert server.metrics()["failed_batches"] == 0
        by_request = {(fut.worker_id, fut.request_id): (w, fut)
                      for w, fut in tagged}
        assert len(by_request) == len(tagged)        # nothing lost
        # the deploy's with_model engine serves v2; compare against an
        # equivalent direct engine over the same weights
        v2_engine = server.pool.versions[2].engines[0]
        checked = assert_batches_match_engine(
            server.pool, {1: e1, 2: v2_engine}, by_request)
        assert checked == len(tagged)
        versions = {fut.engine_version for _, fut in tagged}
        assert versions == {1, 2}
        server.close()


class TestAutoScaler:
    def test_scripted_load_spike_grows_then_shrinks(self, engine_pair):
        """Acceptance: across a scripted spike the live worker count
        demonstrably grows and then shrinks, with every transition
        recorded."""
        e1, _ = engine_pair
        with manual_pool(e1, replicas=1, max_queue=4) as pool:
            scaler = AutoScaler(pool, min_workers=1, max_workers=3,
                                high_water=0.5, low_water=0.25,
                                scale_down_patience=2)
            history = [pool.n_workers]

            def spike(n):
                futures = []
                for s in range(n):
                    try:
                        futures.append(pool.submit(make_window(s)))
                    except Exception:
                        pass             # shed pressure is part of the script
                return futures

            # load spike: saturate the single replica → grow
            spike(4)
            history.append(scaler.tick())
            assert history[-1] == 2
            spike(8)
            history.append(scaler.tick())
            assert history[-1] == 3
            pool.flush()                 # spike over: drain everything
            # quiet windows: patience, then shrink one per tick
            for _ in range(6):
                history.append(scaler.tick())
            assert history[-1] == scaler.min_workers == 1
            assert max(history) == 3
            ups = [e for e in scaler.events if e.action == "up"]
            downs = [e for e in scaler.events if e.action == "down"]
            assert len(ups) == 2 and len(downs) == 2
            for e in downs:
                assert e.workers_after == e.workers_before - 1
            # the pool-side event log saw the same transitions
            kinds = [e.kind for e in pool.events]
            assert kinds.count("scale-up") == 2
            assert kinds.count("scale-down") == 2
            assert pool.metrics.summary()["scale_events"] == 4

    def test_scale_up_sheds_trigger_and_served_by_new_worker(
            self, engine_pair):
        e1, _ = engine_pair
        with manual_pool(e1, replicas=1, max_queue=2) as pool:
            scaler = AutoScaler(pool, min_workers=1, max_workers=2,
                                high_water=0.9, low_water=0.1)
            pool.submit(make_window(0))
            pool.submit(make_window(1))
            with pytest.raises(Exception):
                pool.submit(make_window(2))
            assert scaler.tick() == 2    # shed in window → grow
            assert scaler.events[-1].sample.shed == 1
            fut = pool.submit(make_window(3))
            pool.flush()
            direct = e1.forecast_batch([make_window(3)])[0]
            assert_windows_equal(fut.result(timeout=5).fields,
                                 direct.fields)

    def test_decide_is_pure_and_scriptable(self, engine_pair):
        e1, _ = engine_pair
        with manual_pool(e1, replicas=1) as pool:
            scaler = AutoScaler(pool, min_workers=1, max_workers=4,
                                high_water=0.5, low_water=0.1)

            def sample(workers, outstanding, shed=0, arrived=0,
                       seconds=1.0):
                return LoadSample(seconds=seconds, arrived=arrived,
                                  completed=0, shed=shed,
                                  outstanding=outstanding,
                                  workers=workers,
                                  queue_slots=workers * 32)
            # shed always grows, regardless of utilisation
            n, why = scaler.decide(sample(2, 0, shed=3))
            assert n == 3 and "shed" in why
            # high utilisation grows
            n, why = scaler.decide(sample(2, 40))
            assert n == 3 and "utilization" in why
            # clamped at max_workers
            n, _ = scaler.decide(sample(4, 128, shed=1))
            assert n == 4
            # low utilisation proposes shrink, clamped at min_workers
            n, _ = scaler.decide(sample(2, 0))
            assert n == 1
            n, _ = scaler.decide(sample(1, 0))
            assert n == 1
            # mid-band holds
            n, why = scaler.decide(sample(2, 20))
            assert n == 2 and why == "within band"

    def test_decide_uses_capacity_model_for_sizing(self, engine_pair):
        e1, _ = engine_pair
        replica = ServingCapacityModel(dispatch_seconds=0.0,
                                       per_request_seconds=0.01)
        model = PoolCapacityModel(replica, contention=0.0)   # X1 = 100
        with manual_pool(e1, replicas=1) as pool:
            scaler = AutoScaler(pool, min_workers=1, max_workers=8,
                                high_water=0.5, low_water=0.1,
                                target_utilization=0.5,
                                capacity_model=model)
            # 200 req/s at 50% target utilisation needs 400 req/s of
            # capacity → 4 replicas; the model sizes the jump directly
            s = LoadSample(seconds=1.0, arrived=200, completed=0,
                           shed=1, outstanding=0, workers=1,
                           queue_slots=32)
            n, why = scaler.decide(s)
            assert n == 4 and "model wants 4" in why
            # unreachable demand clamps to max_workers
            s = LoadSample(seconds=1.0, arrived=10_000, completed=0,
                           shed=1, outstanding=0, workers=1,
                           queue_slots=32)
            n, _ = scaler.decide(s)
            assert n == scaler.max_workers

    def test_patience_gates_scale_down(self, engine_pair):
        e1, _ = engine_pair
        with manual_pool(e1, replicas=2) as pool:
            scaler = AutoScaler(pool, min_workers=1, max_workers=2,
                                high_water=0.5, low_water=0.2,
                                scale_down_patience=3)
            assert scaler.tick() == 2    # quiet tick 1: hold
            assert scaler.tick() == 2    # quiet tick 2: hold
            assert scaler.tick() == 1    # quiet tick 3: shrink
            assert scaler.events[-1].action == "down"

    def test_threaded_autoscaler_on_server(self, engine_pair):
        """enable_autoscaling wires a background scaler that reacts to
        a real threaded load spike, then the server closes cleanly."""
        e1, _ = engine_pair
        with ForecastServer(e1, workers=1, max_batch=4, max_queue=4) as server:
            scaler = server.enable_autoscaling(
                min_workers=1, max_workers=3, high_water=0.25,
                low_water=0.05, scale_down_patience=1, interval=0.02)
            futures = []
            for s in range(48):
                while True:
                    try:
                        futures.append(server.submit(make_window(s)))
                        break
                    except Exception:
                        pass             # saturated: the spike is real
            for f in futures:
                f.result(timeout=60)
            assert any(e.action == "up" for e in scaler.events), \
                "a sustained saturating spike must trigger a scale-up"
            assert server.pool.metrics.n_requests == 48   # none lost
        assert scaler._thread is None    # closed with the server

    def test_validates_knobs(self, engine_pair):
        e1, _ = engine_pair
        with manual_pool(e1, replicas=1) as pool:
            for bad in (dict(min_workers=0),
                        dict(min_workers=3, max_workers=2),
                        dict(low_water=0.5, high_water=0.5),
                        dict(scale_down_patience=0),
                        dict(target_utilization=0.0)):
                with pytest.raises(ValueError):
                    AutoScaler(pool, **bad)


class TestPoolTopology:
    def test_add_and_remove_worker_keep_history(self, engine_pair):
        e1, _ = engine_pair
        with manual_pool(e1, replicas=1) as pool:
            pool.forecast_batch([make_window(s) for s in range(3)])
            w = pool.add_worker()
            assert pool.n_workers == 2 and w.version == 1
            pool.forecast_batch([make_window(s) for s in range(3, 6)])
            pool.remove_worker(w.worker_id)
            assert pool.n_workers == 1
            assert pool.metrics.n_requests == 6     # nothing forgotten
            assert w.worker_id in pool.metrics.requests_by_worker()

    def test_remove_worker_drains_backlog_on_old_worker(self, engine_pair):
        e1, _ = engine_pair
        with manual_pool(e1, replicas=2, max_queue=8) as pool:
            target = pool.workers[0]
            futures = [pool.submit(make_window(s)) for s in range(6)]
            victims = [f for f in futures
                       if f.worker_id == target.worker_id]
            assert victims                           # it got traffic
            pool.remove_worker(target.worker_id)
            for f in victims:                        # served, not dropped
                f.result(timeout=5)
            pool.flush()

    def test_cannot_remove_last_replica(self, engine_pair):
        e1, _ = engine_pair
        with manual_pool(e1, replicas=1) as pool:
            with pytest.raises(ValueError, match="last"):
                pool.remove_worker(pool.workers[0].worker_id)
            with pytest.raises(ValueError, match="no live worker"):
                pool.remove_worker(worker_id=999)

    def test_required_workers_capacity_model(self):
        replica = ServingCapacityModel(dispatch_seconds=0.004,
                                       per_request_seconds=0.001)
        model = PoolCapacityModel(replica, contention=0.0)   # X1 = 1000
        assert model.required_workers(1000.0, target_utilization=1.0) == 1
        assert model.required_workers(1000.0, target_utilization=0.5) == 2
        assert model.required_workers(9000.0, target_utilization=0.9,
                                      max_workers=4) is None
        with pytest.raises(ValueError, match="target_utilization"):
            model.required_workers(100.0, target_utilization=0.0)
