"""Every remote tier, one suite.

The process tier (shm codec, sentinel liveness) and the host tier
(frame codec, heartbeat liveness, over the ``sim`` or the ``socket``
fabric) drive one client exchange, ``RemoteWorker``: one call lock,
one ``seq``-matched await, one watchdog polling the channel between
calls.  Every behaviour the tiers share is written here once, over the
``remote_tier`` fixture (``process``, ``host-sim``, ``host-socket``):

- a worker is bitwise-equal to its engine, compiled and eager, and
  its transport is observable;
- a death is found during a call or while idle, fails the request in
  flight and every later one, and runs ``on_death`` exactly once with
  no lock held — so an owner may close the worker from it;
- a request timeout condemns the worker rather than return stale
  fields, and no watchdog thread outlives its worker;
- a pool over the tier replays every batch bitwise — across a live
  deploy, a rolled-back one and a replica's death.

A pool test runs one routing policy, the default least-outstanding:
routing sits above the executor, and ``test_serve_pool.py`` holds every
policy bitwise on the thread tier.  What only one tier's codec or
liveness source does is tested in that tier's module.
"""

import sys
import threading
import time
from contextlib import closing

import pytest

from repro.serve.pool import DeploymentError
from repro.serve import EngineWorkerPool
from repro.serve.remote import RemoteWorkerDied

from conftest import (
    assert_pool_batches_bitwise,
    assert_results_equal,
    assert_windows_equal,
    leftover_segments,
    map_submissions,
    second_model,
    segments_alive,
    wait_until,
)

# any resource_tracker or cleanup UserWarning raised during these tests
# is a failure, not noise
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def pool_owned_segments(pool):
    return [n for w in pool._all_workers()
            if w.executor is not None and w.executor is not w.engine
            for n in w.executor.segment_names()]


def remote_executors(pool):
    return [w.executor for w in pool._all_workers()
            if w.executor is not None and w.executor is not w.engine]


# ----------------------------------------------------------------------
# one worker
# ----------------------------------------------------------------------
def test_bitwise_equal_and_lifecycle(engine, windows, remote_tier):
    # the remote payload ships every plan on the engine, and the
    # session engine may carry buckets warmed by an earlier module:
    # the "no plan for batch 5" leg needs it bare
    engine = engine.with_model(engine.model)
    direct_eager = engine.forecast_batch(windows[:5])
    eager_b2 = engine.forecast_batch(windows[:2])
    engine.compile(2)
    direct_plan = engine.forecast_batch(windows[:2])
    with closing(remote_tier.worker(engine)) as worker:
        assert worker.time_steps == engine.time_steps
        # eager fallback (batch size without a plan): same numbers
        served = worker.forecast_batch(windows[:5])
        assert_results_equal(direct_eager, served)
        assert not served[0].compiled
        # compiled path: same numbers, flagged compiled
        served = worker.forecast_batch(windows[:2])
        assert_results_equal(direct_plan, served)
        assert_results_equal(eager_b2, served)
        assert served[0].compiled
        assert served[0].plan_batch == direct_plan[0].plan_batch
        # the transport is observable: bytes moved, overhead timed
        stats = worker.transport_stats()
        wait, moved = remote_tier.counters
        assert stats["backend"] == remote_tier.backend
        assert stats.get("fabric") == remote_tier.fabric
        assert stats["batches"] == 2
        assert stats[moved] > 0
        assert stats[wait] > 0
        assert stats["payload_bytes"] > 0
        assert stats["spawn_seconds"] > 0
        # segment_names() lists every segment the pair holds
        assert sorted(worker.segment_names()) \
            == sorted(leftover_segments(worker))
    assert not worker.alive
    # graceful close unlinks every segment of the pair
    assert leftover_segments(worker) == []


def test_needs_a_real_engine(remote_tier):
    class NotAnEngine:
        time_steps = 4

    with pytest.raises(TypeError, match="ForecastEngine-like"):
        remote_tier.worker(NotAnEngine())


def test_killed_remote_fails_inflight_not_hangs(engine, windows,
                                                remote_tier):
    """SIGKILL to a child, endpoint teardown for the sim rank: a
    request blocked on the dead remote fails with ``RemoteWorkerDied``,
    ``on_death`` fires exactly once, later requests fail fast, and the
    dead remote's segments are reclaimed."""
    deaths = []
    # a host worker also beats every 0.3 s, so a silent remote is found
    # by the heartbeat deadline too
    beat = {"heartbeat_s": 0.3} if remote_tier.backend == "host" else {}
    worker = remote_tier.worker(engine, on_death=deaths.append, **beat)
    failure = []

    def serve_until_death():
        try:
            while True:     # back to back: the kill lands mid-call
                worker.forecast_batch(windows[:2])
        except Exception as exc:  # noqa: BLE001 — checked below
            failure.append(exc)

    caller = threading.Thread(target=serve_until_death, daemon=True)
    try:
        caller.start()
        time.sleep(0.2)
        remote_tier.kill(worker)
        caller.join(30)
        assert not caller.is_alive(), "the blocked call hung"
        assert isinstance(failure[0], RemoteWorkerDied)
        assert not worker.alive
        # the watchdog may find the death first; allow the beat
        assert wait_until(lambda: bool(deaths))
        assert deaths == [worker]
        # every later request fails fast, no transport attempt
        for _ in range(2):
            with pytest.raises(RemoteWorkerDied):
                worker.forecast_batch(windows[:2])
        assert deaths == [worker]
    finally:
        worker.close()
    assert leftover_segments(worker) == []


def test_request_timeout_never_returns_stale_fields(engine, windows,
                                                    remote_tier):
    """Regression: the child's late reply to a timed-out batch A used
    to be taken for the answer to the next batch B (no sequence
    numbers, one reused request segment) — silently wrong fields.  An
    expiry condemns the worker, so batch B fails fast instead of
    returning stale/mixed results."""
    deaths = []
    worker = remote_tier.worker(engine, request_timeout=1e-5,
                                on_death=deaths.append)
    try:
        with pytest.raises(RemoteWorkerDied, match="no response"):
            worker.forecast_batch(windows[:2])
        assert deaths == [worker] and not worker.alive
        with pytest.raises(RemoteWorkerDied):
            worker.forecast_batch(windows[2:4])
        assert deaths == [worker]
        names = worker.segment_names()
    finally:
        worker.close()
    assert segments_alive(names) == []


# ----------------------------------------------------------------------
# the one exchange: deaths, concurrency, the watchdog
# ----------------------------------------------------------------------
@pytest.mark.parametrize("found", ["call", "idle"])
def test_on_death_may_close_the_worker(engine, windows, remote_tier,
                                       found):
    deaths = []

    def close_on_death(worker):
        deaths.append(worker)
        worker.close()

    worker = remote_tier.worker(engine, on_death=close_on_death)
    try:
        watchdog = worker._watchdog
        if found == "call":
            # stop the watchdog, so the request is what finds the death
            worker._watch_stop.set()
            watchdog.join(10)
            remote_tier.kill(worker)
            failure = []

            def call():
                try:
                    worker.forecast_batch(windows[:2])
                except RemoteWorkerDied as exc:
                    failure.append(exc)

            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(30)
            assert not caller.is_alive(), "on_death deadlocked the caller"
            assert len(failure) == 1
        else:
            remote_tier.kill(worker)
            # the watchdog finds the death, runs on_death, and exits
            watchdog.join(30)
            assert not watchdog.is_alive(), "on_death deadlocked the watchdog"
        assert deaths == [worker]
        assert not worker.alive and worker._closed
        assert not watchdog.is_alive()
    finally:
        worker.close()


def test_concurrent_callers_and_the_watchdog_share_one_exchange(
        engine, windows, remote_tier):
    """More callers than cores drive one worker while its watchdog
    polls, with a short switch interval: every reply reaches the
    request that asked for it (bitwise), and no batch count is lost."""
    direct = {i: engine.forecast_batch(windows[i:i + 2]) for i in range(4)}
    errors = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with closing(remote_tier.worker(engine)) as worker:
            def caller(i):
                try:
                    for _ in range(8):
                        got = worker.forecast_batch(windows[i:i + 2])
                        for g, d in zip(got, direct[i]):
                            assert_windows_equal(g.fields, d.fields)
                except Exception as exc:  # noqa: BLE001 — checked below
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(i,), daemon=True)
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert worker.alive
            assert worker.transport_stats()["batches"] == 4 * 8
    finally:
        sys.setswitchinterval(previous)


def test_no_watchdog_outlives_close(engine, windows, remote_tier):
    with closing(remote_tier.worker(engine)) as worker:
        watchdog = worker._watchdog
        assert watchdog.is_alive()
        for got, want in zip(worker.forecast_batch(windows[:2]),
                             engine.forecast_batch(windows[:2])):
            assert_windows_equal(got.fields, want.fields)
    assert not watchdog.is_alive()


# ----------------------------------------------------------------------
# a pool over the tier: bitwise, hot swap, rollback, death
# ----------------------------------------------------------------------
def test_pool_bitwise(engine, windows, remote_tier):
    with closing(EngineWorkerPool(engine, replicas=2, max_batch=2,
                                  autostart=False,
                                  **remote_tier.pool_kwargs)) as pool:
        placed = map_submissions(pool, windows)
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
        summary = pool.metrics.summary()
        wait, moved = remote_tier.counters
        assert summary["requests"] == len(windows)
        assert summary[moved] > 0
        assert summary[wait] > 0
        assert summary["spawn_seconds_mean"] > 0
        # one entry per replica: remote replicas don't share a cache
        stats = pool.plan_stats()
        assert len(stats) == 2
        for per_worker in stats.values():
            assert per_worker["transport"]["backend"] == remote_tier.backend
            assert per_worker["transport"][moved] > 0


def test_pool_deploy_hot_swap_bitwise(engine, windows, remote_tier):
    engine_v2 = engine.with_model(second_model(engine))
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            **remote_tier.pool_kwargs)
    try:
        old_segments = pool_owned_segments(pool)
        placed = map_submissions(pool, windows[:4])
        # the deploy drains these four admitted-but-unserved requests
        # on the version that admitted them, while surged v2 replicas
        # take over the routable set
        pool.deploy(engine_v2, source="hot-swap")
        placed += map_submissions(pool, windows[4:8])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed,
                                    {1: engine, 2: engine_v2})
        assert {f.engine_version for f, _ in placed} == {1, 2}
        # the drained v1 replicas' segments are gone
        assert segments_alive(old_segments) == []
    finally:
        pool.close()
    assert not any(e.alive for e in remote_executors(pool))
    assert segments_alive(pool_owned_segments(pool)) == []


def test_pool_deploy_rollback(engine, windows, remote_tier, monkeypatch):
    """A surge that fails mid-deploy rolls back to the admitting
    version with the full replica set serving, and leaks nothing: not
    the surged-then-retired v2 replica, not the drained v1 one, not
    the rollback replacement."""
    engine_v2 = engine.with_model(second_model(engine))
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            **remote_tier.pool_kwargs)
    try:
        make_worker = pool._make_worker
        calls = {"n": 0}

        def flaky(engine_, version):
            # the roll's second surge blows up → deploy must roll back
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("surge failed")
            return make_worker(engine_, version)

        monkeypatch.setattr(pool, "_make_worker", flaky)
        with pytest.raises(DeploymentError):
            pool.deploy(engine_v2, source="doomed")
        monkeypatch.setattr(pool, "_make_worker", make_worker)
        # rolled back: version 1, two admissible replicas, still serving
        assert pool.current_version == 1
        assert sum(not w.draining for w in pool.workers) == 2
        placed = map_submissions(pool, windows[:4])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
    finally:
        pool.close()
    assert not any(e.alive for e in remote_executors(pool))
    assert segments_alive(pool_owned_segments(pool)) == []


def test_pool_death_fails_batch_and_retires_worker(engine, windows,
                                                   remote_tier):
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            **remote_tier.pool_kwargs)
    try:
        victim = pool.workers[0]
        victim_segments = victim.executor.segment_names()
        futures = [pool.submit(w) for w in windows[:2]]
        victim_futs = [f for f in futures
                       if f.worker_id == victim.worker_id]
        assert victim_futs, "the first request goes to worker 0"
        remote_tier.kill(victim.executor)
        pool.flush()
        # the in-flight batch failed — explicitly, not by hanging
        for fut in victim_futs:
            with pytest.raises(RemoteWorkerDied):
                fut.result(timeout=30)
        # the pool retires the dead replica (async helper thread)
        assert wait_until(lambda: len(pool.workers) == 1)
        kinds = [e.kind for e in pool.events]
        assert "worker-death" in kinds and "worker-retired" in kinds
        assert segments_alive(victim_segments) == []
        # the survivor keeps serving, bitwise
        placed = map_submissions(pool, windows[4:8])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
    finally:
        pool.close()
