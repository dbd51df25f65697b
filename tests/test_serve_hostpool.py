"""Host execution tier: equivalence, pipelining, failure model.

The host backend must be invisible from above, exactly like the
process tier: bitwise-equal results for every routing policy and
across a live deploy, on BOTH fabrics (the deterministic sim fabric
and the real TCP-loopback wire).  Its perf claim — pipelined framing —
must be observable (``inflight_depth`` ≥ 2 with results still
bitwise), and its failure model explicit: a killed remote fails every
in-flight handle with a :class:`ProcessWorkerDied` subclass and the
pool retires the replica; corrupt frames mark the worker dead rather
than hanging the reaper.
"""

import time

import pytest

from repro.serve import (
    DeploymentError,
    EngineWorkerPool,
    HostWorker,
    HostWorkerDied,
    HostWorkerError,
    ProcessWorkerDied,
)
from repro.tensor import plan_buckets

from conftest import assert_windows_equal     # noqa: F401 — shared helper
from test_serve_procpool import (             # noqa: F401 — shared idiom
    assert_pool_batches_bitwise,
    assert_results_equal,
    map_submissions,
    second_model,
)

# any cleanup/resource warning during these tests is a failure
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

FABRICS = ["sim", "socket"]


def wait_until(predicate, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


# ----------------------------------------------------------------------
# single worker: transport equivalence + pipelining
# ----------------------------------------------------------------------
class TestHostWorker:
    @pytest.mark.parametrize("fabric", FABRICS)
    def test_bitwise_equal_and_lifecycle(self, engine, windows, fabric):
        # the remote payload ships every plan on the engine, and the
        # session engine may carry buckets warmed by an earlier module:
        # the "no plan for batch 5" leg needs it bare
        engine.clear_plans()
        direct_eager = engine.forecast_batch(windows[:5])
        with HostWorker(engine, fabric=fabric,
                        warm_batches=(2,)) as worker:
            assert worker.time_steps == engine.time_steps
            assert 2 in worker.compiled_batches
            # warm-up compiled batch 2 locally too: same plan both sides
            direct_plan = engine.forecast_batch(windows[:2])
            # eager fallback on the remote: same numbers
            served = worker.forecast_batch(windows[:5])
            assert_results_equal(direct_eager, served)
            assert not served[0].compiled
            # compiled path: same numbers, flagged compiled
            served = worker.forecast_batch(windows[:2])
            assert_results_equal(direct_plan, served)
            assert served[0].compiled
            assert served[0].plan_batch == direct_plan[0].plan_batch
            # the wire is observable: frames counted, overhead timed
            stats = worker.transport_stats()
            assert stats["backend"] == "host"
            assert stats["fabric"] == fabric
            assert stats["batches"] == 2
            assert stats["frame_bytes"] > 0
            assert stats["net_wait_s"] >= 0
            assert stats["payload_bytes"] > 0
            assert stats["spawn_seconds"] > 0
            # no shared memory anywhere in this tier
            assert worker.segment_names() == []
        assert not worker.alive

    def test_sim_fabric_accounts_wire_bytes(self, engine, windows):
        """Sim-fabric wire totals flow through the shared SimComm —
        the same accounting the halo-exchange tests rely on."""
        with HostWorker(engine, fabric="sim") as worker:
            worker.forecast_batch(windows[:2])
            assert worker.comm.bytes_sent > 0
            # both directions of the rank 0 ↔ 1 pair moved frames
            assert worker.comm.per_pair[(0, 1)] > 0
            assert worker.comm.per_pair[(1, 0)] > 0

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_pipelined_submits_overlap_and_stay_bitwise(
            self, engine, windows, fabric):
        """The pipelining claim: several batches in flight on one
        connection (depth ≥ 2 actually reached), every result still
        bitwise and matched to the right request."""
        with HostWorker(engine, fabric=fabric,
                        warm_batches=(2,)) as worker:
            batches = [windows[i:i + 2] for i in range(8)]
            handles = [worker.submit_batch(b) for b in batches]
            for batch, handle in zip(batches, handles):
                assert_results_equal(engine.forecast_batch(batch),
                                     handle.result(timeout=120))
            stats = worker.transport_stats()
            assert stats["inflight_depth"] >= 2, \
                "pipelining never overlapped two batches"
            assert stats["batches"] == len(batches)

    def test_empty_batch_short_circuits(self, engine):
        with HostWorker(engine, fabric="sim") as worker:
            handle = worker.submit_batch([])
            assert handle.done() and handle.result(timeout=0) == []
            assert worker.transport_stats()["batches"] == 0

    def test_remote_compile_rpc(self, engine, windows):
        with HostWorker(engine, fabric="sim") as worker:
            worker.compile(3)
            assert 3 in worker.compiled_batches
            served = worker.forecast_batch(windows[:3])
            assert served[0].compiled
            assert_results_equal(engine.forecast_batch(windows[:3]),
                                 served)
            stats = worker.plan_stats()
            assert 3 in stats["batches"]
            assert stats["transport"]["backend"] == "host"

    def test_needs_a_real_engine(self):
        class NotAnEngine:
            time_steps = 4

        with pytest.raises(TypeError, match="ForecastEngine-like"):
            HostWorker(NotAnEngine(), fabric="sim")

    def test_unknown_fabric_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown fabric"):
            HostWorker(engine, fabric="carrier-pigeon")

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_killed_remote_fails_inflight_not_hangs(self, engine,
                                                    windows, fabric):
        """The mirrored fault: SIGKILL to the socket child, endpoint
        teardown for the sim rank — in-flight handles must fail with a
        ProcessWorkerDied subclass, on_death fires exactly once, and
        subsequent requests fail fast."""
        deaths = []
        worker = HostWorker(engine, fabric=fabric, heartbeat_s=0.3,
                            on_death=deaths.append)
        try:
            handles = [worker.submit_batch(windows[i:i + 2])
                       for i in range(3)]
            worker.kill()
            for handle in handles:
                with pytest.raises(ProcessWorkerDied):
                    handle.result(timeout=30)
            assert wait_until(lambda: not worker.alive)
            # on_death fires after the handles fail; allow the beat
            assert wait_until(lambda: bool(deaths))
            assert deaths == [worker]
            # every later request fails fast, no transport attempt
            with pytest.raises(HostWorkerDied):
                worker.forecast_batch(windows[:2])
            assert deaths == [worker]
        finally:
            worker.close()

    def test_corrupt_frame_marks_worker_dead(self, engine, windows):
        """Garbage injected into the client's receive stream (the sim
        remote's send side) must kill the worker explicitly — corrupt
        framing is unrecoverable, never a hang."""
        worker = HostWorker(engine, fabric="sim", heartbeat_s=0.0)
        try:
            worker._remote_ep.send_frame(b"GARBAGE-NOT-A-FRAME")
            assert wait_until(lambda: not worker.alive, timeout=10.0)
            with pytest.raises(HostWorkerDied, match="corrupt frame"):
                worker.forecast_batch(windows[:1])
        finally:
            worker.close()

    def test_remote_request_error_keeps_worker_alive(self, engine):
        """A bad request fails its own handle with the remote
        traceback; the worker keeps serving."""
        from conftest import make_window
        with HostWorker(engine, fabric="sim") as worker:
            bad = [make_window(0, t=2)]   # wrong T: remote raises
            with pytest.raises(HostWorkerError):
                worker.forecast_batch(bad)
            assert worker.alive
            # and a good batch still serves
            assert worker.forecast_batch([make_window(1)])

    def test_heartbeat_deadline_detects_silent_death(self, engine):
        """With heartbeats on, a remote that stops talking (without a
        clean close) is declared dead by deadline."""
        worker = HostWorker(engine, fabric="sim", heartbeat_s=0.1)
        try:
            # a silent partition: the remote's frames stop arriving
            # (dropped on the floor), without a clean close
            worker._remote_ep.send_frame = lambda data: None
            assert wait_until(lambda: not worker.alive, timeout=10.0)
            assert "no heartbeat" in worker._death_reason
        finally:
            worker.close()


# ----------------------------------------------------------------------
# pool integration: every policy, hot swap, rollback, death
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("router", ["round-robin", "least-outstanding",
                                    "key-affinity"])
def test_pool_host_backend_bitwise(engine, windows, router, fabric):
    with EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                          backend="host", fabric=fabric,
                          router=router) as pool:
        keys = [f"scenario-{i % 3}" for i in range(len(windows))]
        placed = map_submissions(pool, windows, keys)
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
        summary = pool.metrics.summary()
        assert summary["requests"] == len(windows)
        assert summary["frame_bytes"] > 0
        assert summary["net_wait_s"] >= 0
        assert summary["spawn_seconds_mean"] > 0


@pytest.mark.parametrize("fabric", FABRICS)
def test_pool_host_deploy_hot_swap_bitwise(engine, windows, fabric):
    engine_v2 = engine.with_model(second_model(engine))
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            backend="host", fabric=fabric,
                            router="round-robin")
    try:
        placed = map_submissions(pool, windows[:4])
        pool.deploy(engine_v2, source="hot-swap")
        placed += map_submissions(pool, windows[4:8])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed,
                                    {1: engine, 2: engine_v2})
        assert {f.engine_version for f, _ in placed} == {1, 2}
    finally:
        pool.close()
    assert all(not w.executor.alive for w in pool._all_workers()
               if w.executor is not None and w.executor is not w.engine)


@pytest.mark.parametrize("fabric", FABRICS)
def test_pool_host_deploy_rollback(engine, windows, fabric,
                                   monkeypatch):
    """A surge that dies mid-deploy rolls back to the admitting
    version with the full replica set serving — on either fabric."""
    engine_v2 = engine.with_model(second_model(engine))
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            backend="host", fabric=fabric,
                            router="round-robin")
    try:
        make_worker = pool._make_worker
        calls = {"n": 0}

        def flaky(engine_, version):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("surge failed")
            return make_worker(engine_, version)

        monkeypatch.setattr(pool, "_make_worker", flaky)
        with pytest.raises(DeploymentError):
            pool.deploy(engine_v2, source="doomed")
        monkeypatch.setattr(pool, "_make_worker", make_worker)
        assert pool.current_version == 1
        assert sum(not w.draining for w in pool.workers) == 2
        placed = map_submissions(pool, windows[:4])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
    finally:
        pool.close()


@pytest.mark.parametrize("fabric", FABRICS)
def test_pool_host_death_fails_batch_and_retires_worker(
        engine, windows, fabric):
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            backend="host", fabric=fabric,
                            router="round-robin")
    try:
        victim = pool.workers[0]
        futures = [pool.submit(w) for w in windows[:2]]
        victim_futs = [f for f in futures
                       if f.worker_id == victim.worker_id]
        assert victim_futs, "round-robin should hit worker 0"
        victim.executor.kill()
        pool.flush()
        for fut in victim_futs:
            with pytest.raises(ProcessWorkerDied):
                fut.result(timeout=30)
        assert wait_until(lambda: len(pool.workers) == 1)
        kinds = [e.kind for e in pool.events]
        assert "worker-death" in kinds and "worker-retired" in kinds
        # the survivor keeps serving, bitwise
        placed = map_submissions(pool, windows[4:8])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
    finally:
        pool.close()


def test_pool_host_warm_plans_ship_at_spawn(engine, windows):
    with EngineWorkerPool(engine, replicas=1, max_batch=4, autostart=False,
                          backend="host", fabric="sim",
                          warm_plans=True) as pool:
        worker = pool.workers[0].executor
        assert set(plan_buckets(4)) <= set(worker.compiled_batches)
        futs = [pool.submit(w) for w in windows[:3]]
        pool.flush()
        results = [f.result(timeout=30) for f in futs]
        assert all(r.compiled for r in results)


def test_pool_rejects_unknown_fabric(engine):
    with pytest.raises(ValueError, match="fabric"):
        EngineWorkerPool(engine, replicas=1, backend="host",
                         fabric="telegraph")
