"""Process execution tier: equivalence, failure model, shm lifecycle.

The process backend must be invisible from above: results bitwise-equal
to the direct engine call for every routing policy (including across a
live deploy), child death surfacing as failed futures plus worker
retirement (never a hang), and every shared-memory segment unlinked on
retirement, rollback, and abnormal death.  Children cost ~1s each to
spawn on this host, so tests share engines and keep pools narrow.
"""

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.serve import (
    DeploymentError,
    EngineWorkerPool,
    ProcessWorker,
    ProcessWorkerDied,
    ProcessWorkerError,
)
from repro.serve.autoscale import AutoScaler
from repro.serve.scheduler import MicroBatchScheduler
from repro.tensor import plan as plan_mod
from repro.tensor.plan import (
    ExecutionPlan,
    PlanExecutor,
    TraceError,
    trace,
)

from conftest import assert_windows_equal, segments_alive

# the satellite leak requirement: any resource_tracker or cleanup
# UserWarning raised during these tests is a failure, not noise
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def assert_results_equal(a, b):
    for ra, rb in zip(a, b):
        assert_windows_equal(ra.fields, rb.fields)


def leftover_segments(worker):
    """Everything of this worker pair still in /dev/shm, by its token
    prefix — so a segment the pair no longer names (the ``-arena`` one
    a child used to create for its plan intermediates) is still seen."""
    return [n for n in os.listdir("/dev/shm")
            if n.startswith(worker._token)]


def second_model(engine):
    """A same-shape model with different weights (fresh init seed)."""
    return type(engine.model)(replace(engine.model.config, seed=99))


# ----------------------------------------------------------------------
# shm codec
# ----------------------------------------------------------------------
def test_shm_channel_hangs_up_on_a_descriptor_that_overruns_its_segment():
    """The shm codec reads descriptors through the frame codec's
    ``view``: one that does not fit its segment ends the channel
    instead of yielding a garbage array."""
    import secrets
    from multiprocessing import Pipe

    from repro.serve.procpool import _ShmChannel

    token = f"repro-test-{secrets.token_hex(4)}"
    conn_a, conn_b = Pipe()
    a = _ShmChannel(conn_a, token, "q", "r")
    b = _ShmChannel(conn_b, token, "r", "q")
    try:
        x = np.arange(32, dtype=np.float32).reshape(4, 8)
        a.send("batch", 1, {"n": 1}, [x])
        op, seq, meta, (got,) = b.recv()
        assert (op, seq, meta) == ("batch", 1, {"n": 1})
        assert np.array_equal(got, x)
        del got
        conn_a.send(("batch", 2, {}, a.own.gen, [((1 << 20,), "<f4", 0)]))
        assert b.recv() is None
    finally:
        names = [a.own.name]
        a.close()
        b.close()
    assert segments_alive(names) == []


# ----------------------------------------------------------------------
# plan serialisation (the layer the transport is built on)
# ----------------------------------------------------------------------
class TestPlanPickle:
    def test_roundtrip_replays_bitwise(self, engine):
        plan = engine.compile(2).plan
        clone = ExecutionPlan.from_bytes(plan.to_bytes())
        assert clone.n_steps == plan.n_steps
        assert clone.arena_total == plan.arena_total
        assert [s.name for s in clone.steps] == [s.name for s in plan.steps]
        r = np.random.default_rng(7)
        args = tuple(r.normal(size=s).astype(np.float32)
                     for s in engine._input_shapes(2))
        out_a = PlanExecutor(plan).run(args)
        out_b = PlanExecutor(clone).run(args)
        for x, y in zip(out_a, out_b):
            np.testing.assert_array_equal(x, y)

    def test_roundtrip_excludes_live_buffers(self, engine):
        plan = engine.compile(2).plan
        # the blob ships the description and baked constants, never the
        # arena: its size is bounded by constants + step metadata, well
        # under what including the buffers would cost
        assert len(plan.to_bytes()) < plan.const_bytes() \
            + plan.arena_bytes() // 2

    def test_unknown_kernel_rejected(self):
        plan, _ = trace(lambda a: a + a, (np.ones((2, 2), np.float32),))
        state = plan.__getstate__()
        state["steps"] = [("no-such-kernel",) + s[1:]
                         for s in state["steps"]]
        fresh = ExecutionPlan.__new__(ExecutionPlan)
        with pytest.raises(Exception, match="not registered"):
            fresh.__setstate__(state)

    def test_step_record_of_another_arity_rejected(self):
        """Plans only travel parent → child at spawn, same code on both
        ends: a record that is not this version's 5-tuple — here the
        6-tuple that carried a scratch-slot field — is refused by name,
        not unpacked into the wrong fields."""
        plan, _ = trace(lambda a: a + a, (np.ones((2, 2), np.float32),))
        state = plan.__getstate__()
        assert all(len(rec) == 5 for rec in state["steps"])
        state["steps"] = [rec + ((),) for rec in state["steps"]]
        fresh = ExecutionPlan.__new__(ExecutionPlan)
        with pytest.raises(TraceError, match="6 fields.*writes 5"):
            fresh.__setstate__(state)

    def test_failed_kernel_module_import_surfaces(self, monkeypatch):
        """A child whose kernel-registering import fails must report
        that error, not a misleading "kernel ... is not registered"."""
        plan, _ = trace(lambda a: a + a, (np.ones((2, 2), np.float32),))
        blob = plan.to_bytes()
        boom = ImportError("libopenblas.so.0: cannot open shared object")
        real = plan_mod.importlib.import_module

        def failing(name, *args):
            if name == "repro.nn.attention":
                raise boom
            return real(name, *args)

        monkeypatch.setattr(plan_mod.importlib, "import_module", failing)
        with pytest.raises(TraceError, match="libopenblas") as err:
            ExecutionPlan.from_bytes(blob)
        assert err.value.__cause__ is boom
        assert "repro.nn.attention" in str(err.value)


# ----------------------------------------------------------------------
# single worker: transport equivalence
# ----------------------------------------------------------------------
class TestProcessWorker:
    def test_bitwise_equal_and_lifecycle(self, engine, windows):
        # the remote payload ships every plan on the engine, and the
        # session engine may carry buckets warmed by an earlier module:
        # the "no plan for batch 5" leg needs it bare
        engine.clear_plans()
        direct_eager = engine.forecast_batch(windows[:5])
        direct_plan = engine.forecast_batch(windows[:2])
        with ProcessWorker(engine, warm_batches=(2,)) as worker:
            assert worker.time_steps == engine.time_steps
            assert 2 in worker.compiled_batches
            # eager fallback (batch size without a plan): same numbers
            served = worker.forecast_batch(windows[:5])
            assert_results_equal(direct_eager, served)
            assert not served[0].compiled
            # compiled path: same numbers, flagged compiled
            served = worker.forecast_batch(windows[:2])
            assert_results_equal(direct_plan, served)
            assert served[0].compiled
            # the transport is observable: bytes moved, overhead timed
            stats = worker.transport_stats()
            assert stats["batches"] == 2
            assert stats["marshal_bytes"] > 0
            assert stats["ipc_wait_s"] > 0
            assert stats["spawn_seconds"] > 0
            # the pair's segments are the two that carry data: request
            # and response generations, and segment_names() lists both
            token = worker._token
            names = worker.segment_names()
            assert sorted(names) == sorted(leftover_segments(worker)) \
                == [f"{token}-q0", f"{token}-r0"]
        # graceful close unlinks every segment of the pair
        assert leftover_segments(worker) == []

    def test_child_compile_rpc(self, engine, windows):
        with ProcessWorker(engine) as worker:
            assert worker.compiled_batches == engine.compiled_batches
            worker.compile(3)
            assert 3 in worker.compiled_batches
            served = worker.forecast_batch(windows[:3])
            assert served[0].compiled
            assert_results_equal(engine.forecast_batch(windows[:3]),
                                 served)
            stats = worker.plan_stats()
            assert 3 in stats["batches"]
            assert stats["transport"]["backend"] == "process"
            # the child replays out of ordinary heap: its stats are an
            # engine's (no arena block of shm_* / heap_allocations
            # counters) plus this side's transport
            assert set(stats) == set(engine.plan_stats()) | {"transport"}

    def test_needs_a_real_engine(self):
        class NotAnEngine:
            time_steps = 4

        with pytest.raises(TypeError, match="ForecastEngine-like"):
            ProcessWorker(NotAnEngine())

    def test_killed_child_raises_not_hangs(self, engine, windows):
        worker = ProcessWorker(engine)
        worker.forecast_batch(windows[:2])      # both segments now exist
        names = worker.segment_names()
        assert len(segments_alive(names)) == 2
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(ProcessWorkerDied):
            worker.forecast_batch(windows[:2])
        assert not worker.alive
        # every subsequent batch fails fast, no transport attempt
        with pytest.raises(ProcessWorkerDied):
            worker.forecast_batch(windows[:2])
        worker.close()
        # the dead child could not unlink its response segment; the
        # parent, which can enumerate its generations, did
        assert leftover_segments(worker) == []

    def test_death_callback_fires_once(self, engine, windows):
        deaths = []
        worker = ProcessWorker(engine, on_death=deaths.append)
        os.kill(worker.pid, signal.SIGKILL)
        for _ in range(2):
            with pytest.raises(ProcessWorkerDied):
                worker.forecast_batch(windows[:1])
        assert deaths == [worker]
        worker.close()

    def test_request_timeout_never_returns_stale_fields(self, engine,
                                                        windows):
        """Regression: the child's late reply to a timed-out batch A
        used to be taken for the answer to the next batch B (no
        sequence numbers, one reused request segment) — silently wrong
        fields.  After a timeout the worker must either be dead or
        serve B bitwise; it must never return stale/mixed results."""
        deaths = []
        worker = ProcessWorker(engine, request_timeout=1e-5,
                               on_death=deaths.append)
        try:
            with pytest.raises(ProcessWorkerError):
                worker.forecast_batch(windows[:2])
            if worker.alive:
                worker.request_timeout = None
                assert_results_equal(engine.forecast_batch(windows[2:4]),
                                     worker.forecast_batch(windows[2:4]))
            else:
                assert deaths == [worker]
                with pytest.raises(ProcessWorkerDied):
                    worker.forecast_batch(windows[2:4])
            names = worker.segment_names()
        finally:
            worker.close()
        assert segments_alive(names) == []

    def test_engine_rebuild_failure_reports_remote_traceback(
            self, engine, monkeypatch):
        """A child that cannot rebuild its engine answers the handshake
        with an ``err`` carrying its traceback — the parent sees why,
        not just an exit code."""
        from repro.serve import remote

        monkeypatch.setattr(remote, "engine_payload",
                            lambda *a, **k: b"not a pickle")
        with pytest.raises(ProcessWorkerError, match="UnpicklingError"):
            ProcessWorker(engine)


# ----------------------------------------------------------------------
# scheduler integration: shutdown ordering under a dead executor
# ----------------------------------------------------------------------
class TestSchedulerShutdown:
    def test_close_fails_backlog_of_dead_child(self, engine, windows):
        """Regression: a queued request must never hang when the
        process executor dies before its batch runs — close() fails it
        instead of abandoning it."""
        worker = ProcessWorker(engine)
        scheduler = MicroBatchScheduler(worker, max_batch=2,
                                        autostart=False)
        futures = [scheduler.submit(w) for w in windows[:4]]
        os.kill(worker.pid, signal.SIGKILL)
        t0 = time.perf_counter()
        scheduler.close()        # must drain-or-fail, not hang
        assert time.perf_counter() - t0 < 30
        for fut in futures:
            assert fut.done()
            with pytest.raises(ProcessWorkerDied):
                fut.result(timeout=0)
        assert scheduler.metrics.n_failed_batches == 2
        worker.close()


# ----------------------------------------------------------------------
# pool integration: every policy, hot swap, death, autoscaling
# ----------------------------------------------------------------------
def map_submissions(pool, wins, keys=None):
    """Submit windows; returns [(future, window)] for later audit."""
    out = []
    for i, w in enumerate(wins):
        fut = pool.submit(w, key=None if keys is None else keys[i])
        out.append((fut, w))
    return out


def assert_pool_batches_bitwise(pool, placed, engines_by_version):
    """Every realised micro-batch holding audited requests equals the
    direct forecast_batch of its admitting version's engine on its
    exact composition (batch composition matters: only the same
    composition is bitwise-comparable)."""
    by_placement = {(f.worker_id, f.request_id): (f, w)
                    for f, w in placed}
    checked = 0
    for worker in pool._all_workers():
        # a rolled-back version's worker served nothing auditable
        direct_engine = engines_by_version.get(worker.version)
        if direct_engine is None:
            continue
        for batch in worker.scheduler.metrics.batches:
            keys = [(worker.worker_id, rid) for rid in batch.request_ids]
            if batch.failed or any(k not in by_placement for k in keys):
                continue
            wins = [by_placement[k][1] for k in keys]
            direct = direct_engine.forecast_batch(wins)
            for k, d in zip(keys, direct):
                fut = by_placement[k][0]
                assert_windows_equal(fut.result(timeout=0).fields,
                                     d.fields)
                checked += 1
    assert checked == len(placed)


def pool_owned_segments(pool):
    return [n for w in pool._all_workers()
            if w.executor is not None and w.executor is not w.engine
            for n in w.executor.segment_names()]


@pytest.mark.parametrize("router", ["round-robin", "least-outstanding",
                                    "key-affinity"])
def test_pool_process_backend_bitwise(engine, windows, router):
    with EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                          backend="process", router=router) as pool:
        keys = [f"scenario-{i % 3}" for i in range(len(windows))]
        placed = map_submissions(pool, windows, keys)
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
        summary = pool.metrics.summary()
        assert summary["requests"] == len(windows)
        assert summary["marshal_bytes"] > 0
        assert summary["ipc_wait_s"] > 0
        assert summary["spawn_seconds_mean"] > 0


def test_pool_process_deploy_hot_swap_bitwise(engine, windows):
    engine_v2 = engine.with_model(second_model(engine))
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            backend="process", router="round-robin")
    try:
        old_segments = [n for w in pool.workers
                        for n in w.executor.segment_names()]
        placed = map_submissions(pool, windows[:4])
        # the deploy drains these four admitted-but-unserved requests
        # on the version that admitted them, while surged v2 children
        # take over the routable set
        pool.deploy(engine_v2, source="hot-swap")
        placed += map_submissions(pool, windows[4:8])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed,
                                    {1: engine, 2: engine_v2})
        assert {f.engine_version for f, _ in placed} == {1, 2}
        # the drained v1 replicas' children and segments are gone
        assert segments_alive(old_segments) == []
    finally:
        pool.close()
    assert segments_alive(pool_owned_segments(pool)) == []


def test_pool_deploy_rollback_unlinks_segments(engine, windows,
                                               monkeypatch):
    engine_v2 = engine.with_model(second_model(engine))
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            backend="process", router="round-robin")
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
    # nothing leaked: not the surged-then-retired v2 child, not the
    # drained v1 child, not the rollback replacement
    assert segments_alive(pool_owned_segments(pool)) == []


def test_pool_child_death_fails_batch_and_retires_worker(engine, windows):
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            backend="process", router="round-robin")
    try:
        victim = pool.workers[0]
        victim_segments = victim.executor.segment_names()
        futures = [pool.submit(w) for w in windows[:2]]
        victim_futs = [f for f in futures
                       if f.worker_id == victim.worker_id]
        assert victim_futs, "round-robin should hit worker 0"
        os.kill(victim.executor.pid, signal.SIGKILL)
        pool.flush()
        # the in-flight batch failed — explicitly, not by hanging
        for fut in victim_futs:
            with pytest.raises(ProcessWorkerDied):
                fut.result(timeout=30)
        # the pool retires the dead replica (async helper thread)
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            if len(pool.workers) == 1:
                break
            time.sleep(0.05)
        assert len(pool.workers) == 1
        kinds = [e.kind for e in pool.events]
        assert "worker-death" in kinds and "worker-retired" in kinds
        assert segments_alive(victim_segments) == []
        # the survivor keeps serving, bitwise
        placed = map_submissions(pool, windows[4:8])
        pool.flush()
        assert_pool_batches_bitwise(pool, placed, {1: engine})
    finally:
        pool.close()


def test_pool_plan_stats_per_process_worker(engine, windows):
    with EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                          backend="process") as pool:
        pool.forecast_batch(windows[:4])
        stats = pool.plan_stats()
        # one entry per worker: process replicas don't share a cache
        assert len(stats) == 2
        for per_worker in stats.values():
            assert per_worker["transport"]["backend"] == "process"
            assert per_worker["transport"]["marshal_bytes"] > 0


def test_autoscaler_spawn_cost_stretches_patience(engine):
    with EngineWorkerPool(engine, replicas=1, max_batch=2,
                          autostart=False) as pool:
        scaler = AutoScaler(pool, scale_down_patience=2, interval=0.25)
        # thread replicas are free to respawn: patience unchanged
        assert pool.mean_spawn_seconds == 0.0
        assert scaler.effective_patience() == 2
        # the pool's measured spawn cost stretches it: a 1s respawn
        # spans 4 ticks of 0.25s, patience 2 → 6
        pool._spawn_log.extend([0.8, 1.2])
        assert pool.mean_spawn_seconds == 1.0
        assert scaler.effective_patience() == 6
        pool._spawn_log[:] = [0.4, 0.6]
        assert scaler.effective_patience() == 2 + 2
