"""Process execution tier: the shm codec and sentinel liveness.

What the process tier shares with the host tier — bitwise equality,
the failure model, the pool over it — is tested once over the
``remote_tier`` fixture in ``test_serve_exchange.py``.  This module
holds what only this tier has: the shm descriptor codec and its
segment names and reclaim, the child's sentinel as liveness source, a
child that cannot rebuild its engine, and the plan pickling the spawn
payload is built on.
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.serve import EngineWorkerPool
from repro.serve.procpool import ProcessWorker
from repro.serve.remote import RemoteWorkerDied, RemoteWorkerError
from repro.serve.scheduler import MicroBatchScheduler
from repro.tensor import plan as plan_mod
from repro.tensor.plan import (
    ExecutionPlan,
    PlanExecutor,
    TraceError,
    trace,
)

from conftest import (
    assert_pool_batches_bitwise,
    leftover_segments,
    map_submissions,
    segments_alive,
)

# the satellite leak requirement: any resource_tracker or cleanup
# UserWarning raised during these tests is a failure, not noise
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


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
        clone = pickle.loads(pickle.dumps(plan))
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
        const_bytes = sum(a.nbytes for a in plan.const_arrays)
        assert len(pickle.dumps(plan)) < const_bytes \
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
        blob = pickle.dumps(plan)
        boom = ImportError("libopenblas.so.0: cannot open shared object")
        real = plan_mod.importlib.import_module

        def failing(name, *args):
            if name == "repro.nn.attention":
                raise boom
            return real(name, *args)

        monkeypatch.setattr(plan_mod.importlib, "import_module", failing)
        with pytest.raises(TraceError, match="libopenblas") as err:
            pickle.loads(blob)
        assert err.value.__cause__ is boom
        assert "repro.nn.attention" in str(err.value)


# ----------------------------------------------------------------------
# single worker: segments, sentinel, handshake
# ----------------------------------------------------------------------
class TestProcessWorker:
    def test_segment_names_and_reclaim(self, engine, windows):
        """A pair holds two segments — request and response generation
        0, no arena — and ``segment_names()`` lists both; after the
        child is killed, the parent unlinks the response segment the
        dead child could not."""
        worker = ProcessWorker(engine)
        try:
            worker.forecast_batch(windows[:2])  # both segments now exist
            token = worker._token
            names = worker.segment_names()
            assert sorted(names) == sorted(leftover_segments(worker)) \
                == [f"{token}-q0", f"{token}-r0"]
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(RemoteWorkerDied):
                worker.forecast_batch(windows[:2])
        finally:
            worker.close()
        assert leftover_segments(worker) == []

    def test_idle_child_death_is_found_without_a_request(self, engine):
        """The watchdog polls an idle worker's sentinel: a child killed
        between requests is condemned and reported within a few
        seconds, before anything is sent to it."""
        deaths = []
        worker = ProcessWorker(engine, on_death=deaths.append)
        try:
            os.kill(worker.pid, signal.SIGKILL)
            deadline = time.perf_counter() + 10
            while not deaths and time.perf_counter() < deadline:
                time.sleep(0.05)
            assert deaths == [worker]
            assert not worker.alive
            assert "exitcode" in worker.death_reason \
                or "EOF" in worker.death_reason
        finally:
            worker.close()

    def test_engine_rebuild_failure_reports_remote_traceback(
            self, engine, monkeypatch):
        """A child that cannot rebuild its engine answers the handshake
        with an ``err`` carrying its traceback — the parent sees why,
        not just an exit code."""
        from repro.serve import remote

        monkeypatch.setattr(remote, "engine_payload",
                            lambda *a, **k: b"not a pickle")
        with pytest.raises(RemoteWorkerError, match="UnpicklingError"):
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
            with pytest.raises(RemoteWorkerDied):
                fut.result(timeout=0)
        assert scheduler.metrics.n_failed_batches == 2
        worker.close()


# ----------------------------------------------------------------------
# pool integration: the sentinel finds an idle death
# ----------------------------------------------------------------------
def test_pool_retires_a_child_that_dies_idle(engine, windows):
    """A replica whose child dies between batches is retired before any
    request reaches it: everything submitted afterwards is served,
    bitwise, by the survivor, and no future fails."""
    pool = EngineWorkerPool(engine, replicas=2, max_batch=2, autostart=False,
                            backend="process")
    try:
        victim = pool.workers[0]
        victim_segments = victim.executor.segment_names()
        os.kill(victim.executor.pid, signal.SIGKILL)
        deadline = time.perf_counter() + 30
        while len(pool.workers) > 1 and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert len(pool.workers) == 1 and pool.workers[0] is not victim
        kinds = [e.kind for e in pool.events]
        assert "worker-death" in kinds and "worker-retired" in kinds
        assert segments_alive(victim_segments) == []
        placed = map_submissions(pool, windows[:6])
        pool.flush()
        assert all(f.exception(timeout=30) is None for f, _ in placed)
        assert_pool_batches_bitwise(pool, placed, {1: engine})
    finally:
        pool.close()
