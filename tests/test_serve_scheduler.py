"""Serving subsystem: equivalence, ordering, flush-policy properties.

The scheduler must be a pure routing layer: every request's result is
bitwise-identical to a direct ``ForecastEngine.forecast_batch`` call on
the micro-batch it landed in, request→result pairing survives arbitrary
arrival interleavings, and the work-conserving policy (a free executor
runs what is queued, up to ``max_batch``) fixes exactly which requests
share a batch.  These tests use an untrained tiny
surrogate on synthetic windows — inference is deterministic either way,
and nothing here depends on forecast quality.
"""

import gc
import math
import threading
import weakref
from contextlib import closing

import numpy as np
import pytest
from conftest import (  # noqa: F401 — shared serving fixtures
    D,
    H,
    T,
    assert_windows_equal,
    count_forwards,
    make_window,
)

from repro.serve import (EngineWorkerPool, ForecastCache, ForecastServer,
                         ServingCapacityModel)
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.cache import window_key
from repro.serve.scheduler import BatchRecord, ServedFuture
from repro.workflow import EnsembleForecaster, HybridWorkflow
from repro.workflow.engine import FieldWindow
from repro.workflow.sensitivity import GradientRequest


def assert_batches_bitwise(scheduler, engine, by_id):
    """Each realised micro-batch must equal the direct engine call on
    its exact composition — the core scheduling-is-pure property."""
    assert scheduler.metrics.batches, "no batches were executed"
    for batch in scheduler.metrics.batches:
        direct = engine.forecast_batch(
            [by_id[rid] for rid in batch.request_ids])
        for rid, d in zip(batch.request_ids, direct):
            assert_windows_equal(by_id[rid].served.fields, d.fields)


class _Tagged(FieldWindow):
    """FieldWindow that remembers the result served for it."""


def submit_tagged(scheduler, window):
    tagged = _Tagged(window.u3, window.v3, window.w3, window.zeta)
    tagged.future = scheduler.submit(tagged)
    return tagged


def resolve(tagged_windows, timeout=60.0):
    by_id = {}
    for t in tagged_windows:
        t.served = t.future.result(timeout=timeout)
        by_id[t.future.request_id] = t
    return by_id


class Gate:
    """Executor that holds its first ``forecast_batch`` at a gate, so a
    test decides what queues up behind a busy replica — the threaded
    policy made deterministic without a sleep."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def forecast_batch(self, references):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(60)
        return self.inner.forecast_batch(references)


def hold_first_batch(gate, scheduler, window):
    """Submit ``window`` and return once the worker is inside the gate
    with it — everything submitted from here on accumulates."""
    tagged = submit_tagged(scheduler, window)
    assert gate.entered.wait(60)
    return tagged


def wait_pending(scheduler, n, timeout=60.0):
    """Block on the scheduler's own condition until ``n`` requests are
    queued (for requests another thread submits)."""
    with scheduler._pending:
        assert scheduler._pending.wait_for(
            lambda: len(scheduler._queue) >= n, timeout)


class TestEquivalence:
    def test_manual_mode_bitwise_equal_direct(self, engine, windows):
        s = MicroBatchScheduler(engine, max_batch=3, autostart=False)
        futures = [s.submit(w) for w in windows[:5]]
        assert s.step() == 3 and s.step() == 2 and s.step() == 0
        direct = engine.forecast_batch(windows[:3]) \
            + engine.forecast_batch(windows[3:5])
        for fut, d in zip(futures, direct):
            assert_windows_equal(fut.result(timeout=1).fields, d.fields)
        assert [f.batch_size for f in futures] == [3, 3, 3, 2, 2]
        s.close()

    def test_threaded_full_batch_bitwise_equal_direct(self, engine,
                                                      windows):
        # forward-count tests need the eager path: the session engine
        # may arrive with plans compiled by earlier modules
        engine = engine.with_model(engine.model)
        gate = Gate(engine)
        with closing(MicroBatchScheduler(gate, max_batch=4)) as s:
            with count_forwards(engine.model) as calls:
                hold_first_batch(gate, s, windows[4])
                futures = [s.submit(w) for w in windows[:4]]
                gate.release.set()
                results = [f.result(timeout=60) for f in futures]
        assert calls["n"] == 2      # the held one + one coalesced forward
        direct = engine.forecast_batch(windows[:4])
        for r, d in zip(results, direct):
            assert_windows_equal(r.fields, d.fields)
        assert s.metrics.batches[1].trigger == "full"


class TestOrderingProperties:
    def test_arbitrary_manual_interleavings(self, engine, windows):
        """For ANY interleaving of submits and scheduling quanta, every
        request gets its own result and every realised batch is bitwise
        a direct engine call."""
        rng = np.random.default_rng(20260730)
        for trial in range(4):
            s = MicroBatchScheduler(engine, max_batch=3, autostart=False)
            pending = list(rng.permutation(10))
            tagged = []
            while pending or any(not t.future.done() for t in tagged):
                if pending and (rng.random() < 0.6 or not tagged):
                    seed = int(pending.pop())
                    tagged.append(submit_tagged(s, make_window(seed)))
                else:
                    s.step()
            by_id = resolve(tagged, timeout=1.0)
            # pairing: slot 0 is the exact IC of the submitted window
            for t in tagged:
                np.testing.assert_array_equal(t.served.fields.zeta[0],
                                              t.zeta[0])
            assert_batches_bitwise(s, engine, by_id)
            assert all(b.size <= 3 for b in s.metrics.batches)
            s.close()

    def test_concurrent_clients_threaded(self, engine):
        """3 client threads × 4 requests with jittered arrivals: all are
        answered, each with its own forecast, in engine-pure batches."""
        s = MicroBatchScheduler(engine, max_batch=3)
        tagged, lock = [], threading.Lock()
        rng = np.random.default_rng(7)
        delays = rng.uniform(0.0, 0.01, size=(3, 4))

        def client(cid):
            import time
            for k in range(4):
                time.sleep(delays[cid, k])
                t = submit_tagged(s, make_window(100 + 10 * cid + k))
                with lock:
                    tagged.append(t)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_id = resolve(tagged, timeout=60.0)
        s.close()

        assert len(by_id) == 12
        for t in tagged:
            np.testing.assert_array_equal(t.served.fields.zeta[0],
                                          t.zeta[0])
        assert sum(b.size for b in s.metrics.batches) == 12
        assert all(1 <= b.size <= 3 for b in s.metrics.batches)
        assert_batches_bitwise(s, engine, by_id)
        assert s.metrics.n_requests == 12


class TestServedFuture:
    """``ServedFuture`` is a ``concurrent.futures.Future`` plus request
    metadata; what the serving stack and its clients rely on beyond the
    stdlib contract is pinned here."""

    def test_timeout_is_the_builtin_and_names_the_request(self):
        future = ServedFuture(request_id=7)
        with pytest.raises(TimeoutError, match="request 7"):
            future.result(timeout=0)

    def test_a_stored_timeout_error_is_the_requests_own_failure(self):
        future = ServedFuture(request_id=7)
        future.set_exception(TimeoutError("engine gave up"))
        with pytest.raises(TimeoutError, match="engine gave up"):
            future.result(timeout=0)

    def test_callbacks_see_metadata_and_may_raise(self):
        future = ServedFuture(request_id=3)
        seen = []

        def boom(fut):
            raise RuntimeError("callback bug")

        future.add_done_callback(boom)
        future.add_done_callback(
            lambda fut: seen.append((fut.batch_size, fut.result(timeout=0),
                                     threading.get_ident())))
        future.batch_size = 2
        future.set_result("fields")
        assert seen == [(2, "fields", threading.get_ident())]
        future.add_done_callback(lambda fut: seen.append("late"))
        assert seen[-1] == "late"

    def test_an_admitted_request_cannot_be_cancelled(self):
        future = ServedFuture(request_id=0)
        assert not future.cancel() and not future.cancelled()
        future.set_result(1)
        assert future.result(timeout=0) == 1

    def test_completion_releases_the_callbacks(self):
        """A client record that holds its future and is closed over by
        the future's callback must not pin the result in a cycle (the
        e2e harness does exactly this)."""
        class Record:
            pass

        record = Record()
        record.future = ServedFuture(request_id=0)
        record.future.add_done_callback(lambda fut, r=record: None)
        alive = weakref.ref(record)
        gc.disable()
        try:
            record.future.set_result(np.zeros(8))
            del record
            assert alive() is None      # by refcount, no GC pass needed
        finally:
            gc.enable()


class TestFlushPolicy:
    @pytest.mark.parametrize("n,max_batch", [(10, 4), (8, 8), (5, 1)])
    def test_forward_count_is_ceil_n_over_max_batch(self, engine, n,
                                                    max_batch):
        engine = engine.with_model(engine.model)  # no plans ⇒ eager path
        s = MicroBatchScheduler(engine, max_batch=max_batch, autostart=False)
        futures = [s.submit(make_window(k)) for k in range(n)]
        with count_forwards(engine.model) as calls:
            assert s.flush() == n
        assert calls["n"] == math.ceil(n / max_batch)
        sizes = [b.size for b in s.metrics.batches]
        assert sum(sizes) == n and max(sizes) <= max_batch
        assert all(f.done() for f in futures)
        s.close()

    def test_idle_scheduler_serves_a_lone_request_now(self, engine,
                                                      windows):
        with closing(MicroBatchScheduler(engine, max_batch=8)) as s:
            futures = []
            for w in windows[:5]:
                futures.append(s.submit(w))
                futures[-1].result(timeout=60)
        assert [f.batch_size for f in futures] == [1] * 5
        assert [b.trigger for b in s.metrics.batches] == ["idle"] * 5
        # nothing waits for company: the queue stage is a thread wake-up
        assert np.median([f.queue_seconds for f in futures]) < 1e-3

    def test_batches_form_while_the_executor_is_busy(self, engine,
                                                     windows):
        gate = Gate(engine)
        with closing(MicroBatchScheduler(gate, max_batch=4)) as s:
            tagged = [hold_first_batch(gate, s, windows[0])]
            tagged += [submit_tagged(s, w) for w in windows[1:7]]
            gate.release.set()
            by_id = resolve(tagged)
        assert [(b.size, b.trigger) for b in s.metrics.batches] \
            == [(1, "idle"), (4, "full"), (2, "idle")]
        assert [b.request_ids for b in s.metrics.batches] \
            == [(0,), (1, 2, 3, 4), (5, 6)]
        assert_batches_bitwise(s, engine, by_id)

    def test_signature_change_still_ends_a_batch(self, engine, windows):
        gate = Gate(engine)
        with closing(MicroBatchScheduler(gate, max_batch=4)) as s:
            hold_first_batch(gate, s, windows[0])
            futures = [s.submit(windows[1]), s.submit(windows[2]),
                       s.submit_gradient(GradientRequest(windows[3])),
                       s.submit(windows[4])]
            gate.release.set()
            for f in futures:
                f.result(timeout=60)
        assert [(b.kind, b.size) for b in s.metrics.batches] \
            == [("forecast", 1), ("forecast", 2), ("gradient", 1),
                ("forecast", 1)]

    def test_close_serves_backlog(self, engine, windows):
        s = MicroBatchScheduler(engine, max_batch=4, autostart=False)
        futures = [s.submit(w) for w in windows[:2]]
        s.close()
        assert all(f.done() for f in futures)
        assert s.metrics.batches[-1].trigger == "close"
        with pytest.raises(RuntimeError, match="closed"):
            s.submit(windows[0])

    def test_submit_validates_length_and_mesh(self, engine, windows):
        s = MicroBatchScheduler(engine, max_batch=4, autostart=False)
        with pytest.raises(ValueError, match="time_steps"):
            s.submit(make_window(0, t=T + 1))
        s.submit(windows[0])
        with pytest.raises(ValueError, match="share one mesh"):
            s.submit(make_window(0, h=H - 1))
        # a wrong *volume* depth must also be rejected at submit (zeta
        # alone matches) so it cannot poison co-batched requests
        shallow = make_window(0, d=D - 1)
        with pytest.raises(ValueError, match="share one mesh"):
            s.submit(FieldWindow(shallow.u3, shallow.v3, shallow.w3,
                                 s._queue[0].window.zeta.copy()))
        assert s.flush() == 1               # the good request is unharmed
        s.close()

    def test_engine_failure_fails_futures_not_worker(self, engine,
                                                     windows):
        class Flaky:
            """Engine that fails its first forward, then recovers."""

            def __init__(self, inner):
                self.inner, self.failed = inner, False
                self.time_steps = inner.time_steps

            def forecast_batch(self, refs):
                if not self.failed:
                    self.failed = True
                    raise RuntimeError("transient backend failure")
                return self.inner.forecast_batch(refs)

        with closing(MicroBatchScheduler(Flaky(engine), max_batch=1)) as s:
            bad = s.submit(windows[0])
            with pytest.raises(RuntimeError, match="transient"):
                bad.result(timeout=60)
            good = s.submit(windows[1])       # worker must still serve
            ok = good.result(timeout=60)
        assert_windows_equal(ok.fields,
                             engine.forecast_batch([windows[1]])[0].fields)
        # the failed batch must be visible in the metrics, not vanish
        assert s.metrics.n_batches == 2
        assert s.metrics.n_failed_batches == 1
        assert s.metrics.batches[0].failed
        assert not s.metrics.batches[1].failed
        assert s.metrics.n_requests == 2
        assert s.metrics.summary()["failed_batches"] == 1


class DropsLast:
    """Executor whose every reply is one result short — what a remote
    sends when its ``meta["results"]`` is truncated."""

    def __init__(self, inner):
        self.inner = inner
        self.time_steps = inner.time_steps

    def forecast_batch(self, references):
        return self.inner.forecast_batch(references)[:-1]


class TestShortReply:
    """A reply with fewer results than the batch fails the whole batch:
    no future is left pending, and no admission slot leaks."""

    def test_manual_scheduler_fails_every_future(self, engine, windows):
        s = MicroBatchScheduler(DropsLast(engine), max_batch=4,
                                autostart=False)
        futures = [s.submit(w) for w in windows[:3]]
        assert s.step() == 3
        for f in futures:
            with pytest.raises(ValueError, match="2 results for a batch "
                                                 "of 3 requests"):
                f.result(timeout=10)
        assert [(b.size, b.failed) for b in s.metrics.batches] == [(3, True)]
        assert s.metrics.n_requests == 3
        s.close()

    def test_pool_replica_frees_its_slots(self, engine, windows):
        pool = EngineWorkerPool(DropsLast(engine), max_batch=4)
        futures = [pool.submit(w) for w in windows[:3]]
        for f in futures:
            with pytest.raises(ValueError, match=r"\d+ results for a batch "
                                                 r"of \d+ requests"):
                f.result(timeout=10)
        pool.close()                # joins the worker: callbacks have run
        assert pool.workers[0].outstanding == 0
        assert pool.metrics.outstanding == 0
        assert all(b.failed for b in pool.metrics.batches)


class TestCallbacksOnTheWorkerThread:
    """Done-callbacks of a threaded replica run on its scheduler's
    worker thread — the only thread that can run that replica's batch."""

    @staticmethod
    def run_in_callback(engine, windows, action):
        """On a one-replica pool, complete one request, run
        ``action(pool)`` in its done-callback, return what it returned
        or raised."""
        gate, outcome = Gate(engine), []

        def callback(fut):
            try:
                outcome.append(action(pool))
            except Exception as exc:    # noqa: BLE001 — handed to the test
                outcome.append(exc)

        with closing(EngineWorkerPool(gate, max_batch=2)) as pool:
            first = hold_first_batch(gate, pool, windows[0]).future
            first.add_done_callback(callback)   # still pending: runs there
            gate.release.set()
            first.result(timeout=60)
            # the worker survived whatever the callback did
            after = pool.submit(windows[1]).result(timeout=60)
        assert_windows_equal(
            after.fields, engine.forecast_batch([windows[1]])[0].fields)
        return outcome[0]

    def test_blocking_on_the_scheduler_fails_fast(self, engine, windows):
        """The executor call the system makes (``HybridWorkflow(
        server.pool, ...)``) would wait on a batch only the calling
        thread can run: it raises instead of deadlocking."""
        raised = self.run_in_callback(
            engine, windows, lambda pool: pool.forecast_batch(windows[2:4]))
        assert isinstance(raised, RuntimeError)
        assert "worker thread" in str(raised)

    def test_plain_submit_stays_legal(self, engine, windows):
        chained = self.run_in_callback(
            engine, windows, lambda s: s.submit(windows[2]))
        assert_windows_equal(
            chained.result(timeout=60).fields,
            engine.forecast_batch([windows[2]])[0].fields)


class TestForecastCache:
    def test_window_key_is_content_addressed(self, windows):
        a = windows[0]
        same = FieldWindow(a.u3.copy(), a.v3.copy(), a.w3.copy(),
                           a.zeta.copy())
        assert window_key(a) == window_key(same)
        other = a.copy()
        other.zeta[1, 2, 3] += 1e-9
        assert window_key(a) != window_key(other)
        assert window_key(a, extra=("members", 8)) != window_key(a)

    def test_hit_returns_private_copy(self, engine, windows):
        cache = ForecastCache(1 << 24)
        key = window_key(windows[0])
        original = engine.forecast_batch([windows[0]])[0]
        cache.put(key, original)
        first = cache.get(key)
        first.fields.zeta[0] = -999.0           # consumer mutates freely
        second = cache.get(key)
        assert_windows_equal(second.fields, original.fields)
        assert cache.stats.hits == 2 and cache.stats.misses == 0

    def test_duplicate_put_does_not_inflate_accounting(self, engine,
                                                       windows):
        """Concurrent identical misses both put the same key: the byte
        accounting must reflect one resident copy, not two."""
        from repro.serve.cache import LruBytes
        lru = LruBytes(300, size_of=lambda v: 100)
        lru.put("k", "a")
        lru.put("k", "b")
        assert lru.used_bytes == 100
        assert lru.get("k") == "b"
        assert lru.put("x", "c") == 0       # still fits without eviction
        assert lru.used_bytes == 200
        with pytest.raises(ValueError):
            LruBytes(0, size_of=len)

        result = engine.forecast_batch([windows[0]])[0]
        cache = ForecastCache(1 << 24)
        key = window_key(windows[0])
        cache.put(key, result)
        before = cache.resident_bytes
        cache.put(key, result)
        assert cache.resident_bytes == before

    def test_lru_eviction_under_byte_budget(self, engine, windows):
        one = engine.forecast_batch([windows[0]])[0]
        f = one.fields
        nbytes = f.u3.nbytes + f.v3.nbytes + f.w3.nbytes + f.zeta.nbytes
        cache = ForecastCache(2 * nbytes)
        results = engine.forecast_batch(windows[:3])
        for w, r in zip(windows[:3], results):
            cache.put(window_key(w), r)
        assert cache.resident_bytes == 2 * nbytes
        assert cache.stats.evictions == 1
        assert cache.get(window_key(windows[0])) is None   # LRU victim
        assert cache.get(window_key(windows[2])) is not None

    def test_server_dedups_identical_requests(self, engine, windows):
        with ForecastServer(engine, max_batch=4,
                            cache_bytes=1 << 24) as server:
            first = server.forecast(windows[0])
            # wait for the out-of-band cache fill to land
            deadline = 60.0
            import time
            t0 = time.perf_counter()
            while server.cache.resident_bytes == 0:
                assert time.perf_counter() - t0 < deadline
                time.sleep(0.005)
            with count_forwards(engine.model) as calls:
                again = server.forecast(windows[0])
            assert calls["n"] == 0                  # served from cache
            assert_windows_equal(again.fields, first.fields)
            assert server.metrics()["cache_hits"] >= 1

    def test_server_dedups_inflight_duplicates(self, engine, windows):
        """A burst of identical requests arriving before the first
        result lands follows one leader instead of each taking an
        engine batch slot."""
        # the leader's batch is held until all six are in, so no result
        # can land (and turn a follower into a cache hit) mid-burst
        gate = Gate(engine)
        with ForecastServer(gate, max_batch=8,
                            cache_bytes=1 << 24) as server:
            futures = [server.submit(windows[1]) for _ in range(6)]
            gate.release.set()
            results = [f.result(timeout=60) for f in futures]
        for r in results[1:]:
            assert_windows_equal(r.fields, results[0].fields)
        # the engine saw one of the six
        assert server.deduped_requests >= 4
        assert sum(b.size for b in server.scheduler.metrics.batches) <= 2

    def test_follower_results_are_private_copies(self, engine, windows):
        with ForecastServer(engine, max_batch=8,
                            cache_bytes=1 << 24) as server:
            leader = server.submit(windows[2])
            follower = server.submit(windows[2])
            a = leader.result(timeout=60)
            b = follower.result(timeout=60)
        assert a.fields.zeta is not b.fields.zeta
        a.fields.zeta[0] = -999.0
        assert not np.array_equal(a.fields.zeta, b.fields.zeta)


class TestServerRouting:
    def test_served_ensemble_equals_direct(self, engine, windows):
        direct = EnsembleForecaster(engine, n_members=4,
                                    seed=3).forecast(windows[0])
        gate = Gate(engine)
        with ForecastServer(gate, max_batch=4) as server:
            # the members are routed one by one: queue all four behind a
            # busy replica so they share the direct call's one forward
            held = server.submit(windows[1])
            assert gate.entered.wait(60)
            run = server.submit_ensemble(windows[0], n_members=4, seed=3)
            wait_pending(server.scheduler, 4)
            gate.release.set()
            served = run.result(timeout=120)
            held.result(timeout=60)
        assert served.n_members == 4
        for sm, dm in zip(served.members, direct.members):
            assert_windows_equal(sm, dm)
        assert_windows_equal(served.mean, direct.mean)
        assert_windows_equal(served.spread, direct.spread)
        assert [(b.size, b.trigger)
                for b in server.scheduler.metrics.batches] \
            == [(1, "idle"), (4, "full")]

    def test_served_hybrid_equals_direct(self, engine, tiny_ocean):
        from repro.physics import Verifier
        verifier = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        window = make_window(99, t=2 * T)
        states = [object()] * 2     # never touched when every episode passes
        direct = HybridWorkflow(engine, tiny_ocean, verifier).run(
            window, states, threshold=1e30)
        with ForecastServer(engine, max_batch=8) as server:
            fields, report = HybridWorkflow(
                server.pool, tiny_ocean, verifier).run(
                    window, states, threshold=1e30)
        assert report.n_episodes == direct[1].n_episodes == 2
        assert report.pass_rate == 1.0
        assert_windows_equal(fields, direct[0])
        # chained episodes reach an idle replica one at a time: each is
        # served at once, none waits for company — so each waits less
        # than the forward it then gets (two clocks of one run, so the
        # host's speed cancels)
        metrics = server.scheduler.metrics
        assert [(b.size, b.trigger) for b in metrics.batches] \
            == [(1, "idle")] * 2
        assert all(wait < b.seconds for b in metrics.batches
                   for wait in b.queue_seconds), metrics.batches


class TestCapacityModel:
    def test_recovers_affine_law_exactly(self):
        a, b = 0.004, 0.0015
        sizes = [1, 2, 3, 5, 8]
        model = ServingCapacityModel.fit(
            sizes, [a + b * s for s in sizes])
        assert model.dispatch_seconds == pytest.approx(a, rel=1e-9)
        assert model.per_request_seconds == pytest.approx(b, rel=1e-9)
        assert model.saturation_throughput == pytest.approx(1 / b)

    def test_single_size_is_conservative(self):
        model = ServingCapacityModel.fit([4, 4, 4], [0.02, 0.02, 0.02])
        assert model.dispatch_seconds == 0.0
        assert model.per_request_seconds == pytest.approx(0.005)

    def test_fit_from_scheduler_log(self):
        records = [BatchRecord(i, s, (), (), 0.002 + 0.001 * s, "full")
                   for i, s in enumerate([1, 2, 4, 8])]
        model = ServingCapacityModel.from_batch_log(records)
        assert model.dispatch_seconds == pytest.approx(0.002, rel=1e-6)
        assert model.per_request_seconds == pytest.approx(0.001, rel=1e-6)

    def test_rejects_empty_fit(self):
        with pytest.raises(ValueError, match="observation"):
            ServingCapacityModel.fit([], [])


class TestShapeValidation:
    """Clear errors instead of deep numpy broadcasting failures."""

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError, match="no windows"):
            FieldWindow.concat([])

    def test_concat_mixed_mesh_raises(self, windows):
        with pytest.raises(ValueError, match="share one mesh"):
            FieldWindow.concat([windows[0], make_window(0, h=H - 1)])

    def test_concat_mixed_depth_raises(self, windows):
        with pytest.raises(ValueError, match="u3 mesh"):
            FieldWindow.concat([windows[0], make_window(0, d=D - 1)])

    def test_normalize_batch_mismatched_volume_raises(self, engine,
                                                      windows):
        """zeta meshes agree, u3 depths differ — must not die inside
        np.stack broadcasting."""
        deep = make_window(0)
        shallow = make_window(1, d=D - 1)
        shallow = FieldWindow(shallow.u3, shallow.v3, shallow.w3,
                              deep.zeta.copy())
        with pytest.raises(ValueError, match="share one mesh"):
            engine.forecast_batch([deep, shallow])
