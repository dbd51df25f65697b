"""Compiled inference plans: trace/replay equivalence, arena safety
and tightness, batch-shape bucketing, and plan dispatch through engine,
scheduler, pool, and server.

The invariant under test everywhere is **bitwise equality**: a compiled
plan — exact-shape or a padded bucket — replays the exact NumPy
expressions of the eager inference path, so every field of every result
must be ``np.array_equal`` to the eager one — for plain, ensemble, and
hybrid requests, under every pool routing policy, on the thread and the
process serving backends alike.
"""

import ctypes
import dataclasses
import os
import sys
import threading
import time
import tracemalloc
from contextlib import closing
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (  # noqa: F401 — shared serving fixtures
    VARS,
    assert_windows_equal,
    make_window,
)

from repro.data import Normalizer, assemble_episode_input_batch, pad_mesh
from repro.physics import Verifier
from repro.serve import EngineWorkerPool, ForecastServer, MicroBatchScheduler
from repro.tensor import (
    PlanExecutor,
    Tensor,
    TraceError,
    concatenate,
    no_grad,
    trace,
)
from repro.tensor import plan as plan_mod
from repro.tensor.tensor import apply
from repro.workflow import engine as engine_mod
from repro.workflow import (
    EnsembleForecaster,
    ForecastEngine,
    HybridWorkflow,
    SurrogateForecaster,
)

POLICIES = ("round-robin", "least-outstanding", "key-affinity")


def assert_windows_bitwise(a, b, msg=""):
    """Exact equality on every field — the compiled-plan invariant."""
    for var in VARS:
        np.testing.assert_array_equal(getattr(a, var), getattr(b, var),
                                      err_msg=f"{var} {msg}")


@pytest.fixture()
def engine(tiny_surrogate, identity_norm):
    """A fresh engine per test so plan caches/counters start empty.

    Shadows the session-scoped conftest ``engine`` on purpose: plan
    tests inspect cache/counter state and need it empty.
    """
    return ForecastEngine(tiny_surrogate, identity_norm)


def _fn(a, b):
    """A shape-static toy forward touching many primitive kinds."""
    h = (a + b) * 2.0
    h = h.roll((1, -2), axis=(0, 1))
    h = h.transpose(1, 0).reshape(4, -1)
    h = h.softmax(axis=-1)
    h = concatenate([h, h * 0.5], axis=0)
    return (h.sum(axis=0, keepdims=True) + h[:1]).sin()


class TestTraceReplay:
    def test_replay_bitwise_on_new_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 6)).astype(np.float32)
        y = rng.normal(size=(8, 6)).astype(np.float32)
        plan, traced = trace(_fn, (x, y))
        with no_grad():
            eager = _fn(Tensor(x), Tensor(y))
        assert np.array_equal(traced.data, eager.data)
        ex = PlanExecutor(plan)
        for seed in range(3):
            r = np.random.default_rng(10 + seed)
            x2 = r.normal(size=(8, 6)).astype(np.float32)
            y2 = r.normal(size=(8, 6)).astype(np.float32)
            with no_grad():
                want = _fn(Tensor(x2), Tensor(y2))
            (got,) = ex.run((x2, y2))
            assert np.array_equal(got, want.data)

    def test_constant_subgraphs_fold_into_no_steps(self):
        c1, c2 = Tensor(np.ones((3, 3), np.float32)), \
            Tensor(np.full((3, 3), 2.0, np.float32))

        def fn(a):
            return a + (c1 * c2 + 1.0)     # const subtree: one add step

        plan, _ = trace(fn, (np.zeros((3, 3), np.float32),))
        assert plan.n_steps == 1
        assert plan.steps[0].name == "add"

    def test_movement_classification_is_view_or_copy(self):
        def fn(a):
            v = a.transpose(1, 0)          # view
            c = v.reshape(-1)              # copy (non-contiguous source)
            return c * 1.0

        plan, _ = trace(fn, (np.zeros((4, 5), np.float32),))
        kinds = {s.name: plan.slots[s.out].kind for s in plan.steps}
        assert kinds["transpose"] == "view"
        assert kinds["reshape"] == "compute"

    def test_liveness_no_live_ranges_overlap(self, tiny_surrogate):
        """Offset assignment: two arena slots may share bytes only if
        their alias-group lifetimes are disjoint — so no step's output
        buffer can overlap a buffer that is still live (e.g. one of
        its own inputs)."""
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        engine = ForecastEngine(tiny_surrogate, norm)
        plan = engine.compile(2).plan
        last = plan._last_uses()
        group_end = {}
        for sid, spec in enumerate(plan.slots):
            group_end[spec.root] = max(group_end.get(spec.root, -1),
                                       last[sid])
        lives = []      # (byte_lo, byte_hi, born_step, dies_step)
        for i, step in enumerate(plan.steps):
            spec = plan.slots[step.out]
            if spec.phys is None:
                continue
            lives.append((spec.phys, spec.phys + spec.nbytes, i,
                          group_end[spec.root]))
        assert len(lives) > 50       # the real model, not a toy
        for i, (lo_a, hi_a, b_a, d_a) in enumerate(lives):
            for lo_b, hi_b, b_b, d_b in lives[i + 1:]:
                bytes_overlap = lo_a < hi_b and lo_b < hi_a
                # b born at step b_b while a is live through d_a means
                # time overlap (birth step counts: inputs are read
                # while the output is written)
                time_overlap = b_b <= d_a and b_a <= d_b
                assert not (bytes_overlap and time_overlap), (
                    f"slots at bytes [{lo_a},{hi_a}) and [{lo_b},{hi_b}) "
                    f"are live together (steps {b_a}-{d_a} vs {b_b}-{d_b})")

    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_arena_is_the_live_set_peak(self, engine, batch):
        """The packer is tight: the arena is exactly the most bytes
        ever alive at one step.  The oracle reads step order and alias
        roots only — no offsets, none of the plan's own liveness: a
        compute buffer is born at the step that writes it and dies
        after the last step that touches anything in its alias group."""
        plan = engine.compile(batch).plan
        root = [spec.root for spec in plan.slots]
        dies = {}
        for i, step in enumerate(plan.steps):
            for tag, ref in step.ins:
                if tag == "s":
                    dies[root[ref]] = i
            dies[root[step.out]] = i
        for sid in plan.outputs:
            dies[root[sid]] = plan.n_steps
        peak = max(
            sum(-(-plan.slots[s.out].nbytes // 64) * 64
                for s in plan.steps[:i + 1]
                if s.kind == "compute" and dies[root[s.out]] >= i)
            for i in range(plan.n_steps))
        assert plan.arena_total == peak

    def test_compile_caches_what_the_tracer_recorded(self, engine):
        """Nothing sits between trace and replay: the engine's plan has
        the steps, in order, of a fresh trace of the same forward."""
        shapes = engine._input_shapes(2)
        fresh, _ = trace(lambda a, b: engine.model(a, b),
                         [np.zeros(s, np.float32) for s in shapes])
        plan = engine.compile(2).plan
        assert [s.name for s in plan.steps] == [s.name for s in fresh.steps]
        assert plan.arena_total == fresh.arena_total

    def test_roll_repeated_axis_matches_numpy(self):
        """np.roll accumulates shifts on a repeated axis; the arena
        replay kernel must reproduce that exactly."""
        def fn(a):
            return a.roll((1, 1, 3), axis=(0, 0, 1)) * 1.0

        x = np.arange(40, dtype=np.float32).reshape(8, 5)
        plan, _ = trace(fn, (x,))
        (got,) = PlanExecutor(plan).run((x,))
        want = np.roll(x, (1, 1, 3), axis=(0, 0, 1)) * 1.0
        assert np.array_equal(got, want)

    def test_inplace_into_constant_refused(self):
        """An in-place kernel whose target is a plan constant but whose
        operand is traced cannot be captured (each replay would need to
        re-mutate the frozen constant)."""
        const = Tensor(np.zeros(4, np.float32))

        def fn(a):
            return apply("iadd", (const, a))

        with pytest.raises(TraceError, match="constant"):
            trace(fn, (np.ones(4, np.float32),))

    def test_inplace_on_input_refused(self):
        from repro.nn import Linear
        lin = Linear(4, 4)

        def fn(a):
            # Linear's traced bias add is in-place on the matmul
            # output — fine; an in-place op targeting the *input*
            # buffer itself must be refused
            return apply("iadd", (a, Tensor(np.ones(4, np.float32))))

        with pytest.raises(TraceError, match="mutate caller data"):
            trace(fn, (np.zeros((3, 4), np.float32),))
        # and the legal version (via Linear) traces fine
        plan, _ = trace(lambda a: lin(a), (np.zeros((3, 4), np.float32),))
        assert "iadd" in {s.name for s in plan.steps}

    def test_training_mode_layers_refuse_to_trace(self, tiny_surrogate):
        tiny_surrogate.train()
        try:
            with pytest.raises(TraceError, match="eval"):
                trace(lambda a, b: tiny_surrogate(a, b),
                      (np.zeros((1, 3, 16, 16, 6, 4), np.float32),
                       np.zeros((1, 1, 16, 16, 4), np.float32)))
        finally:
            tiny_surrogate.eval()

    def test_trace_is_not_reentrant(self):
        def fn(a):
            trace(lambda x: x * 2.0, (np.zeros(2, np.float32),))
            return a

        with pytest.raises(TraceError, match="reentrant"):
            trace(fn, (np.zeros(2, np.float32),))

    def test_executor_validates_inputs(self):
        plan, _ = trace(lambda a: a * 2.0, (np.zeros((2, 3), np.float32),))
        ex = PlanExecutor(plan)
        with pytest.raises(ValueError, match="expects 1 inputs"):
            ex.run(())
        with pytest.raises(ValueError, match="C-contiguous"):
            ex.run((np.zeros((3, 2), np.float32),))
        with pytest.raises(ValueError, match="C-contiguous"):
            ex.run((np.zeros((2, 3), np.float64),))


class TestEngineCompiled:
    def test_compiled_bitwise_equal_eager(self, engine, tiny_surrogate,
                                          windows):
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        eager = ForecastEngine(tiny_surrogate, norm)   # no plans ever
        engine.compile(4)
        got = engine.forecast_batch(windows[:4])
        want = eager.forecast_batch(windows[:4])
        assert all(r.compiled for r in got)
        assert not any(r.compiled for r in want)
        for g, w in zip(got, want):
            for var in VARS:
                assert np.array_equal(getattr(g.fields, var),
                                      getattr(w.fields, var))

    def test_model_plan_bitwise_all_batches(self, engine, tiny_surrogate,
                                            identity_norm, windows):
        """Every size 1…4 through the bucket set: plan ≡ eager and the
        plan cache never misses."""
        eager = ForecastEngine(tiny_surrogate, identity_norm)
        engine.compile_buckets(4)
        for n in range(1, 5):
            got = engine.forecast_batch(windows[:n])
            want = eager.forecast_batch(windows[:n])
            assert all(r.compiled for r in got)
            assert not any(r.compiled for r in want)
            for g, w in zip(got, want):
                assert_windows_bitwise(g.fields, w.fields, f"n={n}")
        assert engine.plan_stats()["misses"] == 0

    def test_compiled_call_peaks_below_eager(self, engine, tiny_surrogate,
                                             identity_norm, windows):
        """Measured, not modelled: arena reuse must make one compiled
        ``forecast_batch`` allocate a lower peak than the eager call
        (allocation sizes are shape-determined, so this is exact)."""
        def peak(fn):
            fn()                               # warm: plans, arena, caches
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        eager = ForecastEngine(tiny_surrogate, identity_norm)
        engine.compile(4)
        assert peak(lambda: engine.forecast_batch(windows[:4])) \
            < peak(lambda: eager.forecast_batch(windows[:4]))

    def test_partial_batch_buckets_into_larger_plan(self, engine, windows):
        """A batch-3 request no longer falls back to eager: it pads into
        the compiled batch-4 plan and records the bucket it used."""
        engine.compile(4)
        res = engine.forecast_batch(windows[:3])
        assert all(r.compiled for r in res)
        assert all(r.plan_batch == 4 for r in res)
        stats = engine.plan_stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["bucket_hits"] == {4: 1}
        assert stats["padded_rows"] == 1 and stats["total_rows"] == 4
        assert stats["bucket_pad_fraction"] == pytest.approx(0.25)
        engine.forecast_batch(windows[:4])
        stats = engine.plan_stats()
        assert stats["hits"] == 2 and stats["batches"] == [4]
        assert stats["bucket_pad_fraction"] == pytest.approx(1 / 8)

    def test_oversized_batch_still_falls_back_to_eager(self, engine,
                                                       windows):
        """No compiled plan can hold the request ⇒ genuine eager path."""
        engine.compile(4)
        res = engine.forecast_batch(windows[:5])
        assert not any(r.compiled for r in res)
        assert all(r.plan_batch is None for r in res)
        stats = engine.plan_stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["padded_rows"] == 0 and stats["total_rows"] == 5

    def test_compile_idempotent_and_clear(self, engine, windows):
        cf1 = engine.compile(2)
        cf2 = engine.compile(2)
        assert cf1 is cf2
        assert engine.compiled_batches == [2]
        fresh = engine.with_model(engine.model)    # plans do not carry
        assert fresh.compiled_batches == []
        res = fresh.forecast_batch(windows[:2])
        assert not res[0].compiled

    def test_weight_reload_then_recompile_matches_eager(self, engine,
                                                        windows):
        """Plans bake the weights they were traced with; the documented
        contract after ``load_state_dict`` is a fresh engine
        (``with_model``) + recompile, which must land bitwise back on
        the eager path."""
        engine.compile(2)
        before = engine.forecast_batch(windows[:2])
        state = engine.model.state_dict()
        state2 = {k: v * 0.5 for k, v in state.items()}
        engine.model.load_state_dict(state2)
        try:
            reloaded = engine.with_model(engine.model)
            reloaded.compile(2)
            compiled = reloaded.forecast_batch(windows[:2])
            assert compiled[0].compiled
            eager = engine.with_model(engine.model).forecast_batch(
                windows[:2])
            assert not eager[0].compiled
            assert_windows_equal(compiled[0].fields, eager[0].fields)
            assert not np.array_equal(before[0].fields.zeta,
                                      compiled[0].fields.zeta)
        finally:
            engine.model.load_state_dict(state)

    def test_concurrent_forecasts_share_one_plan(self, engine, windows):
        """Thread-safety: concurrent compiled calls acquire distinct
        executors and all produce bitwise-correct results."""
        cf = engine.compile(2)
        serial = [engine.forecast_batch(windows[2 * i:2 * i + 2])
                  for i in range(4)]
        results = [None] * 4
        errors = []
        barrier = threading.Barrier(4)

        def worker(i):
            try:
                barrier.wait(timeout=30)
                results[i] = engine.forecast_batch(
                    windows[2 * i:2 * i + 2])
            except Exception as exc:    # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for ser, par in zip(serial, results):
            for s, p in zip(ser, par):
                assert p.compiled
                assert_windows_equal(s.fields, p.fields)
        assert cf.executors_created >= 1
        stats = engine.plan_stats()
        assert stats["hits"] == 8 and stats["plans"] == 1


class TestSerialReplay:
    def test_compiled_forecast_starts_no_thread(self, monkeypatch, engine,
                                                windows):
        """Replay is a bare loop on the caller's thread whatever the
        host: no worker pool appears on a machine reporting cores."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        before = threading.active_count()
        engine.compile(4)
        got = engine.forecast_batch(windows[:4])
        assert got[0].compiled
        assert threading.active_count() == before

    def test_profile_times_every_step_of_the_same_replay(self, engine):
        plan = engine.compile(2).plan
        r = np.random.default_rng(3)
        args = tuple(r.normal(size=s).astype(np.float32)
                     for s in engine._input_shapes(2))
        want = [o.copy() for o in PlanExecutor(plan).run(args)]
        ex = PlanExecutor(plan)
        rows = ex.profile(args, 3)
        assert [(i, name) for i, name, _, _ in rows] \
            == [(i, s.name) for i, s in enumerate(plan.steps)]
        assert all(shape == plan.slots[plan.steps[i].out].shape
                   and seconds >= 0.0 for i, _, shape, seconds in rows)
        # the profiled loop ran the real kernels on the real buffers
        for got, w in zip((ex._env[s] for s in plan.outputs), want):
            np.testing.assert_array_equal(got, w)
        for got, w in zip(ex.run(args), want):
            np.testing.assert_array_equal(got, w)


@pytest.fixture()
def shard_over(monkeypatch):
    """Make every tiny row 'large' and the host report ``k`` CPUs."""
    def setup(k):
        monkeypatch.setattr(engine_mod, "SHARD_ROW_BYTES", 0)
        monkeypatch.setattr(engine_mod, "_cpus", lambda: k)
    return setup


def count_replays(monkeypatch):
    """Count ``PlanExecutor.run`` calls, on any thread."""
    calls = []
    run = PlanExecutor.run

    def counted(self, inputs):
        calls.append(self.plan.slots[self.plan.inputs[0]].shape[0])
        return run(self, inputs)

    monkeypatch.setattr(PlanExecutor, "run", counted)
    return calls


class TestRowShards:
    @pytest.mark.parametrize("k, rows, shards", [(2, 4, 2), (3, 3, 3)])
    def test_sharded_equals_unsharded_equals_eager(
            self, shard_over, monkeypatch, tiny_surrogate, identity_norm,
            windows, k, rows, shards):
        """n = b: each shard replays its rows of the batch on its own
        executor (3 CPUs: 3 + 3 + 2 rows, the last shard padded), and
        the result is the one-plan replay's and eager's, bitwise."""
        whole = ForecastEngine(tiny_surrogate, identity_norm)
        whole.compile(8)
        eager = ForecastEngine(tiny_surrogate, identity_norm)
        shard_over(k)
        sharded = ForecastEngine(tiny_surrogate, identity_norm)
        cf = sharded.compile(8)
        assert (cf.rows, cf.shards) == (rows, shards)
        assert whole.compile(8).shards == 1       # compiled before the patch
        replays = count_replays(monkeypatch)
        got = sharded.forecast_batch(windows[:8])
        assert replays == [rows] * shards
        for g, w, e in zip(got, whole.forecast_batch(windows[:8]),
                           eager.forecast_batch(windows[:8])):
            assert g.compiled and g.plan_batch == 8 and not e.compiled
            assert_windows_bitwise(g.fields, w.fields, "sharded vs one plan")
            assert_windows_bitwise(g.fields, e.fields, "sharded vs eager")
        stats = sharded.plan_stats()
        assert stats["shards"] == {8: shards}
        assert stats["arena_bytes"] == {8: shards * cf.plan.arena_bytes()}

    @pytest.mark.parametrize("n, runs", [(5, [4, 4]), (3, [4])])
    def test_partial_batch_pads_into_its_last_shard(
            self, shard_over, monkeypatch, tiny_surrogate, identity_norm,
            windows, n, runs):
        """5 rows into a b8 bucket of two b4 shards: the second shard
        holds one row and three pad rows.  3 rows: the second shard
        would be pad rows only, and is not run."""
        eager = ForecastEngine(tiny_surrogate, identity_norm)
        shard_over(2)
        engine = ForecastEngine(tiny_surrogate, identity_norm)
        engine.compile(8)
        replays = count_replays(monkeypatch)
        got = engine.forecast_batch(windows[:n])
        assert replays == runs
        assert all(r.compiled and r.plan_batch == 8 for r in got)
        for g, e in zip(got, eager.forecast_batch(windows[:n])):
            assert_windows_bitwise(g.fields, e.fields, f"n={n}")
        assert engine.plan_stats()["padded_rows"] == 8 - n

    def test_concurrent_callers_on_one_sharded_engine(
            self, shard_over, tiny_surrogate, identity_norm, windows):
        shard_over(2)
        engine = ForecastEngine(tiny_surrogate, identity_norm)
        cf = engine.compile(4)
        batches = [windows[0:4], windows[4:8]]
        serial = [engine.forecast_batch(b) for b in batches]
        results, errors = [None, None], []
        barrier = threading.Barrier(2)

        def caller(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    results[i] = engine.forecast_batch(batches[i])
            except Exception as exc:    # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for ser, par in zip(serial, results):
            for s, p in zip(ser, par):
                assert_windows_bitwise(s.fields, p.fields)
        # two shards of each of two callers, never more executors than
        # replays in flight at once
        assert 2 <= cf.executors_created <= 4

    def test_threshold_splits_the_two_benchmark_meshes(self, monkeypatch,
                                                       engine,
                                                       tiny_surrogate_config):
        """At the real threshold the serving mesh (this config: 77.8 KB
        a row) never shards, whatever the CPU count; the estuary mesh
        (2.49 MB a row) shards one per CPU.  Only the config is needed
        to decide, so no estuary model is built."""
        monkeypatch.setattr(engine_mod, "_cpus", lambda: 8)
        assert engine.compile(8).shards == 1
        estuary = dataclasses.replace(tiny_surrogate_config, mesh=(64, 64, 6),
                          time_steps=8)
        stub = ForecastEngine(SimpleNamespace(config=estuary), None)
        monkeypatch.setattr(engine_mod, "_cpus", lambda: 2)
        assert stub._shard_rows(8) == 4 and stub._shard_rows(1) == 1


def composite_stage(engine, windows):
    """The batch-wide staging the row stager replaced, through the
    public data functions — stack, cast, ``Normalizer.normalize``,
    ``pad_mesh``, ``assemble_episode_input_batch`` — kept as its
    oracle."""
    ph, pw = engine.pad_hw
    norm = {}
    for var in VARS:
        stack = np.stack([getattr(w, var) for w in windows])
        a = engine.normalizer.normalize(var, stack.astype(np.float32))
        norm[var] = pad_mesh(a, ph, pw, axes=(2, 3))
    x3d, x2d = assemble_episode_input_batch(
        norm["u3"], norm["v3"], norm["w3"], norm["zeta"],
        engine.boundary_width)
    return np.ascontiguousarray(x3d), np.ascontiguousarray(x2d)


def shard_inputs(engine, windows, rows, bucket):
    """Bytes of each shard's staged inputs for ``windows`` padded into
    ``bucket`` rows: the composite's rows, then zero pad rows."""
    x3d, x2d = composite_stage(engine, windows)
    pad = bucket - len(windows)
    x3d = np.concatenate([x3d, np.zeros((pad,) + x3d.shape[1:], x3d.dtype)])
    x2d = np.concatenate([x2d, np.zeros((pad,) + x2d.shape[1:], x2d.dtype)])
    return [x3d[lo:lo + rows].tobytes() + x2d[lo:lo + rows].tobytes()
            for lo in range(0, len(windows), rows)]


def spy_staged(monkeypatch):
    """Record the bytes every ``PlanExecutor.run`` replays, on any
    thread, and require them to be the executor's own input buffers."""
    staged, lock = [], threading.Lock()
    run = PlanExecutor.run

    def spy(self, inputs):
        assert all(a is b for a, b in zip(inputs, self.inputs))
        blob = b"".join(a.tobytes() for a in inputs)
        with lock:
            staged.append(blob)
        return run(self, inputs)

    monkeypatch.setattr(PlanExecutor, "run", spy)
    return staged


def offset_norm():
    """Statistics under which normalise and denormalise both round."""
    return Normalizer({v: 0.1 for v in VARS}, {v: 1.5 for v in VARS})


class TestRowStaging:
    """Staging and finishing run per row — inside each shard on the
    compiled path — held bitwise to the batch-wide composites they
    replaced."""

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stager_is_the_composite_bitwise(self, tiny_surrogate, n,
                                             width, dtype):
        engine = ForecastEngine(tiny_surrogate, offset_norm(),
                                boundary_width=width)
        wins = [engine_mod.FieldWindow(*(getattr(make_window(s), v)
                                         .astype(dtype) for v in VARS))
                for s in range(n)]
        want3, want2 = composite_stage(engine, wins)
        x3d, x2d, crop = engine._stage(wins)
        assert crop == wins[0].zeta.shape[1:] != engine.pad_hw
        # a reused buffer still holds an earlier call's rows
        old3, old2 = np.full_like(want3, np.nan), np.full_like(want2, 7.0)
        engine._stage_rows(wins, old3, old2)
        for got3, got2 in ((x3d, x2d), (old3, old2)):
            assert got3.dtype == got2.dtype == np.float32
            assert got3.tobytes() == want3.tobytes()
            assert got2.tobytes() == want2.tobytes()
        # tobytes sees signed zeros: the masked interior holds -0.0
        assert np.signbit(want3[want3 == 0]).any()

    def test_finisher_is_the_old_epilogue_bitwise(self, tiny_surrogate,
                                                  windows):
        engine = ForecastEngine(tiny_surrogate, offset_norm())
        refs = windows[:3]
        r = np.random.default_rng(4)
        p3, p2 = (r.normal(size=s).astype(np.float32)
                  for s in engine._input_shapes(3))
        got = engine._finish_rows(refs, p3, p2)
        # the batch-wide epilogue it replaced, written out
        H, W = refs[0].zeta.shape[1:]
        norm = engine.normalizer
        vol = np.moveaxis(p3, -1, 2).astype(np.float64)
        zet = np.moveaxis(p2[:, 0], -1, 1).astype(np.float64)
        want = {var: norm.denormalize(var, vol[:, c])[:, :, :H, :W]
                for c, var in enumerate(VARS[:3])}
        want["zeta"] = norm.denormalize("zeta", zet)[:, :, :H, :W]
        for i, (g, ref) in enumerate(zip(got, refs)):
            for var in VARS:
                w = np.ascontiguousarray(want[var][i])
                w[0] = getattr(ref, var)[0]       # exact initial condition
                a = getattr(g, var)
                assert a.dtype == np.float64 and a.flags.c_contiguous
                assert a.tobytes() == w.tobytes(), var

    def test_reused_buffers_hold_no_earlier_rows(
            self, shard_over, monkeypatch, tiny_surrogate):
        """b8, then b5 (bucket 8: the second shard holds one row and
        three pad rows), then b8, different windows each time — the
        first on the full model mesh, so a stale row or a stale
        mesh-pad cell would show.  Every replay's inputs are the
        composite's rows with zero pad rows, and every result is a
        fresh engine's."""
        shard_over(2)
        engine = ForecastEngine(tiny_surrogate, offset_norm())
        engine.compile(8)
        ph, pw = engine.pad_hw
        staged = spy_staged(monkeypatch)
        calls = [[make_window(100 + s, h=ph, w=pw) for s in range(8)],
                 [make_window(200 + s) for s in range(5)],
                 [make_window(300 + s) for s in range(8)]]
        for batch in calls:
            fresh = ForecastEngine(tiny_surrogate, offset_norm())
            fresh.compile(8)
            want = fresh.forecast_batch(batch)
            staged.clear()
            got = engine.forecast_batch(batch)
            assert sorted(staged) == sorted(
                shard_inputs(engine, batch, rows=4, bucket=8))
            for g, w in zip(got, want):
                assert g.compiled and g.plan_batch == 8
                assert_windows_bitwise(g.fields, w.fields)
        assert engine.plan_stats()["executors"] == 2

    def test_concurrent_shards_stage_into_their_own_executors(
            self, shard_over, monkeypatch, tiny_surrogate, identity_norm):
        """Two callers on one sharded engine, a short switch interval:
        every replay runs on its own executor's input buffers, and
        what it replays is exactly one shard of one caller's batch."""
        shard_over(2)
        engine = ForecastEngine(tiny_surrogate, identity_norm)
        engine.compile(8)
        batches = [[make_window(400 + 8 * i + s) for s in range(8)]
                   for i in range(2)]
        shards = set()
        for b in batches:
            shards.update(shard_inputs(engine, b, rows=4, bucket=8))
        serial = [engine.forecast_batch(b) for b in batches]
        staged = spy_staged(monkeypatch)
        results, errors = [None, None], []
        barrier = threading.Barrier(2)

        def caller(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    results[i] = engine.forecast_batch(batches[i])
            except Exception as exc:    # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(staged) == 12 and set(staged) <= shards
        for ser, par in zip(serial, results):
            for s, p in zip(ser, par):
                assert_windows_bitwise(s.fields, p.fields)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_inference_seconds_is_the_forward_alone(
            self, shard_over, monkeypatch, tiny_surrogate, identity_norm,
            windows, compiled):
        """Staging and finishing run inside a shard's span, but
        ``inference_seconds`` stays the forward: the longest shard's
        replay, or eager's model call."""
        shard_over(2)
        engine = ForecastEngine(tiny_surrogate, identity_norm)
        if compiled:
            engine.compile(8)
        delay = 0.25

        def slowed(fn):
            def slow(*args, **kwargs):
                time.sleep(delay)
                return fn(*args, **kwargs)
            return slow

        for name in ("_stage_rows", "_finish_rows"):
            monkeypatch.setattr(ForecastEngine, name,
                                slowed(getattr(ForecastEngine, name)))
        t0 = time.perf_counter()
        got = engine.forecast_batch(windows[:8])
        assert time.perf_counter() - t0 >= 2 * delay
        assert all(r.compiled is compiled for r in got)
        assert sum(r.inference_seconds for r in got) < delay

    def test_request_mesh_larger_than_the_model_raises(self, engine):
        ph, pw = engine.pad_hw
        with pytest.raises(ValueError, match="exceeds the model mesh"):
            engine.forecast_batch([make_window(0, h=ph + 1, w=pw)])


needs_numpy_openblas = pytest.mark.skipif(
    plan_mod.blas_threads() is None,
    reason="NumPy is not linked against an OpenBLAS with "
           "openblas_set_num_threads_local")


@needs_numpy_openblas
class TestSingleThreadBlas:
    def test_pins_one_thread_inside_and_restores_after(self):
        saved = plan_mod._blas_set(2)      # a count the pin must change
        try:
            before = plan_mod.blas_threads()
            with plan_mod.single_thread_blas():
                assert plan_mod.blas_threads() == 1

                def other():
                    with plan_mod.single_thread_blas():
                        pass

                # the count is process-wide: another thread's scope
                # nests in this one, and its exit leaves the pin alone
                thread = threading.Thread(target=other)
                thread.start()
                thread.join()
                assert plan_mod.blas_threads() == 1
            assert plan_mod.blas_threads() == before
        finally:
            plan_mod._blas_set(saved)

    def test_run_and_profile_replay_on_one_blas_thread(self):
        seen = []
        plan, _ = trace(lambda a: a.matmul(a), (np.ones((4, 4), np.float32),))
        matmul = plan.steps[0].fn

        def spy(out, ins, consts):
            seen.append(plan_mod.blas_threads())
            return matmul(out, ins, consts)

        plan.steps[0] = dataclasses.replace(plan.steps[0], fn=spy)
        before = plan_mod.blas_threads()
        ex = PlanExecutor(plan)
        ex.run((np.ones((4, 4), np.float32),))
        ex.profile((np.ones((4, 4), np.float32),), 2)
        assert seen == [1, 1, 1]
        assert plan_mod.blas_threads() == before

    def test_setter_is_numpys_openblas_not_scipys(self):
        """``scipy.special`` maps its own OpenBLAS; pinning that one
        would change nothing NumPy calls."""
        import scipy
        import scipy.special  # noqa: F401 — maps SciPy's OpenBLAS too

        class DlInfo(ctypes.Structure):
            _fields_ = [("fname", ctypes.c_char_p),
                        ("fbase", ctypes.c_void_p),
                        ("sname", ctypes.c_char_p),
                        ("saddr", ctypes.c_void_p)]

        info = DlInfo()
        address = ctypes.cast(plan_mod._blas_set, ctypes.c_void_p)
        assert ctypes.CDLL(None).dladdr(address, ctypes.byref(info))
        found = os.path.realpath(info.fname.decode())
        scipy_home = os.path.dirname(os.path.dirname(scipy.__file__))
        assert "openblas" in os.path.basename(found)
        assert not found.startswith(os.path.join(scipy_home, "scipy"))
        numpy_libs = os.path.join(os.path.dirname(os.path.dirname(
            np.__file__)), "numpy.libs")
        if os.path.isdir(numpy_libs):         # a wheel: NumPy's own copy
            assert found.startswith(os.path.realpath(numpy_libs))


class TestBucketPolicy:
    """The bucket set ``ForecastEngine.compile_buckets`` compiles."""

    def test_powers_of_two_capped_at_max(self):
        assert engine_mod._plan_buckets(1) == [1]
        assert engine_mod._plan_buckets(2) == [1, 2]
        assert engine_mod._plan_buckets(4) == [1, 2, 4]
        assert engine_mod._plan_buckets(8) == [1, 2, 4, 8]

    def test_non_power_max_batch_is_kept_as_top_bucket(self):
        assert engine_mod._plan_buckets(6) == [1, 2, 4, 6]
        assert engine_mod._plan_buckets(3) == [1, 2, 3]

    def test_invalid_max_batch(self, engine):
        with pytest.raises(ValueError, match="max_batch"):
            engine.compile_buckets(0)
        assert engine.compiled_batches == []


class TestBucketedServing:
    def test_scheduler_mixed_sizes_zero_misses(self, engine, tiny_surrogate,
                                               identity_norm, windows):
        eager = ForecastEngine(tiny_surrogate, identity_norm)
        engine.compile_buckets(4)
        sched = MicroBatchScheduler(engine, max_batch=4, autostart=False)
        want = {}
        sizes = (1, 3, 2, 4, 1, 2)
        start = 0
        futs = []
        for n in sizes:
            batch = windows[start:start + n]
            start += n
            want[n] = want.get(n, []) + [eager.forecast_batch(batch)]
            for w in batch:
                futs.append((n, sched.submit(w)))
            sched.flush()
        sched.close()
        stats = engine.plan_stats()
        assert stats["misses"] == 0
        assert stats["hits"] == len(sizes)
        assert set(stats["bucket_hits"]) <= {1, 2, 4}
        assert all(b.compiled for b in sched.metrics.batches)
        got = iter(futs)
        for n in sizes:
            direct = want[n].pop(0)
            for d in direct:
                size, fut = next(got)
                res = fut.result(timeout=1)
                assert res.compiled and size == n
                assert_windows_bitwise(res.fields, d.fields, f"n={n}")

    def test_pool_bucketed_bitwise_on_threads(self, engine, tiny_surrogate,
                                              identity_norm, windows):
        with closing(EngineWorkerPool(engine, replicas=1, max_batch=4,
                                      autostart=False)) as pool:
            assert_pool_replays_buckets_bitwise(
                pool, ForecastEngine(tiny_surrogate, identity_norm),
                windows, "thread")

    def test_pool_bucketed_bitwise_both_backends(self, engine, tiny_surrogate,
                                                 identity_norm, windows,
                                                 remote_tier):
        with closing(EngineWorkerPool(engine, replicas=1, max_batch=4,
                                      autostart=False,
                                      **remote_tier.pool_kwargs)) as pool:
            assert_pool_replays_buckets_bitwise(
                pool, ForecastEngine(tiny_surrogate, identity_norm),
                windows, remote_tier.name)


def assert_pool_replays_buckets_bitwise(pool, eager, windows, tier):
    """Every batch size 1–4 replays a bucket plan (1, 2 or 4) on the
    pool's one replica, bitwise-equal to an eager engine."""
    truth = {n: eager.forecast_batch(windows[:n]) for n in range(1, 5)}
    for n in (1, 3, 2, 4):
        res = pool.forecast_batch(windows[:n])
        assert all(r.compiled for r in res), (tier, n)
        assert all(r.plan_batch in (1, 2, 4) for r in res)
        for g, w in zip(res, truth[n]):
            assert_windows_bitwise(g.fields, w.fields, f"{tier} n={n}")
    stats = next(iter(pool.plan_stats().values()))
    assert (stats["hits"], stats["misses"]) == (4, 0)
    assert stats["bucket_hits"] == {1: 1, 2: 1, 4: 2}
    assert 0 < stats["bucket_pad_fraction"] < 1


class TestServedPlans:
    def test_scheduler_records_the_plan_each_batch_replayed(self, engine,
                                                             windows):
        assert engine.compile_buckets(4) == [1, 2, 4]
        sched = MicroBatchScheduler(engine, max_batch=4, autostart=False)
        for w in windows[:4]:
            sched.submit(w)
        assert sched.step() == 4
        # partial batch: served by the batch-1 bucket, no eager fallback
        sched.submit(windows[4])
        sched.flush()
        sched.close()
        m = sched.metrics
        assert m.n_batches == 2
        assert m.batches[0].compiled and m.batches[1].compiled
        assert m.batches[0].plan_batch == 4
        assert m.batches[1].plan_batch == 1
        stats = engine.plan_stats()
        assert (stats["hits"], stats["misses"]) == (2, 0)
        assert stats["bucket_hits"] == {4: 1, 1: 1}
        assert stats["padded_rows"] == 0
        assert stats["bucket_pad_fraction"] == 0.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pool_compiled_bitwise_any_policy(self, tiny_surrogate,
                                              windows, policy):
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        eager = ForecastEngine(tiny_surrogate, norm)
        engine = ForecastEngine(tiny_surrogate, norm)
        pool = EngineWorkerPool(engine, replicas=3, max_batch=2,
                                autostart=False, router=policy)
        futures = [(w, pool.submit(w, key=f"k{i % 4}"))
                   for i, w in enumerate(windows[:8])]
        pool.flush()
        by_id = {}
        for w, fut in futures:
            by_id[(fut.worker_id, fut.request_id)] = (w,
                                                      fut.result(timeout=1))
        for worker in pool.workers:
            for batch in worker.scheduler.metrics.batches:
                # identical micro-batch composition ⇒ exact equality
                direct = eager.forecast_batch(
                    [by_id[(worker.worker_id, rid)][0]
                     for rid in batch.request_ids])
                for rid, d in zip(batch.request_ids, direct):
                    assert_windows_bitwise(
                        by_id[(worker.worker_id, rid)][1].fields, d.fields)
        # the pool warms the full bucket set (1, 2), so every
        # micro-batch — full or partial — replays a compiled plan
        batches = pool.metrics.batches
        assert batches and all(b.compiled for b in batches)
        # replicas share one engine, hence one plan cache holding the
        # warm bucket set (1, 2)
        stats = pool.plan_stats()
        assert list(stats) == [0] and stats[0]["plans"] == 2
        assert (stats[0]["hits"], stats[0]["misses"]) == (len(batches), 0)
        pool.close()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_ensemble_hybrid_compiled_bitwise(self, tiny_surrogate,
                                              tiny_ocean, windows, policy):
        """Compiled vs eager under *identical* deterministic pools:
        ensemble and hybrid results must match to the bit for every
        routing policy (manual mode ⇒ same placement, same micro-batch
        composition on both sides)."""
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        verifier = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        hybrid_window = make_window(77, t=8)
        outputs = []
        for warm in (False, True):
            if warm:
                executor = ForecastEngine(tiny_surrogate, norm)
                for n in range(1, 5):
                    executor.compile(n)
            else:
                # no compile_buckets: the pool leaves it eager
                executor = SurrogateForecaster(tiny_surrogate, norm)
            with closing(EngineWorkerPool(executor, replicas=2, max_batch=4,
                                          autostart=False,
                                          router=policy)) as pool:
                plain = pool.forecast_batch(windows[:3])
                ens = EnsembleForecaster(pool, n_members=4,
                                         seed=3).forecast(windows[0])
                hyb = HybridWorkflow(pool, tiny_ocean, verifier).run(
                    hybrid_window, [object()] * 2, threshold=1e30)
                plan_batches = sum(b.compiled for b in pool.metrics.batches)
            outputs.append((plain, ens, hyb, plan_batches))
        (e_plain, e_ens, e_hyb, e_pb), (c_plain, c_ens, c_hyb, c_pb) = \
            outputs
        assert e_pb == 0 and c_pb > 0
        for a, b in zip(e_plain, c_plain):
            assert_windows_bitwise(a.fields, b.fields)
        for a, b in zip(e_ens.members, c_ens.members):
            assert_windows_bitwise(a, b)
        assert_windows_bitwise(e_ens.mean, c_ens.mean)
        assert_windows_bitwise(e_ens.spread, c_ens.spread)
        assert_windows_bitwise(e_hyb[0], c_hyb[0])
        assert e_hyb[1].pass_rate == c_hyb[1].pass_rate

    def test_server_plain_ensemble_hybrid_matches_direct(
            self, tiny_surrogate, tiny_ocean, windows):
        """End-to-end through the threaded warmed server: results match
        the direct eager path (float tolerance here — the threaded
        scheduler's micro-batch composition is timing-dependent, and
        composition, not compilation, is what moves the last bits;
        the manual-pool test above pins exact equality)."""
        norm = Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})
        eager = ForecastEngine(tiny_surrogate, norm)
        engine = ForecastEngine(tiny_surrogate, norm)
        verifier = Verifier(tiny_ocean.grid, tiny_ocean.depth, dt=1800.0)
        hybrid_window = make_window(99, t=8)
        direct_plain = eager.forecast_batch([windows[0]])[0]
        direct_ens = EnsembleForecaster(eager, n_members=4,
                                        seed=3).forecast(windows[0])
        direct_hyb = HybridWorkflow(eager, tiny_ocean, verifier).run(
            hybrid_window, [object()] * 2, threshold=1e30)

        with ForecastServer(engine, workers=2, max_batch=4) as server:
            assert engine.compiled_batches == [1, 2, 4]
            # partial micro-batches are timing-dependent under the
            # threaded scheduler: compile the smaller sizes too so
            # every batch replays a plan
            for n in (1, 2, 3):
                engine.compile(n)
            plain = server.forecast(windows[0])
            ens = server.submit_ensemble(windows[0], n_members=4,
                                         seed=3).result(timeout=120)
            fields, report = HybridWorkflow(
                server.pool, tiny_ocean, verifier).run(
                    hybrid_window, [object()] * 2, threshold=1e30)
            served_metrics = server.metrics()

        assert_windows_equal(plain.fields, direct_plain.fields)
        assert_windows_equal(ens.mean, direct_ens.mean)
        assert_windows_equal(ens.spread, direct_ens.spread)
        assert report.pass_rate == direct_hyb[1].pass_rate == 1.0
        assert_windows_equal(fields, direct_hyb[0])
        assert served_metrics["requests"] >= 1
        assert engine.plan_stats()["hits"] >= 1

