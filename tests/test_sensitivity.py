"""Adjoint/sensitivity tier: FD gradchecks, served-gradient parity.

Three layers of validation, mirroring ``docs/differentiation.md``:

1. the differentiable storm overlay alone, in float64, against
   :func:`repro.tensor.gradcheck.gradcheck` (tight tolerance);
2. ``ForecastEngine.sensitivity_batch`` end to end — through the
   float32 model forward — against central finite differences of the
   *numpy serving path* (``forecast_batch`` + the numpy diagnostic
   reference), with the looser tolerances the float32 noise floor
   demands (see the gradcheck module docstring);
3. the serving tier: served gradient responses bitwise-identical to
   direct ``sensitivity_batch`` calls on the thread backend, gradient
   cache/dedup keying, and clear rejection on process/host backends.
"""

import numpy as np
import pytest

from conftest import VARS, make_window

from repro.data.preprocess import Normalizer
from repro.serve import (
    EngineWorkerPool,
    ForecastServer,
    HostWorker,
    MicroBatchScheduler,
    ProcessWorker,
    gradient_key,
    window_key,
)
from repro.tensor import Tensor, astensor, stack
from repro.tensor.gradcheck import gradcheck, numerical_grad, tape_nodes
from repro.workflow import (
    STORM_PARAMS,
    ForecastEngine,
    GradientRequest,
    SensitivityResult,
    StormOverlay,
    evaluate_diagnostic,
)
from repro.workflow.sensitivity import GRAVITY, _stacked, compose_batch

T, H, W, D = 4, 15, 14, 6

#: strong, wide, fast-moving storm: its parameters move the diagnostic
#: enough that the end-to-end finite difference clears the float32
#: forward's noise floor (weak storms have true gradients below it)
STORM = StormOverlay(x0=6000.0, y0=7000.0, vx=500.0, vy=300.0,
                     max_wind=60.0, radius_max_wind=8000.0,
                     central_pressure_drop=20000.0, dt=3.0)

#: per-parameter FD perturbation scales (a unitless step of ``eps``
#: perturbs parameter p by ``eps * SCALES[p]`` — metres and pascals
#: need very different absolute steps)
SCALES = {"x0": 1000.0, "y0": 1000.0, "max_wind": 5.0,
          "radius_max_wind": 800.0, "central_pressure_drop": 2000.0,
          "inflow_angle_rad": 0.2}


@pytest.fixture(scope="module")
def grad_engine(tiny_surrogate):
    """Engine with non-trivial z-score statistics, so the FD checks
    exercise the normalise/denormalise legs of the adjoint too."""
    norm = Normalizer({v: 0.1 for v in VARS}, {v: 1.5 for v in VARS})
    return ForecastEngine(tiny_surrogate, norm)


@pytest.fixture(scope="module")
def ref_window():
    return make_window(7)


def _diag_fd(eng, window, diagnostic, obs=None):
    """The numpy serving path as a scalar function — what FD samples."""
    def run(w):
        out = eng.forecast_batch([w])[0]
        return evaluate_diagnostic(
            diagnostic, out.fields.zeta[None],
            None if obs is None else obs[None])[0]
    return run


# ---------------------------------------------------------------------------
# 1. overlay graph in float64: tight gradcheck over all six parameters
# ---------------------------------------------------------------------------
def test_storm_overlay_gradcheck_float64():
    ov = StormOverlay(x0=6000.0, y0=7000.0, radius_max_wind=4000.0)
    base = np.array([getattr(ov, p) for p in STORM_PARAMS])
    scale = np.array([SCALES[p] for p in STORM_PARAMS])

    def fn(s):
        theta = astensor(base) + s * astensor(scale)
        params = {p: theta[i] for i, p in enumerate(STORM_PARAMS)}
        du3, dv3, dz = ov.increments(params, T, (H, W), D)
        # weighted sum so no component's gradient can hide in another's
        return du3.sum() + dv3.sum() * 0.5 + dz.sum() * 2.0

    assert gradcheck(fn, [np.zeros(len(STORM_PARAMS))],
                     atol=1e-5, rtol=1e-3, eps=1e-4)


def test_overlay_apply_matches_increments():
    """The numpy forward and the Tensor graph are the same function."""
    ov = STORM
    win = make_window(11)
    out = ov.apply(win)
    du3, dv3, dz = ov.increments(ov.tensor_params(), T, (H, W), D)
    np.testing.assert_array_equal(out.u3, win.u3 + du3.data)
    np.testing.assert_array_equal(out.v3, win.v3 + dv3.data)
    np.testing.assert_array_equal(out.zeta, win.zeta + dz.data)
    np.testing.assert_array_equal(out.w3, win.w3)


def _per_slot_increments(ov, params, time_steps, mesh, depth):
    """The overlay graph as it was built before the slot axis was a
    broadcast axis — one Python iteration and ~40 tape nodes per slot,
    three stacks — kept as the slow single-storm reference."""
    h, w = mesh
    dy, dx = ov.spacing
    yg = astensor(np.arange(h, dtype=np.float64)[:, None] * dy)
    xg = astensor(np.arange(w, dtype=np.float64)[None, :] * dx)
    r_floor_sq = float(dx * dx + dy * dy)
    cosa = params["inflow_angle_rad"].cos()
    sina = params["inflow_angle_rad"].sin()
    v_max, r_mw = params["max_wind"], params["radius_max_wind"]
    dp = params["central_pressure_drop"]
    du_t, dv_t, dz_t = [], [], []
    for k in range(time_steps):
        t = k * ov.dt
        dxf = xg - (params["x0"] + ov.vx * t)
        dyf = yg - (params["y0"] + ov.vy * t)
        r = (dxf * dxf + dyf * dyf + r_floor_sq).sqrt()
        ratio = r_mw / r
        r_b = ratio ** ov.HOLLAND_B
        speed = v_max * ratio ** (ov.HOLLAND_B / 2.0) \
            * ((1.0 - r_b) * 0.5).exp()
        wu = speed * (-(dyf * cosa + dxf * sina) / r)
        wv = speed * ((dxf * cosa - dyf * sina) / r)
        dz = dp * (1.0 - (-r_b).exp()) * (1.0 / (ov.RHO_WATER * GRAVITY))
        du_t.append(wu * ov.wind_coupling)
        dv_t.append(wv * ov.wind_coupling)
        dz_t.append(dz)
    decay = astensor(np.exp(-np.arange(depth, dtype=np.float64)
                            / ov.depth_efold))
    du3 = stack(du_t, axis=0).reshape((time_steps, h, w, 1)) * decay
    dv3 = stack(dv_t, axis=0).reshape((time_steps, h, w, 1)) * decay
    return du3, dv3, stack(dz_t, axis=0)


#: four storms that differ in every differentiable parameter *and* in
#: every piece of fixed geometry
DISTINCT_STORMS = [
    STORM,
    STORM.replace(x0=4000.0, y0=9000.0, vx=100.0, vy=-50.0, dt=5.0,
                  spacing=(900.0, 1100.0), wind_coupling=0.05,
                  depth_efold=3.0),
    STORM.replace(max_wind=40.0, inflow_angle_rad=0.1, vx=-300.0, vy=10.0,
                  dt=1.0, spacing=(1000.0, 800.0), wind_coupling=0.02,
                  depth_efold=1.5),
    STORM.replace(radius_max_wind=5000.0, central_pressure_drop=9000.0,
                  vx=0.0, vy=700.0, dt=2.0, spacing=(1200.0, 1000.0),
                  wind_coupling=0.04, depth_efold=4.0),
]


def test_batched_overlay_composes_bitwise_like_apply():
    """One broadcast evaluation over the storm axis ≡ one ``apply`` per
    storm, bit for bit, with ``None`` entries passed through."""
    wins = [make_window(30 + i) for i in range(5)]
    storms = DISTINCT_STORMS[:2] + [None] + DISTINCT_STORMS[2:]
    composed = compose_batch(wins, storms)
    assert composed[2] is wins[2]
    for got, win, storm in zip(composed, wins, storms):
        want = win if storm is None else storm.apply(win)
        for var in VARS:
            np.testing.assert_array_equal(getattr(got, var),
                                          getattr(want, var))


def test_batched_overlay_gradients_match_per_storm(grad_engine):
    """Four distinct storms in one batch: value and field adjoint are
    those of the pre-composed batch bitwise, and every ∂J/∂θ is the
    per-episode contraction of that field adjoint with a single-storm,
    slot-by-slot graph."""
    wins = [make_window(40 + i) for i in range(4)]
    batched = grad_engine.sensitivity_batch(
        wins, diagnostic="mean_surge", wrt=("fields", "storm"),
        storms=DISTINCT_STORMS)
    composed = grad_engine.sensitivity_batch(
        [s.apply(w) for s, w in zip(DISTINCT_STORMS, wins)],
        diagnostic="mean_surge")
    for got, want, storm in zip(batched, composed, DISTINCT_STORMS):
        assert got.value == want.value
        for var in VARS:
            np.testing.assert_array_equal(getattr(got.d_fields, var),
                                          getattr(want.d_fields, var))
        theta = storm.tensor_params(requires_grad=True)
        du3, dv3, dz = _per_slot_increments(storm, theta, T, (H, W), D)
        ((du3 * want.d_fields.u3).sum() + (dv3 * want.d_fields.v3).sum()
         + (dz * want.d_fields.zeta).sum()).backward()
        for name in STORM_PARAMS:
            assert got.d_storm[name] == pytest.approx(
                float(theta[name].grad), rel=1e-12, abs=0.0), name


def test_mixed_overlay_batch_under_fields_only(grad_engine):
    """The scheduler batches by (diagnostic, wrt), so overlaid and
    plain requests share a batch when only fields are asked for."""
    wins = [make_window(50 + i) for i in range(3)]
    storms = [DISTINCT_STORMS[1], None, DISTINCT_STORMS[3]]
    mixed = grad_engine.sensitivity_batch(wins, diagnostic="mean_surge",
                                          storms=storms)
    composed = grad_engine.sensitivity_batch(
        [w if s is None else s.apply(w) for s, w in zip(storms, wins)],
        diagnostic="mean_surge")
    for got, want in zip(mixed, composed):
        assert got.value == want.value and got.d_storm is None
        for var in VARS:
            np.testing.assert_array_equal(getattr(got.d_fields, var),
                                          getattr(want.d_fields, var))


def test_overlay_graph_size_is_independent_of_storms_and_slots():
    def nodes(storms, time_steps):
        batch = _stacked(storms)
        theta = batch.tensor_params(requires_grad=True)
        du3, dv3, dz = batch.increments(theta, time_steps, (H, W), D)
        assert du3.shape == (len(storms), time_steps, H, W, D)
        assert dz.shape == (len(storms), time_steps, H, W)
        return len(tape_nodes(du3.sum() + dv3.sum() + dz.sum()))

    assert nodes(DISTINCT_STORMS[:1], 4) == nodes(DISTINCT_STORMS, 8)


# ---------------------------------------------------------------------------
# 2. engine adjoint vs FD of the numpy serving path
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("diagnostic", ["mean_surge", "peak_surge",
                                        "surge_mse"])
def test_value_matches_forecast_diagnostic(grad_engine, ref_window,
                                           diagnostic):
    """The differentiable forward reproduces the served diagnostic."""
    obs = None
    if diagnostic == "surge_mse":
        obs = np.random.default_rng(5).normal(size=(T, H, W)) * 0.01
    res = grad_engine.sensitivity_batch(
        [ref_window], diagnostic=diagnostic,
        observations=None if obs is None else [obs])[0]
    ref = _diag_fd(grad_engine, ref_window, diagnostic, obs)(ref_window)
    assert res.value == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize("diagnostic", ["mean_surge", "surge_mse"])
def test_field_sensitivity_matches_fd(grad_engine, ref_window, diagnostic):
    """Directional central FD over each full input field.

    Single-element gradients sit at ~1e-9 after patch-embedding
    dilution — far below the float32 FD noise floor — so each field is
    checked along a fixed random direction, which aggregates the whole
    gradient array into one well-conditioned scalar derivative.
    """
    rng = np.random.default_rng(21)
    obs = rng.normal(size=(T, H, W)) * 0.01 if diagnostic == "surge_mse" \
        else None
    res = grad_engine.sensitivity_batch(
        [ref_window], diagnostic=diagnostic,
        observations=None if obs is None else [obs])[0]
    run = _diag_fd(grad_engine, ref_window, diagnostic, obs)
    # ζ feeds the diagnostic directly (strong signal, tight tolerance);
    # the velocity fields only reach it through the model interior
    # (weak signal, float32-noise-limited tolerance)
    tols = {"zeta": 1e-3, "u3": 0.25, "v3": 0.25, "w3": 0.25}
    for var in VARS:
        direction = rng.normal(size=getattr(ref_window, var).shape)

        def fn(s):
            w2 = ref_window.copy()
            getattr(w2, var)[...] += float(s.data) * direction
            return Tensor(np.asarray(run(w2)))

        fd = float(numerical_grad(fn, [np.zeros(())], 0, eps=2e-3))
        ana = float((getattr(res.d_fields, var) * direction).sum())
        assert fd != 0.0 and ana != 0.0, f"{var}: degenerate check"
        rel = abs(fd - ana) / max(abs(fd), abs(ana))
        assert rel < tols[var], \
            f"{var}: fd={fd:.3e} analytic={ana:.3e} rel={rel:.3e}"


def test_peak_surge_zeta_sensitivity_matches_fd(grad_engine, ref_window):
    """peak_surge is piecewise-linear; the dominant ζ leg must still
    FD-match away from argmax ties (seeded window keeps it unique)."""
    res = grad_engine.sensitivity_batch([ref_window],
                                        diagnostic="peak_surge")[0]
    run = _diag_fd(grad_engine, ref_window, "peak_surge")
    direction = np.random.default_rng(3).normal(size=(T, H, W))

    def fn(s):
        w2 = ref_window.copy()
        w2.zeta[...] += float(s.data) * direction
        return Tensor(np.asarray(run(w2)))

    fd = float(numerical_grad(fn, [np.zeros(())], 0, eps=2e-3))
    ana = float((res.d_fields.zeta * direction).sum())
    rel = abs(fd - ana) / max(abs(fd), abs(ana))
    assert rel < 1e-3


def test_storm_sensitivity_matches_fd(grad_engine, ref_window):
    """End-to-end central FD for every storm parameter.

    The FD function is the full numpy serving path: overlay the
    perturbed storm, forecast, reduce — autograd never touches it.
    """
    res = grad_engine.sensitivity_batch(
        [ref_window], diagnostic="mean_surge", wrt=("fields", "storm"),
        storms=[STORM])[0]
    for name in STORM_PARAMS:
        def fn(s):
            ov = STORM.replace(
                **{name: getattr(STORM, name) + float(s.data) * SCALES[name]})
            out = grad_engine.forecast_batch([ov.apply(ref_window)])[0]
            return Tensor(np.asarray(evaluate_diagnostic(
                "mean_surge", out.fields.zeta[None])[0]))

        fd = float(numerical_grad(fn, [np.zeros(())], 0, eps=0.2)) \
            / SCALES[name]
        ana = res.d_storm[name]
        assert fd != 0.0 and ana != 0.0, f"{name}: degenerate check"
        rel = abs(fd - ana) / max(abs(fd), abs(ana))
        assert rel < 0.05, \
            f"{name}: fd={fd:.3e} analytic={ana:.3e} rel={rel:.3e}"


def test_tape_forward_and_leaf_gradients_are_float32(grad_engine,
                                                     ref_window):
    """The grad-mode model forward sensitivity_batch runs stays in the
    inputs' float32 (a float64 Python-scalar constant used to promote
    every GELU / LayerNorm of the tape), and so do the leaf gradients."""
    x3d, x2d, _ = grad_engine._prepare_inputs([ref_window])
    assert x3d.dtype == x2d.dtype == np.float32
    model = grad_engine.model
    model.eval()
    t3 = Tensor(x3d, requires_grad=True)
    t2 = Tensor(x2d, requires_grad=True)
    p3d, p2d = model(t3, t2)
    assert p3d.dtype == p2d.dtype == np.float32
    (p3d.sum() + p2d.sum()).backward()
    assert t3.grad.dtype == t2.grad.dtype == np.float32
    model.zero_grad()


def test_dead_cotangent_is_never_formed(grad_engine, monkeypatch):
    """A sensitivity masks every weight off the tape: no backward
    closure may hand a gradient to a tensor that does not want one
    (each such call used to follow a cotangent computed for nothing)."""
    dead = []
    accum = Tensor._accum

    def recording(tensor, grad):
        if not tensor.requires_grad:
            dead.append(tensor.shape)
        accum(tensor, grad)

    monkeypatch.setattr(Tensor, "_accum", recording)
    wins = [make_window(60), make_window(61)]
    grad_engine.sensitivity_batch(wins, wrt=("fields", "storm"),
                                  storms=[STORM] * 2)
    assert dead == []


def test_model_tape_stays_under_300_nodes(grad_engine, monkeypatch):
    """One node per LayerNorm / GELU: the serving-size model's tape was
    471 tensors when both were recorded op by op."""
    graphs = []
    backward = Tensor.backward

    def counting(root, grad=None):
        graphs.append(len(tape_nodes(root)))
        backward(root, grad)

    monkeypatch.setattr(Tensor, "backward", counting)
    grad_engine.sensitivity_batch([make_window(62)], wrt=("fields", "storm"),
                                  diagnostic="mean_surge", storms=[STORM])
    model_graph, overlay_graph = graphs
    assert model_graph <= 300
    assert overlay_graph <= 60


def test_sensitivity_leaves_inference_untouched(grad_engine, ref_window):
    """The backward must not perturb concurrent-style forward serving:
    parameter flags restored, results bitwise-stable."""
    before = grad_engine.forecast_batch([ref_window])[0]
    flags = [p.requires_grad for p in grad_engine.model.parameters()]
    grad_engine.sensitivity_batch([ref_window], wrt=("fields", "storm"),
                                  storms=[STORM])
    assert [p.requires_grad
            for p in grad_engine.model.parameters()] == flags
    after = grad_engine.forecast_batch([ref_window])[0]
    for var in VARS:
        np.testing.assert_array_equal(getattr(before.fields, var),
                                      getattr(after.fields, var))


def test_sensitivity_batch_validation(grad_engine, ref_window):
    with pytest.raises(ValueError, match="wrt"):
        grad_engine.sensitivity_batch([ref_window], wrt=("weights",))
    with pytest.raises(ValueError, match="diagnostic"):
        grad_engine.sensitivity_batch([ref_window], diagnostic="nope")
    with pytest.raises(ValueError, match="observation"):
        grad_engine.sensitivity_batch([ref_window], diagnostic="surge_mse")
    with pytest.raises(ValueError, match="StormOverlay"):
        grad_engine.sensitivity_batch([ref_window], wrt=("storm",))
    assert grad_engine.sensitivity_batch([]) == []


def test_gradient_request_validation(ref_window):
    with pytest.raises(ValueError, match="diagnostic"):
        GradientRequest(ref_window, diagnostic="nope")
    with pytest.raises(ValueError, match="wrt"):
        GradientRequest(ref_window, wrt=())
    with pytest.raises(ValueError, match="observation"):
        GradientRequest(ref_window, diagnostic="surge_mse")
    with pytest.raises(ValueError, match="StormOverlay"):
        GradientRequest(ref_window, wrt=("fields", "storm"))


# ---------------------------------------------------------------------------
# 3. serving tier
# ---------------------------------------------------------------------------
def test_served_gradient_bitwise_equals_direct(engine, windows):
    """Thread backend: the served response IS the direct backward —
    bitwise, because the scheduler literally calls sensitivity_batch
    on the micro-batch the requests coalesced into."""
    batch = windows[:3]
    with ForecastServer(engine, autostart=False, warm_plans=False) as srv:
        futures = [srv.submit_sensitivity(
            GradientRequest(w, diagnostic="mean_surge",
                            wrt=("fields", "storm"), storm=STORM))
            for w in batch]
        srv.flush()
        served = [f.result() for f in futures]
    direct = engine.sensitivity_batch(
        batch, diagnostic="mean_surge", wrt=("fields", "storm"),
        storms=[STORM] * len(batch))
    for s, d in zip(served, direct):
        assert isinstance(s, SensitivityResult)
        assert s.value == d.value
        assert s.d_storm == d.d_storm
        for var in VARS:
            np.testing.assert_array_equal(getattr(s.d_fields, var),
                                          getattr(d.d_fields, var))
    # served futures carry the version of the replica that ran them
    assert all(f.engine_version == 1 for f in futures)


def test_gradient_cache_and_dedup(engine, windows):
    req = GradientRequest(windows[0], diagnostic="mean_surge")
    with ForecastServer(engine, cache_bytes=1 << 22, autostart=False,
                        warm_plans=False) as srv:
        # two identical submissions before any flush: one leader, one
        # dedup follower, a single gradient micro-batch
        fa = srv.submit_sensitivity(req)
        fb = srv.submit_sensitivity(req)
        srv.flush()
        ra, rb = fa.result(), fb.result()
        assert srv.deduped_requests == 1
        assert srv.metrics()["grad_batches"] == 1
        # third submission after settle: pure cache hit, no engine work
        fc = srv.submit_sensitivity(req)
        assert fc.done() and fc.cache_hit
        rc = fc.result()
        assert srv.metrics()["grad_batches"] == 1
        for r in (rb, rc):
            assert r.value == ra.value
            np.testing.assert_array_equal(r.d_fields.zeta,
                                          ra.d_fields.zeta)
        # copies, not aliases: consumers may mutate their results
        rc.d_fields.zeta[...] = 0.0
        rd = srv.submit_sensitivity(req).result()
        assert not np.array_equal(rd.d_fields.zeta, rc.d_fields.zeta)


def test_gradient_keys_are_disjoint(windows):
    w = windows[0]
    base = GradientRequest(w, diagnostic="mean_surge")
    # gradient vs forecast namespaces
    assert gradient_key(base) != window_key(w)
    # every request facet feeds the digest
    assert gradient_key(base) != gradient_key(
        GradientRequest(w, diagnostic="peak_surge"))
    assert gradient_key(base) != gradient_key(
        GradientRequest(w, diagnostic="mean_surge",
                        wrt=("fields", "storm"), storm=STORM))
    assert gradient_key(
        GradientRequest(w, diagnostic="mean_surge",
                        wrt=("fields", "storm"), storm=STORM)) != \
        gradient_key(GradientRequest(
            w, diagnostic="mean_surge", wrt=("fields", "storm"),
            storm=STORM.replace(max_wind=STORM.max_wind + 1.0)))
    obs = np.zeros((T, H, W))
    assert gradient_key(
        GradientRequest(w, diagnostic="surge_mse", observation=obs)) != \
        gradient_key(GradientRequest(
            w, diagnostic="surge_mse", observation=obs + 1.0))
    # determinism
    assert gradient_key(base) == gradient_key(
        GradientRequest(w.copy(), diagnostic="mean_surge"))


def test_mixed_traffic_never_shares_a_batch(engine, windows):
    """Forecast and gradient requests (and gradient requests with
    different signatures) each flush as their own micro-batch, in FIFO
    order."""
    sched = MicroBatchScheduler(engine, max_batch=8, autostart=False)
    f1 = sched.submit(windows[0])
    g1 = sched.submit_gradient(GradientRequest(windows[1]))
    g2 = sched.submit_gradient(GradientRequest(windows[2]))
    g3 = sched.submit_gradient(
        GradientRequest(windows[3], diagnostic="mean_surge"))
    f2 = sched.submit(windows[4])
    sched.flush()
    kinds = [(b.kind, b.size) for b in sched.metrics.batches]
    assert kinds == [("forecast", 1), ("gradient", 2), ("gradient", 1),
                     ("forecast", 1)]
    assert sched.metrics.grad_batches == 2
    assert sched.metrics.backward_seconds > 0.0
    assert sched.metrics.summary()["grad_batches"] == 2
    for f in (f1, g1, g2, g3, f2):
        f.result()
    sched.close()


def test_pool_metrics_count_gradients(engine, windows):
    pool = EngineWorkerPool(engine, replicas=2, autostart=False)
    try:
        futs = [pool.submit_gradient(GradientRequest(w))
                for w in windows[:4]]
        pool.flush()
        for f in futs:
            assert isinstance(f.result(), SensitivityResult)
        summary = pool.metrics.summary()
        assert pool.metrics.grad_batches >= 1
        assert summary["grad_batches"] == pool.metrics.grad_batches
        assert summary["backward_seconds"] > 0.0
    finally:
        pool.close()


def test_process_and_host_backends_reject_gradients(engine, windows):
    """The proxy executors transport arrays, not autograd tapes, so
    gradient submission must fail fast with guidance — at the one
    guard, the scheduler's capability check — and a pool must roll the
    admission back."""
    # the real proxy classes genuinely lack the adjoint entry point
    assert not hasattr(ProcessWorker, "sensitivity_batch")
    assert not hasattr(HostWorker, "sensitivity_batch")

    class ForwardOnly:
        """What a ProcessWorker/HostWorker proxy looks like to its
        scheduler: forecast_batch + time_steps, no sensitivity_batch."""
        time_steps = T

        def forecast_batch(self, refs):
            raise AssertionError("must not be reached")

    req = GradientRequest(windows[0])
    with EngineWorkerPool(ForwardOnly(), autostart=False) as pool:
        with pytest.raises(NotImplementedError, match="backend='thread'"):
            pool.submit_gradient(req)
        worker = pool.workers[0]
        assert (worker.outstanding, worker.submitted) == (0, 0)
        assert worker.scheduler.pending == 0

    sched = MicroBatchScheduler(ForwardOnly(), autostart=False)
    with pytest.raises(NotImplementedError, match="sensitivity_batch"):
        sched.submit_gradient(req)
    sched.close()


def test_served_gradient_threaded_mode(engine, windows):
    """Autostarted (threaded) server: the default deployment serves
    gradients concurrently with forecasts."""
    with ForecastServer(engine, cache_bytes=1 << 22, warm_plans=False) as srv:
        gf = srv.submit_sensitivity(GradientRequest(windows[5]))
        ff = srv.submit(windows[6])
        grad = gf.result(timeout=30.0)
        fc = ff.result(timeout=30.0)
    assert isinstance(grad, SensitivityResult)
    assert grad.d_fields.zeta.shape == (T, H, W)
    assert fc.fields.zeta.shape == (T, H, W)
