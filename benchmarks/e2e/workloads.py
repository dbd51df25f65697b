"""The seven workloads: seeded inputs, cold set-up, measured phases,
output checks and (traced run only) per-layer numbers.

Every workload is observed from outside: it times calls into public
functions and reads public counters.  The traced run additionally
wraps those public callables (:func:`install_tracer`); nothing under
``src/`` is edited or asked to time itself.

Phase lengths derive from ``--seconds`` (S):

* serve workloads — closed-loop warm-up 0.1·S (discarded), closed loop
  with 16 outstanding for 0.4·S in 16 segments (throughput, CPU), open
  loop at 40 req/s for 0.5·S (latency);
* direct-call workloads — back-to-back calls for S seconds; a segment
  is S/16 of calls, or one call where a call outlasts that.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import Normalizer, assemble_episode_input_batch, pad_mesh
from repro.hpc import fabric
from repro.hpc.memory import activation_nbytes
from repro.ocean import OceanConfig, RomsLikeModel
from repro.physics import Verifier
from repro.serve import ForecastServer, PoolSaturated
from repro.serve import cache as cache_mod
from repro.serve import hostpool as hostpool_mod
from repro.serve import pool as pool_mod
from repro.serve import server as server_mod
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.swin.flops import surrogate_flops
from repro.tensor import PlanExecutor
from repro.workflow import (DualModelForecaster, ForecastEngine,
                            HybridWorkflow, StormOverlay,
                            SurrogateForecaster)
from repro.workflow.engine import FieldWindow

import harness as hz

VARS = ("u3", "v3", "w3", "zeta")

#: dispatch-bound: batch-8 plan replay ≈ 18 ms, batch-1 ≈ 4 ms
SERVING_CFG = SurrogateConfig(
    mesh=(16, 16, 6), time_steps=4, patch3d=(4, 4, 2), patch2d=(4, 4),
    embed_dim=8, num_heads=(2, 4, 8), depths=(2, 2, 2),
    window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2))
SERVING_WINDOW = (4, 15, 14, 6)          # T, H, W, D

#: bandwidth-bound: ≈ 100 ms per episode at any batch size
ESTUARY_CFG = SurrogateConfig(
    mesh=(64, 64, 6), time_steps=8, patch3d=(4, 4, 2), patch2d=(4, 4),
    embed_dim=12, num_heads=(2, 4, 8), depths=(2, 2, 2),
    window_first=(4, 4, 2, 2), window_rest=(2, 2, 2, 2))
ESTUARY_WINDOW = (8, 60, 60, 6)

#: same conditioning as benchmarks/bench_sensitivity.py: strong enough
#: that the storm moves the diagnostic through the float32 forward
STORM = StormOverlay(x0=6000.0, y0=7000.0, vx=500.0, vy=300.0,
                     max_wind=60.0, radius_max_wind=8000.0,
                     central_pressure_drop=20000.0, dt=3.0)

OPEN_RATE = 40.0          # req/s, ≈ 10 % of one replica's capacity
OUTSTANDING = 16          # one batch of 8 running, one queued behind it
SEGMENTS = 16             # per throughput phase; the median is reported
OPEN_CHUNKS = 10          # open phase, split only to calibrate between
POOL_WINDOWS = 256
HOT_WINDOWS = 32
FRESH_WINDOWS = 4096
HOT_SHARE = 0.8


class CheckFailed(RuntimeError):
    """A response checked during set-up was wrong."""


# ----------------------------------------------------------------------
# seeded builders
# ----------------------------------------------------------------------
def build_model(cfg: SurrogateConfig, seed: int) -> CoastalSurrogate:
    """Untrained surrogate with seeded weights (timing does not depend
    on skill, so nothing is trained)."""
    model = CoastalSurrogate(cfg)
    rng = np.random.default_rng([seed, 1])
    model.load_state_dict({
        k: (v + rng.normal(scale=0.02, size=v.shape)).astype(v.dtype)
        for k, v in model.state_dict().items()})
    return model


def make_windows(rng: np.random.Generator, n: int,
                 shape: Tuple[int, int, int, int]) -> List[FieldWindow]:
    T, H, W, D = shape
    return [FieldWindow(rng.normal(size=(T, H, W, D)),
                        rng.normal(size=(T, H, W, D)),
                        rng.normal(size=(T, H, W, D)),
                        rng.normal(size=(T, H, W)))
            for _ in range(n)]


def unit_normalizer() -> Normalizer:
    return Normalizer({v: 0.1 for v in VARS}, {v: 1.5 for v in VARS})


def window_digest(w: FieldWindow) -> str:
    return hz.array_digest(getattr(w, v) for v in VARS)


def same_fields(a: FieldWindow, b: FieldWindow) -> bool:
    return all(np.array_equal(getattr(a, v), getattr(b, v)) for v in VARS)


# ----------------------------------------------------------------------
# tracing: wrappers around the public callables, installed from here
# ----------------------------------------------------------------------
ENGINE_SPAN = "workflow.engine.forecast_batch"
PLAN_SPAN = "tensor.plan.run"


def install_tracer(tracer: hz.Tracer) -> None:
    # server.py binds window_key by name, so that binding is the call site
    tracer.wrap(server_mod, "window_key", "serve.cache.window_key")
    tracer.wrap(cache_mod.ForecastCache, "get", "serve.cache.get")
    tracer.wrap(cache_mod.ForecastCache, "put", "serve.cache.put")
    tracer.wrap(server_mod.ForecastServer, "submit", "serve.server.submit")
    tracer.wrap(pool_mod.EngineWorkerPool, "submit", "serve.pool.submit")
    tracer.wrap(ForecastEngine, "forecast_batch", ENGINE_SPAN)
    tracer.wrap(ForecastEngine, "sensitivity_batch",
                "workflow.engine.sensitivity_batch")
    tracer.wrap(PlanExecutor, "run", PLAN_SPAN)
    tracer.wrap(hostpool_mod, "pack_frame", "hpc.fabric.pack_frame")
    tracer.wrap(hostpool_mod, "unpack_frame", "hpc.fabric.unpack_frame")
    tracer.wrap(Verifier, "verify_batch", "physics.verify_batch")
    tracer.wrap(HybridWorkflow, "run_many", "workflow.hybrid.run_many")
    tracer.wrap(RomsLikeModel, "forecast", "ocean.forecast")


# ----------------------------------------------------------------------
# shared result shape
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    throughput_eps: float
    latencies: List[float]               # seconds
    cpu_ms_per_episode: float
    attempted: int
    failed: int                          # failed + shed
    shed: int = 0
    extra: Dict[str, object] = field(default_factory=dict)


def stage_inputs(engine: ForecastEngine, windows: Sequence[FieldWindow]):
    """Normalise + pad + assemble, through the public data functions
    (what the engine does before the forward)."""
    ph, pw = engine.pad_hw
    norm = {}
    for var in VARS:
        stack = np.stack([getattr(w, var) for w in windows])
        a = engine.normalizer.normalize(var, stack.astype(np.float32))
        norm[var] = pad_mesh(a, ph, pw, axes=(2, 3))
    return assemble_episode_input_batch(
        norm["u3"], norm["v3"], norm["w3"], norm["zeta"],
        engine.boundary_width)


def probe_engine(tracer: hz.Tracer, engine: ForecastEngine,
                 windows: Sequence[FieldWindow],
                 engine_b1: Optional[ForecastEngine] = None
                 ) -> Dict[str, float]:
    """Layer numbers below the serving stack, on this run's engine and
    windows: engine batch wall, plan replay, staging, eager forward."""
    cfg = engine.model.config
    budget = 0.3
    spans = tracer.spans
    # without its own plan a single window would pad into a larger one
    (engine_b1 or engine).compile(1)
    i0 = tracer.mark()
    hz.repeat(lambda: (engine_b1 or engine).forecast_batch(windows[:1]),
              budget_s=budget)
    i1 = tracer.mark()
    hz.repeat(lambda: engine.forecast_batch(windows[:8]), budget_s=budget)
    i2 = tracer.mark()
    stage = hz.repeat(lambda: stage_inputs(engine, windows[:8]),
                      budget_s=budget / 2)
    eager = engine.with_model(engine.model)      # same weights, no plans
    forward = [sum(r.inference_seconds
                   for r in eager.forecast_batch(windows[:8]))
               for _ in range(3)]
    replay_b8 = statistics.median(hz.durations(spans[i1:i2], PLAN_SPAN))
    plan = engine.compile(8).plan
    return {
        "workflow.engine.batch_ms_b1":
            hz.median_ms(hz.durations(spans[i0:i1], ENGINE_SPAN)),
        "workflow.engine.batch_ms_b8":
            hz.median_ms(hz.durations(spans[i1:i2], ENGINE_SPAN)),
        "workflow.engine.self_ms_b8":
            hz.median_ms(hz.self_durations(spans[i1:i2], ENGINE_SPAN)),
        "data.preprocess.stage_ms_b8": hz.median_ms(stage),
        "tensor.plan.replay_ms_b1":
            hz.median_ms(hz.durations(spans[i0:i1], PLAN_SPAN)),
        "tensor.plan.replay_ms_b8": 1e3 * replay_b8,
        "tensor.plan.steps": plan.n_steps,
        "tensor.plan.arena_mb": plan.arena_bytes() / 1e6,
        # computed, not measured: analytic FLOPs and activation bytes
        # of the configuration over the measured replay time
        "tensor.plan.gflops_b8":
            8 * surrogate_flops(cfg).total / replay_b8 / 1e9,
        "tensor.plan.gbps_b8":
            activation_nbytes(cfg, batch=8, dtype_bytes=4)
            / replay_b8 / 1e9,
        "tensor.eager_forward_ms_b8": hz.median_ms(forward[1:]),  # 1 warm
    }


def plan_counters(stats: Dict[str, object]) -> Dict[str, float]:
    looked_up = stats["hits"] + stats["misses"]
    return {
        "workflow.engine.plan_hit_rate":
            stats["hits"] / looked_up if looked_up else 0.0,
        "workflow.engine.padded_row_share": stats["bucket_pad_fraction"],
    }


# ======================================================================
# serve workloads (1-4)
# ======================================================================
@dataclass
class ServeLive:
    engine: ForecastEngine
    server: ForecastServer
    client: hz.Client
    compile_s: float


class ServeWorkload:
    """One traffic program against ``ForecastServer`` at pool width 1."""

    min_checked = 32          # responses the output check must cover
    speed_exponent = 1.0      # see hz.Calibrator

    def __init__(self, name: str, backend: str, repeat: bool):
        self.name = name
        self.backend = backend
        self.repeat = repeat

    # -- inputs ---------------------------------------------------------
    def inputs(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0])
        self.seed = seed
        self.pool = make_windows(rng, POOL_WINDOWS, SERVING_WINDOW)
        self.probe_window = make_windows(rng, 1, SERVING_WINDOW)[0]
        self.schedule_rng = np.random.default_rng([seed, 2])
        if not self.repeat:
            return
        # 80 % of requests hit a 32-window hot set; the rest are fresh:
        # a cold pool window's volumes with a zeta nobody sent before
        # (a new content digest for 7 KB instead of 128 KB per request)
        T, H, W, _ = SERVING_WINDOW
        zetas = rng.normal(size=(FRESH_WINDOWS, T, H, W))
        cold = self.pool[HOT_WINDOWS:]
        self.fresh = []
        for k in range(FRESH_WINDOWS):
            base = cold[k % len(cold)]
            self.fresh.append(
                FieldWindow(base.u3, base.v3, base.w3, zetas[k]))
        n = 1 << 16
        self.is_hot = rng.random(n) < HOT_SHARE
        self.hot_pick = rng.integers(0, HOT_WINDOWS, size=n)
        self.fresh_rank = np.cumsum(~self.is_hot) - 1

    def next_input(self, seq: int):
        if not self.repeat:
            k = seq % POOL_WINDOWS
            return k, self.pool[k]
        j = seq % len(self.is_hot)
        if self.is_hot[j]:
            k = int(self.hot_pick[j])
            return k, self.pool[k]
        k = int(self.fresh_rank[j]) % FRESH_WINDOWS
        return POOL_WINDOWS + k, self.fresh[k]

    def window_of(self, input_id: int) -> FieldWindow:
        if input_id < POOL_WINDOWS:
            return self.pool[input_id]
        return self.fresh[input_id - POOL_WINDOWS]

    def input_digests(self, n: int) -> List[str]:
        return [window_digest(self.next_input(k)[1]) for k in range(n)]

    def schedule(self, duration: float) -> np.ndarray:
        return hz.arrival_schedule(self.schedule_rng, OPEN_RATE, duration)

    # -- set-up ---------------------------------------------------------
    def setup(self) -> ServeLive:
        engine = ForecastEngine(build_model(SERVING_CFG, self.seed),
                                unit_normalizer())
        t0 = time.perf_counter()
        engine.compile_buckets(8)
        compile_s = time.perf_counter() - t0
        server = ForecastServer(
            engine, workers=1, max_batch=8, max_wait=0.005, max_queue=64,
            router="least-outstanding", backend=self.backend,
            fabric="socket", cache_bytes=(64 << 20) if self.repeat else 0)
        try:
            got = server.submit(self.probe_window).result(timeout=120)
            want = engine.forecast_batch([self.probe_window])[0]
            if not same_fields(got.fields, want.fields):
                raise CheckFailed(f"{self.name}: first response differs "
                                  "from the direct call")
        except BaseException:
            server.close()
            raise
        # looked up per request, so the traced run's wrapper is seen
        client = hz.Client(lambda window: server.submit(window),
                           PoolSaturated, self.next_input)
        return ServeLive(engine, server, client, compile_s)

    def teardown(self, live: ServeLive) -> None:
        live.server.close()

    # -- measured phases ------------------------------------------------
    def measure(self, live: ServeLive, seconds: float, part: str,
                cal: hz.Calibrator,
                tracer: Optional[hz.Tracer] = None) -> Measurement:
        warm_s, open_s, sat_s = {
            "full": (0.1, 0.5, 0.4),
            "plain": (0.1, 0.0, 0.2),       # traced run: untraced baseline
            "traced": (0.0, 0.5, 0.2),
        }[part]
        client = live.client
        client.tracer = tracer
        first = len(client.requests)
        if warm_s:
            client.closed_loop("warm", OUTSTANDING, warm_s * seconds)
        cal.sample()
        # sat runs straight after the warm-up, before open: while load is
        # light the kernel keeps the generator and the scheduler thread
        # on one CPU and only spreads them after ~2 s of sustained load,
        # so a sat phase that follows the open phase straddles the switch
        batches = live.server.scheduler.metrics.batches
        batch0 = len(batches)

        def burst():
            cpu0 = hz.cpu_seconds()
            seg_wall, sent = client.closed_loop(
                "sat", OUTSTANDING, sat_s * seconds / SEGMENTS)
            return seg_wall, hz.cpu_seconds() - cpu0, sent

        rates, sat = [], []
        cpu_scaled = wall = 0.0
        for _ in range(SEGMENTS):
            (seg_wall, cpu, sent), speed = cal.between(burst)
            rates.append(sum(r.ok for r in sent) / seg_wall / speed)
            cpu_scaled += cpu * speed
            wall += seg_wall
            sat += [r for r in sent if r.ok]
        sat_batches = batches[batch0:]
        opened: List[hz.Request] = []
        latencies: List[float] = []
        for _ in range(OPEN_CHUNKS if open_s else 0):
            sent, speed = cal.between(lambda: client.open_loop(
                "open", self.schedule(open_s * seconds / OPEN_CHUNKS)))
            for r in sent:
                if not r.ok:
                    continue
                opened.append(r)
                # the scheduler's flush timer does not run faster on a
                # faster host; everything else in the latency does
                waited = r.queue_s or 0.0
                latencies.append(
                    waited + (r.done - r.due - waited) * speed)
        mine = client.requests[first:]
        return Measurement(
            throughput_eps=statistics.median(rates),
            latencies=latencies,
            cpu_ms_per_episode=1e3 * cpu_scaled / len(sat),
            attempted=len(mine),
            failed=sum(not r.ok for r in mine),
            shed=sum(r.shed for r in mine),
            extra={"open": opened, "sat": sat, "sat_wall": wall,
                   "sat_batches": sat_batches})

    # -- output check (after the clock stops) ---------------------------
    def check(self, live: ServeLive, m: Measurement) -> Tuple[int, int]:
        """Every retained response whose whole micro-batch was retained
        must equal a direct ``forecast_batch`` of the same composition
        bit for bit; retained cache hits and dedup followers must equal
        the engine-served response for the same window."""
        kept = [r for r in live.client.requests
                if r.future is not None and r.ok]
        by_id = {r.future.request_id: r for r in kept if not r.cache_hit}
        checked = wrong = 0
        leader: Dict[int, FieldWindow] = {}
        for rec in live.server.scheduler.metrics.batches:
            members = [by_id.get(rid) for rid in rec.request_ids]
            if rec.failed or any(r is None for r in members):
                continue
            direct = live.engine.forecast_batch(
                [self.window_of(r.input_id) for r in members])
            for r, d in zip(members, direct):
                fields = r.future.result(timeout=0).fields
                checked += 1
                wrong += not same_fields(fields, d.fields)
                leader.setdefault(r.input_id, fields)
        for r in kept:
            if r.cache_hit and r.input_id in leader:
                checked += 1
                wrong += not same_fields(
                    r.future.result(timeout=0).fields, leader[r.input_id])
        return checked, wrong

    # -- per-layer numbers (traced run) ---------------------------------
    def layers(self, live: ServeLive, m: Measurement,
               tracer: hz.Tracer) -> Dict[str, float]:
        server = live.server
        # read once, after the measured phases: metrics() rescans the
        # unbounded record lists
        summary = server.metrics()
        plan_stats = next(iter(server.pool.plan_stats().values()))
        spans = list(tracer.spans)
        out = dict(plan_counters(plan_stats))
        opened, sat = m.extra["open"], m.extra["sat"]
        late = [r.sent - r.due for r in opened]
        out.update({
            "client.gen_late_p99_ms": 1e3 * hz.percentile(late, 99),
            "client.sat_latency_p50_ms":
                1e3 * hz.percentile([r.done - r.sent for r in sat], 50),
            "serve.server.submit_ms_p50":
                hz.median_ms(hz.durations(spans, "serve.server.submit")),
            "serve.server.deduped": summary["deduped_requests"],
            "serve.pool.submit_ms_p50":
                hz.median_ms(hz.durations(spans, "serve.pool.submit")),
            "serve.pool.shed": summary["shed_requests"],
            "serve.pool.spawn_s": summary["spawn_seconds_mean"],
            "serve.scheduler.batches": summary["batches"],
            "tensor.plan.compile_s": live.compile_s,
        })
        queued = [r.queue_s for r in opened if r.queue_s is not None
                  and not r.cache_hit]
        if queued:
            out["serve.scheduler.queue_p50_ms"] = \
                1e3 * hz.percentile(queued, 50)
            out["serve.scheduler.queue_p95_ms"] = \
                1e3 * hz.percentile(queued, 95)
        recs = m.extra["sat_batches"]
        if recs:
            rows = sum(r.plan_batch or r.size for r in recs)
            out.update({
                "serve.scheduler.mean_occupancy":
                    sum(r.size for r in recs) / len(recs),
                "serve.scheduler.timeout_flush_share":
                    sum(r.trigger == "timeout" for r in recs) / len(recs),
                "serve.scheduler.pad_fraction":
                    sum((r.plan_batch or r.size) - r.size
                        for r in recs) / rows,
                "serve.scheduler.plan_batch_share":
                    sum(r.compiled for r in recs) / len(recs),
                "serve.scheduler.busy_fraction":
                    sum(r.seconds for r in recs) / m.extra["sat_wall"],
            })
        if server.cache is not None:
            out.update({
                "serve.cache.key_ms_p50": hz.median_ms(
                    hz.durations(spans, "serve.cache.window_key")),
                "serve.cache.get_ms_p50":
                    hz.median_ms(hz.durations(spans, "serve.cache.get")),
                "serve.cache.put_ms_p50":
                    hz.median_ms(hz.durations(spans, "serve.cache.put")),
                "serve.cache.hits": summary["cache_hits"],
                "serve.cache.misses": summary["cache_misses"],
                "serve.cache.hit_rate": summary["cache_hit_rate"],
                "serve.cache.evictions": summary["cache_evictions"],
                "serve.cache.resident_mb":
                    summary["cache_resident_bytes"] / 1e6,
            })
        n_batches = max(summary["batches"], 1)
        n_requests = max(summary["requests"], 1)
        if self.backend == "process":
            out["serve.procpool.ipc_wait_ms_per_batch"] = \
                1e3 * summary["ipc_wait_s"] / n_batches
            out["serve.procpool.marshal_kb_per_episode"] = \
                summary["marshal_bytes"] / n_requests / 1024
        if self.backend == "host":
            out["serve.hostpool.net_wait_ms_per_batch"] = \
                1e3 * summary["net_wait_s"] / n_batches
            out["serve.hostpool.frame_kb_per_episode"] = \
                summary["frame_bytes"] / n_requests / 1024
            out["serve.hostpool.inflight_depth"] = \
                summary["inflight_depth"]
            arrays = [np.ascontiguousarray(getattr(w, v))
                      for w in self.pool[:8] for v in VARS]
            frame = fabric.pack_frame("batch", 0, {"n": 8}, arrays)
            out["hpc.fabric.pack_ms_b8"] = hz.median_ms(hz.repeat(
                lambda: fabric.pack_frame("batch", 0, {"n": 8}, arrays),
                budget_s=0.1))
            out["hpc.fabric.unpack_ms_b8"] = hz.median_ms(hz.repeat(
                lambda: fabric.unpack_frame(frame), budget_s=0.1))
        out.update(probe_engine(tracer, live.engine, self.pool))
        return out


# ======================================================================
# direct-call workloads (5-7)
# ======================================================================
class DirectWorkload:
    """One caller invoking a public function back to back."""

    units_per_call = 1
    min_calls = 3
    min_checked = 1
    speed_exponent = 1.0      # see hz.Calibrator
    #: a call outlasts S/16, so every call is its own segment
    segment_is_call = False
    #: digest of the first set-up's response: the reference every later
    #: set-up and every measured call of this seed must repeat
    first = None

    def build(self):
        """Cold construction up to (not including) the first call."""
        raise NotImplementedError

    def call(self, live):
        raise NotImplementedError

    def setup(self):
        live = self.build()
        first = self.digest(self.call(live))
        if self.first is None:
            self.first = first
        elif first != self.first:
            raise CheckFailed(f"{self.name}: first response differs "
                              "between two set-ups of one seed")
        return live

    def teardown(self, live) -> None:
        pass

    def measure(self, live, seconds: float, part: str,
                cal: hz.Calibrator,
                tracer: Optional[hz.Tracer] = None) -> Measurement:
        duration = seconds * {"full": 1.0, "plain": 0.3, "traced": 0.3}[part]
        segment_s = 0.0 if self.segment_is_call else duration / SEGMENTS
        span0 = tracer.mark() if tracer is not None else 0
        outputs: List[object] = []

        def segment():
            """Back-to-back calls for ``segment_s`` (at least one); each
            output is digested between calls, outside the timed part."""
            walls, cpu = [], 0.0
            begin = time.perf_counter()
            while not walls or time.perf_counter() - begin < segment_s:
                cpu0, t0 = hz.cpu_seconds(), time.perf_counter()
                out = self.call(live)
                walls.append(time.perf_counter() - t0)
                cpu += hz.cpu_seconds() - cpu0
                outputs.append(self.digest(out))
            return walls, cpu

        rates, latencies, raw_walls = [], [], []
        cpu_scaled = 0.0
        cal.sample()
        start = time.perf_counter()
        while len(outputs) < self.min_calls \
                or time.perf_counter() - start < duration:
            (walls, cpu), speed = cal.between(segment)
            rates.append(
                len(walls) * self.units_per_call / sum(walls) / speed)
            latencies += [w * speed for w in walls]
            raw_walls += walls
            cpu_scaled += cpu * speed
        return Measurement(
            throughput_eps=statistics.median(rates),
            latencies=latencies,
            cpu_ms_per_episode=1e3 * cpu_scaled
            / (len(outputs) * self.units_per_call),
            attempted=len(outputs), failed=0,
            extra={"outputs": outputs, "span0": span0,
                   "raw_walls": raw_walls})

    def digest(self, output):
        """What the check compares of one call's output (outputs of one
        seed must repeat, so a digest is enough)."""
        raise NotImplementedError


class RolloutWorkload(DirectWorkload):
    """The paper's headline unit: one 12-day dual-model forecast."""

    name = "rollout_estuary"
    units_per_call = 9        # 1 coarse + 8 fine episodes
    segment_is_call = True
    #: bandwidth-bound: the calibration kernels only partly predict it
    speed_exponent = 0.4

    def inputs(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        T, H, W, D = ESTUARY_WINDOW
        self.reference = make_windows(rng, 1, (T * T, H, W, D))[0]

    def input_digests(self, n: int) -> List[str]:
        return [window_digest(self.reference)]

    def _forecaster(self, compiled: bool):
        model = build_model(ESTUARY_CFG, self.seed)
        norm = unit_normalizer()
        coarse = SurrogateForecaster(model, norm)
        fine = SurrogateForecaster(model, norm)
        compile_s = 0.0
        if compiled:
            t0 = time.perf_counter()
            coarse.engine.compile(1)
            fine.engine.compile(8)
            compile_s = time.perf_counter() - t0
        T = ESTUARY_CFG.time_steps
        return DualModelForecaster(coarse, fine, coarse_ratio=T), compile_s

    def build(self):
        dual, compile_s = self._forecaster(compiled=True)
        return {"dual": dual, "compile_s": compile_s}

    def call(self, live):
        return live["dual"].forecast(self.reference)

    def digest(self, result) -> str:
        return window_digest(result.fields)

    def check(self, live, m: Measurement) -> Tuple[int, int]:
        """Every compiled-plan rollout equals one eager rollout (fresh
        engines, no plans) bitwise."""
        eager, _ = self._forecaster(compiled=False)
        want = self.digest(eager.forecast(self.reference))
        outputs = m.extra["outputs"]
        return len(outputs), sum(o != want for o in outputs)

    def layers(self, live, m: Measurement, tracer) -> Dict[str, float]:
        dual = live["dual"]
        out = plan_counters(dual.fine.engine.plan_stats())
        out["tensor.plan.compile_s"] = live["compile_s"]
        T = ESTUARY_CFG.time_steps
        ref = self.reference
        windows = [FieldWindow(*(getattr(ref, v)[k * T:(k + 1) * T]
                                 for v in VARS)) for k in range(T)]
        out.update(probe_engine(tracer, dual.fine.engine, windows,
                                engine_b1=dual.coarse.engine))
        return out


class AdjointWorkload(DirectWorkload):
    """Eager tape forward + backward: ``sensitivity_batch`` of four."""

    name = "adjoint_batch"
    units_per_call = 4
    diagnostic = "mean_surge"
    wrt = ("fields", "storm")

    def inputs(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.windows = make_windows(rng, 8, SERVING_WINDOW)
        self.direction = rng.normal(size=SERVING_WINDOW[:3])

    def input_digests(self, n: int) -> List[str]:
        return [window_digest(w) for w in self.windows]

    def build(self):
        engine = ForecastEngine(build_model(SERVING_CFG, self.seed),
                                unit_normalizer())
        t0 = time.perf_counter()
        engine.compile_buckets(8)       # forward baseline + FD check
        return {"engine": engine, "compile_s": time.perf_counter() - t0}

    def call(self, live):
        return live["engine"].sensitivity_batch(
            self.windows[:4], wrt=self.wrt, diagnostic=self.diagnostic,
            storms=[STORM] * 4)

    def digest(self, results) -> str:
        return hz.array_digest(
            [np.array([r.value for r in results]),
             np.array([r.d_storm[k] for r in results
                       for k in sorted(r.d_storm)])]
            + [getattr(r.d_fields, v) for r in results for v in VARS])

    def check(self, live, m: Measurement) -> Tuple[int, int]:
        """Every call repeats the first bitwise, and the field adjoint
        of episode 0 agrees with one central finite difference
        (relative error < 5e-3).  The direction is seeded in magnitude
        and takes the adjoint's sign, so the directional derivative is
        a sum of like-signed terms: along a free random direction it
        can cancel to ~1e-8, below the float32 forward's resolution."""
        outputs = m.extra["outputs"]
        wrong = sum(o != self.first for o in outputs)
        engine, w0, eps = live["engine"], self.windows[0], 1e-2
        adjoint = self.call(live)[0].d_fields.zeta
        direction = np.abs(self.direction) * np.sign(adjoint)

        def value(shift: float) -> float:
            w = w0.copy()
            w.zeta[...] += shift * direction
            out = engine.forecast_batch([STORM.apply(w)])[0]
            return float(out.fields.zeta[1:].mean())

        fd = (value(eps) - value(-eps)) / (2 * eps)
        analytic = float((adjoint * direction).sum())
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic))
        return len(outputs) + 1, wrong + (not rel < 5e-3)

    def layers(self, live, m: Measurement, tracer) -> Dict[str, float]:
        engine = live["engine"]
        out = plan_counters(engine.plan_stats())
        out["tensor.plan.compile_s"] = live["compile_s"]
        grad, backward = [], []

        def one_call():
            t0 = time.perf_counter()
            results = self.call(live)
            grad.append(time.perf_counter() - t0)
            backward.append(sum(r.backward_seconds for r in results))

        hz.repeat(one_call, budget_s=0.5)
        forward = hz.repeat(
            lambda: engine.forecast_batch(self.windows[:4]), budget_s=0.3)
        grad_s = statistics.median(grad)
        out.update({
            "tensor.backward_ms_b4": hz.median_ms(backward),
            "workflow.sensitivity.grad_over_forward":
                grad_s / statistics.median(forward),
            "workflow.sensitivity.backward_fraction":
                statistics.median(backward) / grad_s,
        })
        out.update(probe_engine(tracer, engine, self.windows))
        return out


class HybridWorkload(DirectWorkload):
    """Verify-or-fall-back over 8 scenarios × 4 chained episodes.

    Every scenario starts from an analysis with a seeded surge error,
    so its first episode violates mass conservation and re-runs on the
    solver; the three chained episodes after it pass.  The threshold is
    pinned at set-up to the 75th-percentile boundary of a seeded probe
    (the 32 unchained episode residuals: 24 clean, 8 perturbed), which
    makes the fallback count — 8 of 32 — the same for every seed.
    """

    name = "hybrid_fallback"
    scenarios, episodes = 8, 4
    units_per_call = 32
    segment_is_call = True
    surge_error_m = 3.0
    ocean_cfg = OceanConfig(nx=14, ny=15, nz=6,
                            length_x=14_000.0, length_y=15_000.0)

    def _spinup(self) -> RomsLikeModel:
        ocean = RomsLikeModel(self.ocean_cfg)
        self._state0 = ocean.spinup(duration=0.25 * 86400.0, t0=self.t0)
        return ocean

    def inputs(self, seed: int) -> None:
        """One seeded tidal trajectory; scenario ``i`` is the 16
        snapshots starting at episode ``i``, with the solver state at
        each episode start as its fallback entry point."""
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.t0 = float(rng.uniform(0.0, 25 * 3600.0))
        ocean = self._spinup()
        T = SERVING_CFG.time_steps
        n = (self.scenarios - 1 + self.episodes) * T
        state, snaps, states = self._state0, [], []
        for _ in range(n):
            snaps.append(ocean.diagnose(state))
            states.append(state.copy())
            state = ocean.solver.run(state, self.ocean_cfg.snapshot_interval)
        traj = {v: np.stack([getattr(s, v) for s in snaps]) for v in VARS}
        self.normalizer = Normalizer.fit(traj)
        self.references, self.fallback_states = [], []
        for i in range(self.scenarios):
            sl = slice(i * T, (i + self.episodes) * T)
            ref = FieldWindow(*(traj[v][sl].copy() for v in VARS))
            ref.zeta[0] += self.surge_error_m * rng.uniform(
                -1.0, 1.0, size=ref.zeta[0].shape) * ocean.solver.wet
            self.references.append(ref)
            self.fallback_states.append(states[sl][::T])

    def input_digests(self, n: int) -> List[str]:
        return [window_digest(r) for r in self.references]

    def _threshold(self, forecaster, verifier) -> float:
        T = SERVING_CFG.time_steps
        probe = [FieldWindow(*(getattr(r, v)[e * T:(e + 1) * T]
                               for v in VARS))
                 for r in self.references for e in range(self.episodes)]
        residuals = []
        for k in range(0, len(probe), 8):
            out = forecaster.forecast_batch(probe[k:k + 8])
            residuals += [v.mean_residual for v in verifier.verify_batch(
                [o.fields.zeta for o in out], [o.fields.u3 for o in out],
                [o.fields.v3 for o in out])]
        ordered = np.sort(residuals)
        cut = len(ordered) * 3 // 4
        if ordered[cut] < 2.0 * ordered[cut - 1]:
            raise CheckFailed(
                "hybrid probe: perturbed and clean residuals overlap "
                f"({ordered[cut - 1]:.2e} vs {ordered[cut]:.2e})")
        return float(np.sqrt(ordered[cut - 1] * ordered[cut]))

    def build(self):
        ocean = self._spinup()
        forecaster = SurrogateForecaster(
            build_model(SERVING_CFG, self.seed), self.normalizer)
        t0 = time.perf_counter()
        forecaster.engine.compile(8)
        compile_s = time.perf_counter() - t0
        verifier = Verifier(ocean.grid, ocean.depth,
                            dt=self.ocean_cfg.snapshot_interval)
        return {"workflow": HybridWorkflow(forecaster, ocean, verifier),
                "threshold": self._threshold(forecaster, verifier),
                "compile_s": compile_s, "ocean": ocean}

    def call(self, live):
        out = live["workflow"].run_many(
            self.references, self.fallback_states, live["threshold"])
        live["reports"] = [report for _, report in out]
        return out

    def digest(self, out) -> Tuple:
        """Fallback pattern, residuals and final fields of one call."""
        episodes = [e for _, report in out for e in report.episodes]
        return (tuple(e.used_fallback for e in episodes),
                tuple(e.verification.mean_residual for e in episodes),
                hz.array_digest(getattr(f, v) for f, _ in out
                                for v in VARS))

    def check(self, live, m: Measurement) -> Tuple[int, int]:
        """Fallback count, residuals and fields of every call equal the
        reference run of this seed (the first set-up's, made by a
        separately constructed workflow)."""
        outputs = m.extra["outputs"]
        return len(outputs), sum(o != self.first for o in outputs)

    def layers(self, live, m: Measurement, tracer) -> Dict[str, float]:
        workflow, ocean = live["workflow"], live["ocean"]
        spans = tracer.spans[m.extra["span0"]:]
        episodes = [e for r in live["reports"] for e in r.episodes]
        fallbacks = [e for e in episodes if e.used_fallback]
        runs = hz.self_durations(spans, "workflow.hybrid.run_many")
        # pure-solver cost of the same horizon, from two scenarios
        T = SERVING_CFG.time_steps
        t0 = time.perf_counter()
        for states in self.fallback_states[:2]:
            ocean.forecast(states[0], self.episodes * T - 1)
        solver_s = (time.perf_counter() - t0) * self.scenarios / 2
        out = plan_counters(workflow.forecaster.engine.plan_stats())
        out.update({
            "tensor.plan.compile_s": live["compile_s"],
            "physics.verify_ms_b8":
                hz.median_ms(hz.durations(spans, "physics.verify_batch")),
            "physics.pass_rate": 1.0 - len(fallbacks) / len(episodes),
            "ocean.fallback_ms_per_episode": hz.median_ms(
                [e.fallback_seconds for e in fallbacks]),
            "ocean.fallbacks": len(fallbacks),
            "workflow.hybrid.self_ms_per_episode":
                hz.median_ms(runs) / self.units_per_call,
            "workflow.hybrid.speedup_vs_solver":
                solver_s / statistics.median(m.extra["raw_walls"]),
        })
        T0 = [FieldWindow(*(getattr(r, v)[:T] for v in VARS))
              for r in self.references]
        out.update(probe_engine(tracer, workflow.forecaster.engine, T0))
        return out


def make(name: str):
    table = {
        "serve_thread_unique": lambda: ServeWorkload(name, "thread", False),
        "serve_thread_repeat": lambda: ServeWorkload(name, "thread", True),
        "serve_process_unique": lambda: ServeWorkload(name, "process", False),
        "serve_host_unique": lambda: ServeWorkload(name, "host", False),
        "rollout_estuary": RolloutWorkload,
        "adjoint_batch": AdjointWorkload,
        "hybrid_fallback": HybridWorkload,
    }
    return table[name]()
