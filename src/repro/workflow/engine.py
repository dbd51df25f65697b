"""Batched forecast engine: the vectorised inference core.

Every consumer of the surrogate — single-episode forecasts, ensemble
uncertainty quantification, dual-model rollouts, multi-scenario hybrid
serving — ultimately needs the same five steps: normalisation, mesh
padding, episode assembly, the model forward, and denormalisation +
cropping.  :class:`ForecastEngine` runs N episodes through one batched
model forward instead of N; the other four steps run row by row, each
episode staged as one row of the model's inputs and finished from one
row of its outputs — on a compiled batch inside the row shard that
replays that row.  The paper motivates exactly this regime: "an
ensemble of tens of thousands of models for uncertainty
quantification" (§I) is only affordable when members share a forward.

:class:`~repro.workflow.forecast.SurrogateForecaster` keeps its
one-episode API as the batch-1 special case of this engine.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import BOUNDARY_WIDTH, _rim_mask
from ..data.preprocess import Normalizer
from ..swin.model import CoastalSurrogate
from ..tensor import PlanExecutor, Tensor, enable_grad, no_grad
from ..tensor import plan as _plan

_VARS = ("u3", "v3", "w3", "zeta")


@dataclass
class FieldWindow:
    """A window of physical fields (denormalised, unpadded).

    ``u3, v3, w3``: (T, H, W, D); ``zeta``: (T, H, W).
    """

    u3: np.ndarray
    v3: np.ndarray
    w3: np.ndarray
    zeta: np.ndarray

    @property
    def T(self) -> int:
        return self.zeta.shape[0]

    def copy(self) -> "FieldWindow":
        return FieldWindow(self.u3.copy(), self.v3.copy(),
                           self.w3.copy(), self.zeta.copy())

    @staticmethod
    def concat(windows: Sequence["FieldWindow"]) -> "FieldWindow":
        """Concatenate windows along time; meshes must match exactly."""
        windows = list(windows)
        if not windows:
            raise ValueError("FieldWindow.concat: no windows to concatenate")
        base = windows[0]
        for i, w in enumerate(windows[1:], start=1):
            for var in ("u3", "v3", "w3", "zeta"):
                got = getattr(w, var).shape[1:]
                want = getattr(base, var).shape[1:]
                if got != want:
                    raise ValueError(
                        "FieldWindow.concat: windows must share one mesh; "
                        f"window {i} has {var} mesh {got} != {want}")
        return FieldWindow(
            np.concatenate([w.u3 for w in windows], axis=0),
            np.concatenate([w.v3 for w in windows], axis=0),
            np.concatenate([w.w3 for w in windows], axis=0),
            np.concatenate([w.zeta for w in windows], axis=0),
        )


@dataclass
class ForecastResult:
    """Forecast plus bookkeeping.

    ``inference_seconds`` is the wall clock of the forward the episode
    shared — the model call on the eager path, the longest row shard's
    replay on the compiled path; staging and finishing are outside it
    — split evenly over the batch, so sums over results remain the
    total time actually spent in the model.
    """

    fields: FieldWindow
    inference_seconds: float
    episodes: int = 1
    #: whether the forward replayed a compiled plan (bitwise-identical
    #: to the eager path either way)
    compiled: bool = False
    #: batch size of the plan that served this result — equal to the
    #: request batch on an exact hit, larger when a partial batch was
    #: padded into a bucket, ``None`` on the eager path
    plan_batch: Optional[int] = None
    #: engine version that produced this result when served through a
    #: versioned pool (:class:`~repro.serve.pool.EngineWorkerPool`);
    #: ``None`` for direct engine calls
    engine_version: Optional[int] = None

    def copy(self) -> "ForecastResult":
        """Private copy for a consumer that did not pay for the forward
        (a cache hit, a dedup follower): the fields are deep-copied and
        ``inference_seconds`` is 0.0, so sums over results stay the
        time actually spent in the model."""
        return ForecastResult(self.fields.copy(), 0.0, self.episodes,
                              engine_version=self.engine_version)

    def nbytes(self) -> int:
        """Bytes held by the field arrays (cache accounting)."""
        f = self.fields
        return f.u3.nbytes + f.v3.nbytes + f.w3.nbytes + f.zeta.nbytes


#: Staged input bytes per batch row (x3d + x2d, float32) from which a
#: compiled batch replays as row shards, one per CPU, in parallel.
#: One b8 ``forecast_batch`` per cell, median ms of 60 (serving) / 6
#: (estuary) alternating calls, BLAS pinned on both sides, on the
#: two-core Xeon of ``benchmarks/e2e/reference/host.json``, outputs
#: bitwise equal:
#:
#:   mesh, T            bytes/row   1 × b8   2 × b4 shards
#:   serving 16×16×6, 4   77.8 KB     10.6       12.4   (slower)
#:   estuary 64×64×6, 8   2.49 MB      460        294   (faster)
#:
#: A small row's kernels are too short to pay the hand-off to a pool
#: thread; a large row's are long, bandwidth-bound, and get a core each.
SHARD_ROW_BYTES = 1 << 20

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()

#: ``stage(inputs, lo, hi)`` / ``finish(outputs, lo, hi)``: batch rows
#: ``lo:hi`` into / out of the leading rows of one shard's arrays
RowCallback = Callable[[Sequence[np.ndarray], int, int], None]


def _cpus() -> int:
    """CPUs this process may run on: the shard count of a large batch."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                    # not Linux
        return os.cpu_count() or 1


def _shard_pool() -> ThreadPoolExecutor:
    """The persistent pool of ``_cpus() - 1`` threads that replays every
    shard but a call's first (the caller replays that one itself)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cpus() - 1),
                                       thread_name_prefix="repro-shard")
        return _pool


def _plan_buckets(max_batch: int) -> List[int]:
    """The batch sizes :meth:`ForecastEngine.compile_buckets` compiles
    for ``max_batch``: powers of two below it, plus ``max_batch``."""
    max_batch = int(max_batch)
    if max_batch < 1:
        raise ValueError("compile_buckets() needs max_batch >= 1")
    sizes = {max_batch}
    b = 1
    while b < max_batch:
        sizes.add(b)
        b *= 2
    return sorted(sizes)


class CompiledForward:
    """A captured model forward for one batch size.

    ``plan`` is the traced :class:`~repro.tensor.plan.ExecutionPlan` of
    one **shard**: ``rows`` batch rows, and a batch replays as
    ``shards`` contiguous row shards of it (``shards == 1`` unless the
    engine's rows are large, see :data:`SHARD_ROW_BYTES`).  :meth:`run`
    runs the first shard on the calling thread and the others on the
    shard pool.  A shard is the whole batch pipeline for its rows: it
    stages them into its executor's input buffers, replays, and
    finishes them from the executor's arena.  The forward is
    row-independent, so the bits are the unsharded replay's.

    Executors come from a free-list of
    :class:`~repro.tensor.plan.PlanExecutor` instances: executors are
    single-threaded by design (each owns an arena blob and its input
    buffers), so every shard of every concurrent call
    :meth:`acquire`\\ s its own and :meth:`release`\\ s it once its rows
    are finished.  The free-list is bounded by the actual concurrency,
    and released executors are reused, so steady state allocates no
    arena and no input buffer.
    """

    def __init__(self, plan, shards: int):
        self.plan = plan
        self.shards = shards
        self.rows = plan.slots[plan.inputs[0]].shape[0]
        self._free: List[PlanExecutor] = []
        self._lock = threading.Lock()
        self.executors_created = 0

    def acquire(self) -> PlanExecutor:
        with self._lock:
            if self._free:
                return self._free.pop()
        executor = PlanExecutor(self.plan)
        with self._lock:
            self.executors_created += 1
        return executor

    def release(self, executor: PlanExecutor) -> None:
        with self._lock:
            self._free.append(executor)

    def run(self, n: int, stage: RowCallback, finish: RowCallback
            ) -> float:
        """Run batch rows ``0 .. n − 1`` (``n <= rows * shards``);
        returns the forward's seconds: the longest shard's replay.

        Only shards holding a real row run.  Each calls
        ``stage(executor.inputs, lo, hi)`` to write its batch rows
        ``lo:hi`` into the leading rows of its executor's input
        buffers, zeroes the pad rows after them (their outputs are
        never read), replays, and calls ``finish(outputs, lo, hi)`` on
        the output arena views, which are valid only until the executor
        is released.
        """
        spans = [(lo, min(lo + self.rows, n))
                 for lo in range(0, n, self.rows)]
        pool = _shard_pool() if len(spans) > 1 else None
        others = [pool.submit(self._run_shard, stage, finish, *span)
                  for span in spans[1:]]
        try:
            seconds = self._run_shard(stage, finish, *spans[0])
        finally:
            for future in others:    # rows are finished in place: no
                future.result()      # return before every shard ends
        return max([seconds] + [future.result() for future in others])

    def _run_shard(self, stage: RowCallback, finish: RowCallback,
                   lo: int, hi: int) -> float:
        executor = self.acquire()
        try:
            inputs = executor.inputs
            stage(inputs, lo, hi)
            for buf in inputs:       # pad rows hold zeros, never the
                buf[hi - lo:] = 0    # rows of an earlier call
            t0 = time.perf_counter()
            outputs = executor.run(inputs)
            seconds = time.perf_counter() - t0
            finish(outputs, lo, hi)  # arena views: read before release
            return seconds
        finally:
            self.release(executor)


class ForecastEngine:
    """Vectorised (IC, boundary-condition) episode inference.

    Parameters
    ----------
    model: trained surrogate; its ``config.mesh`` fixes the padded
        (H', W') every episode is staged onto.
    normalizer: fitted z-score statistics.

    The boundary-condition slots keep a rim of ``boundary_width``
    (:data:`~repro.data.dataset.BOUNDARY_WIDTH`) cells.  Batches whose
    shape matches a plan prepared with :meth:`compile` replay that plan
    instead of walking the dynamic eager path.  A
    batch *smaller* than any compiled plan is zero-padded up to the
    nearest compiled batch size (its "bucket"), replayed there, and the
    outputs sliced back — the forward is row-independent, so the sliced
    result is still bitwise identical to the unpadded eager run.  Only
    a batch larger than every compiled plan falls back to eager.

    When a staged row is large (:data:`SHARD_ROW_BYTES`: the estuary
    mesh, not the serving mesh), a compiled batch replays as row shards,
    one per CPU, on the caller and a persistent pool of threads; eager
    never shards.  Every replay pins NumPy's OpenBLAS to one thread
    (:func:`~repro.tensor.plan.single_thread_blas`).

    Staging (normalise → pad → rim-mask assembly, :meth:`_stage_rows`)
    and finishing (denormalise → crop → initial-condition restore,
    :meth:`_finish_rows`) run one row at a time.  On the compiled path
    each shard runs them for its own rows, straight into its
    executor's input buffers and straight out of its arena, so no
    batch-wide staged, output or denormalised array exists; the eager
    and adjoint paths stage the same rows into fresh buffers.

    A compiled plan is the traced forward as recorded — the kernels
    eager runs, in eager's order — so every path a request can take
    (exact plan, bucket, shards, eager) yields the same bits.
    """

    boundary_width = BOUNDARY_WIDTH

    def __init__(self, model: CoastalSurrogate, normalizer: Normalizer):
        self.model = model
        self.normalizer = normalizer
        cfg = model.config
        self.pad_hw = (cfg.mesh[0], cfg.mesh[1])
        self._plans: Dict[Tuple[int, ...], CompiledForward] = {}
        self._plan_lock = threading.Lock()
        # serialises sensitivity_batch backward passes: the backward
        # temporarily clears parameter requires_grad flags (a model-wide
        # write), which concurrent forecast_batch calls never read (they
        # run under no_grad) but concurrent backwards would race on
        self._grad_lock = threading.Lock()
        # counters below are written only under _plan_lock, at plan
        # lookup time, so hit/miss attribution is decided in the same
        # critical section as the lookup itself (no mid-forward race
        # with compile())
        self.plan_hits = 0       # forwards served by a compiled plan
        self.plan_misses = 0     # forwards that ran the eager path
        self.padded_rows = 0     # pad rows added by bucketing
        self.total_rows = 0      # episode rows actually computed
        self.bucket_hits: Dict[int, int] = {}  # plan batch -> hits

    @property
    def time_steps(self) -> int:
        """Episode length T — part of the batch-executor protocol."""
        return self.model.config.time_steps

    def with_model(self, model: CoastalSurrogate) -> "ForecastEngine":
        """A fresh engine around ``model`` sharing this engine's
        normalizer and boundary configuration.

        This is the hot-swap constructor: a new model deploys as
        ``engine.with_model(new_model)`` so the serving-side
        configuration (and the fitted statistics the model was trained
        against) carries over while plans start from a clean cache —
        plans bake weights, so reusing the old engine's plans for new
        weights would be wrong.
        """
        return ForecastEngine(model, self.normalizer)

    # ------------------------------------------------------------------
    # compiled plans
    # ------------------------------------------------------------------
    def _input_shapes(self, batch: int) -> Tuple[Tuple[int, ...],
                                                 Tuple[int, ...]]:
        """(x3d, x2d) shapes for a ``batch``-episode forward — fully
        determined by the model config, independent of the request
        mesh (episodes are padded to ``pad_hw`` before assembly)."""
        ph, pw = self.pad_hw
        D = self.model.config.mesh[2]
        T = self.time_steps
        return (batch, 3, ph, pw, D, T), (batch, 1, ph, pw, T)

    def _shard_rows(self, batch: int) -> int:
        """Rows per shard of a compiled ``batch``: ``⌈batch / k⌉`` with
        k the CPU count when a staged row holds at least
        :data:`SHARD_ROW_BYTES`, else ``batch`` (one shard)."""
        row = sum(int(np.prod(s[1:])) for s in self._input_shapes(1))
        k = _cpus() if 4 * row >= SHARD_ROW_BYTES else 1
        return -(-batch // k)

    def compile(self, batch: int) -> CompiledForward:
        """Capture the model forward for ``batch`` episodes.

        Traces one forward on zero inputs (the captured program is
        shape-dependent only) at :meth:`_shard_rows` rows, finalizes it
        into a liveness-packed :class:`~repro.tensor.plan.ExecutionPlan`
        and caches it; subsequent :meth:`forecast_batch` calls with
        ``batch`` episodes replay the plan, once per row shard.
        Idempotent and thread-safe.

        Plans bake the weights they were traced with (BatchNorm
        statistics fold into per-channel scale/shift constants, the
        positional tables into one summed table), exactly like engine
        builds in production inference runtimes — after
        ``load_state_dict`` or further training build a fresh engine
        with :meth:`with_model` and recompile.
        """
        batch = int(batch)
        if batch < 1:
            raise ValueError("compile() needs batch >= 1")
        key = self._input_shapes(batch)[0]
        with self._plan_lock:
            cached = self._plans.get(key)
        if cached is not None:
            return cached
        rows = self._shard_rows(batch)
        self.model.eval()
        plan, _ = _plan.trace(
            lambda a, b: self.model(a, b),
            [np.zeros(s, np.float32) for s in self._input_shapes(rows)])
        with self._plan_lock:
            # a concurrent compile of the same shape may have won
            return self._plans.setdefault(
                key, CompiledForward(plan, -(-batch // rows)))

    def compile_buckets(self, max_batch: int) -> List[int]:
        """Compile the bucket set of ``max_batch`` — every power of two
        below it plus ``max_batch`` itself (``8 → 1, 2, 4, 8``;
        ``6 → 1, 2, 4, 6``) — so :meth:`forecast_batch` hits the plan
        cache at any batch size up to ``max_batch``: a partial batch
        pads into the nearest bucket above it (under 2× rows) instead
        of falling back to eager.  Returns the bucket sizes, ascending.

        This is the one place that knows the bucket set: a serving pool
        calls it for every replica it makes, and a remote replica
        inherits whatever plans its parent engine holds.
        """
        buckets = _plan_buckets(max_batch)
        for b in buckets:
            self.compile(b)
        return buckets

    @property
    def compiled_batches(self) -> List[int]:
        """Batch sizes with a cached plan, ascending."""
        with self._plan_lock:
            return sorted(k[0] for k in self._plans)

    def plan_stats(self) -> Dict[str, object]:
        """Plan-cache and bucketing counters (for serving
        metrics), read as **one consistent snapshot**: every counter is
        captured inside a single ``_plan_lock`` critical section, so a
        concurrent forward can never show e.g. a hit without its bucket
        attribution."""
        with self._plan_lock:
            plans = dict(self._plans)
            hits, misses = self.plan_hits, self.plan_misses
            padded, total = self.padded_rows, self.total_rows
            bucket_hits = dict(self.bucket_hits)
        return {
            "plans": len(plans),
            "batches": sorted(k[0] for k in plans),
            "hits": hits,
            "misses": misses,
            "padded_rows": padded,
            "total_rows": total,
            "bucket_pad_fraction": padded / total if total else 0.0,
            "bucket_hits": bucket_hits,
            "executors": sum(p.executors_created for p in plans.values()),
            "shards": {k[0]: p.shards for k, p in plans.items()},
            # what one full-batch call holds: an arena per shard
            "arena_bytes": {k[0]: p.shards * p.plan.arena_bytes()
                            for k, p in plans.items()},
        }

    # ------------------------------------------------------------------
    def _check_batch(self, references: Sequence[FieldWindow]) -> None:
        """Every window is one model episode long, all on one mesh that
        fits inside the model's."""
        T = self.time_steps
        base = references[0]
        for i, r in enumerate(references):
            if r.T != T:
                raise ValueError(
                    f"window length {r.T} != model time_steps {T}")
            for var in ("u3", "v3", "w3", "zeta"):
                got, want = getattr(r, var).shape, getattr(base, var).shape
                if got != want:
                    raise ValueError(
                        "all windows of a batch must share one mesh; "
                        f"window {i} has {var} {got} != {want}")
        (H, W), (ph, pw) = base.zeta.shape[1:3], self.pad_hw
        if H > ph or W > pw:
            raise ValueError(
                f"request mesh ({H}, {W}) exceeds the model mesh "
                f"({ph}, {pw})")

    def _stage_rows(self, references: Sequence[FieldWindow],
                    x3d: np.ndarray, x2d: np.ndarray) -> None:
        """Stage validated windows as the leading rows of the model
        inputs ``x3d`` (·, 3, H', W', D, T) / ``x2d`` (·, 1, H', W', T).

        Per window and variable: normalise in float32, keep only the
        boundary rim in slots 1..T−1, and copy once into the T-last
        row; the mesh pad (rows H.., columns W..) is written with
        zeros, so whatever a row held before never matters.  The bits
        are those of :meth:`Normalizer.normalize` →
        :func:`~repro.data.preprocess.pad_mesh` →
        :func:`~repro.data.dataset.assemble_episode_input_batch`.
        """
        ph, pw = self.pad_hw
        H, W = references[0].zeta.shape[1:3]
        rim = _rim_mask(ph, pw, BOUNDARY_WIDTH, np.float32)[:H, :W]
        mean, std = self.normalizer.mean, self.normalizer.std
        for r, row3, row2 in zip(references, x3d, x2d):
            for var, dst in zip(_VARS, (*row3, row2[0])):
                a = np.subtract(getattr(r, var), mean[var],
                                dtype=np.float32)
                a /= std[var] + Normalizer.EPS
                a[1:] *= rim if var == "zeta" else rim[:, :, None]
                dst[:H, :W] = np.moveaxis(a, 0, -1)
                dst[H:] = 0
                dst[:H, W:] = 0

    def _stage(self, references: Sequence[FieldWindow]
               ) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
        """Stage N validated windows into fresh (x3d, x2d) model inputs
        (the eager and adjoint paths); returns them with the (H, W)
        crop of the request mesh."""
        x3d, x2d = (np.empty(s, np.float32)
                    for s in self._input_shapes(len(references)))
        self._stage_rows(references, x3d, x2d)
        return x3d, x2d, references[0].zeta.shape[1:3]

    def _finish_rows(self, references: Sequence[FieldWindow],
                     p3: np.ndarray, p2: np.ndarray) -> List[FieldWindow]:
        """Fields of validated windows from the leading rows of the
        model outputs ``p3`` (·, 3, H', W', D, T) / ``p2`` (·, 1, H',
        W', T): per window and variable one float64 multiply by
        (std + EPS), ``+= mean``, cropped to the request mesh, then the
        exact initial condition restored — the bits of
        :meth:`Normalizer.denormalize` on the outputs cast to float64.
        """
        H, W = references[0].zeta.shape[1:3]
        mean, std = self.normalizer.mean, self.normalizer.std
        out = []
        for r, row3, row2 in zip(references, p3, p2):
            fields = []
            for var, src in zip(_VARS, (*row3, row2[0])):
                src = np.moveaxis(src[:H, :W], -1, 0)    # (T, H, W[, D])
                a = np.empty(src.shape)
                np.multiply(src, std[var] + Normalizer.EPS, out=a,
                            dtype=np.float64)
                a += mean[var]
                # the initial condition is known exactly — keep it
                a[0] = getattr(r, var)[0]
                fields.append(a)
            out.append(FieldWindow(*fields))
        return out

    def _lookup_plan(self, shape: Tuple[int, ...]
                     ) -> Tuple[Optional[CompiledForward], Optional[int]]:
        """One-critical-section plan lookup **and** outcome recording.

        Exact-shape plans win; otherwise the smallest compiled plan
        whose batch exceeds the request's serves as its bucket (the
        batch pads up, outputs slice back).  The hit/miss, per-bucket
        and padding counters are all updated here, inside the same
        ``_plan_lock`` section as the lookup — the counters describe
        the decision actually taken even if a concurrent
        :meth:`compile` lands while the forward
        itself runs outside the lock.
        """
        n, tail = shape[0], shape[1:]
        with self._plan_lock:
            plan_batch = n if shape in self._plans else min(
                (key[0] for key in self._plans
                 if key[1:] == tail and key[0] > n), default=None)
            if plan_batch is None:
                self.plan_misses += 1
                self.total_rows += n
                return None, None
            self.plan_hits += 1
            self.bucket_hits[plan_batch] = \
                self.bucket_hits.get(plan_batch, 0) + 1
            self.padded_rows += plan_batch - n
            self.total_rows += plan_batch
            return self._plans[(plan_batch,) + tail], plan_batch

    def forecast_batch(self, references: Sequence[FieldWindow]
                       ) -> List[ForecastResult]:
        """Forecast N episodes in one vectorised pass.

        Parameters
        ----------
        references: windows of T snapshots each, all on the same mesh;
            ``u3, v3, w3`` are (T, H, W, D) and ``zeta`` is (T, H, W).
            Slot 0 of each is consumed as the initial condition, slots
            1..T−1 contribute only their lateral boundary rims.

        Returns
        -------
        One :class:`ForecastResult` per input window, in order, each
        holding (T, H, W[, D]) fields on the input mesh; results are
        identical (up to float associativity) to running each window
        through the serial one-episode path.

        A batch with no exact-shape plan pads into the nearest larger
        compiled bucket (zero rows appended, outputs sliced back); the
        forward is row-independent, so the sliced result stays
        bitwise-identical to the unpadded eager run.
        ``ForecastResult.plan_batch`` records the bucket used.

        Thread safety: this method never writes model or normalizer
        state (``eval()`` is an idempotent flag write and the autograd
        switch is thread-local), and the input windows are only read —
        so concurrent calls on one engine, or on several engines
        sharing one model (an
        :class:`~repro.serve.pool.EngineWorkerPool` of replicas), are
        safe without locking.  The compiled path keeps the guarantee:
        plan *executors* own mutable arena and input buffers, so every
        shard of every call acquires a private executor from the plan's
        free-list (:class:`CompiledForward`), stages its rows into that
        executor's buffers, and returns it only after its rows are
        finished.
        """
        references = list(references)
        if not references:
            return []
        n = len(references)
        self._check_batch(references)
        compiled_fwd, plan_batch = self._lookup_plan(
            self._input_shapes(n)[0])

        self.model.eval()
        if compiled_fwd is not None:
            fields: List[Optional[FieldWindow]] = [None] * n

            def stage(inputs, lo, hi):
                self._stage_rows(references[lo:hi], *inputs)

            def finish(outputs, lo, hi):
                fields[lo:hi] = self._finish_rows(references[lo:hi],
                                                  *outputs)

            seconds = compiled_fwd.run(n, stage, finish)
        else:
            x3d, x2d, _ = self._stage(references)
            t0 = time.perf_counter()
            with no_grad():
                p3d, p2d = self.model(Tensor(x3d), Tensor(x2d))
            seconds = time.perf_counter() - t0
            fields = self._finish_rows(references, p3d.data, p2d.data)

        return [ForecastResult(f, seconds / n,
                               compiled=compiled_fwd is not None,
                               plan_batch=plan_batch) for f in fields]

    # ------------------------------------------------------------------
    # adjoint / sensitivity path
    # ------------------------------------------------------------------
    def _assembly_adjoint(self, g3: np.ndarray, g2: np.ndarray,
                          crop: Tuple[int, int]):
        """Leaf gradients (N, 3, H', W', D, T) / (N, 1, H', W', T) back
        to ∂J/∂(u3, v3, w3, ζ) in physical units on the request mesh:
        the analytic adjoint of :meth:`_stage`."""
        H, W = crop
        eps = Normalizer.EPS
        g3 = np.asarray(g3, dtype=np.float64)
        g2 = np.asarray(g2, dtype=np.float64)
        ph, pw = self.pad_hw
        mask = _rim_mask(ph, pw, BOUNDARY_WIDTH, np.float64)
        gvol = np.moveaxis(g3, -1, 2)               # (N,3,T,H',W',D)
        grad_vol = gvol * mask[:, :, None]
        grad_vol[:, :, 0] = gvol[:, :, 0]           # IC slot: full fields
        gz = np.moveaxis(g2, -1, 2)[:, 0]           # (N,T,H',W')
        grad_zeta = gz * mask
        grad_zeta[:, 0] = gz[:, 0]
        # pad adjoint = crop; z-score adjoint = divide by (std + EPS)
        std = self.normalizer.std
        return (grad_vol[:, 0, :, :H, :W] / (std["u3"] + eps),
                grad_vol[:, 1, :, :H, :W] / (std["v3"] + eps),
                grad_vol[:, 2, :, :H, :W] / (std["w3"] + eps),
                grad_zeta[:, :, :H, :W] / (std["zeta"] + eps))

    def sensitivity_batch(self, references: Sequence[FieldWindow], *,
                          wrt: Sequence[str] = ("fields",),
                          diagnostic: str = "peak_surge",
                          observations=None, storms=None):
        """Differentiate a scalar diagnostic of N episodes' forecasts.

        The adjoint counterpart of :meth:`forecast_batch`: stages the
        batch as it does (normalise → pad → rim-mask assembly), runs
        one grad-enabled batched forward of the model's ζ forecast
        alone (:meth:`~repro.swin.model.CoastalSurrogate.surface`:
        every diagnostic reads ζ only, so the 3-D head is neither
        computed nor taped), reduces the predicted surge to a scalar
        diagnostic per episode, and pulls the gradient back through
        the model *and* the staging pipeline, so the returned
        sensitivities are in physical units on the request mesh.

        Parameters
        ----------
        references: reference windows, exactly as for
            :meth:`forecast_batch`.
        wrt: subset of ``("fields", "storm")``.  ``"fields"`` returns
            ∂J/∂(input fields) as a :class:`FieldWindow` per episode;
            ``"storm"`` additionally chains the field adjoint through a
            differentiable storm overlay and returns ∂J/∂θ for every
            :data:`~repro.workflow.sensitivity.STORM_PARAMS` entry.
        diagnostic: a :data:`~repro.workflow.sensitivity.DIAGNOSTICS`
            name, reduced over forecast steps 1..T−1 of the predicted
            surge (slot 0 is the exactly-restored initial condition and
            carries no model sensitivity).
        observations: per-episode observed surge windows (T, H, W),
            required by ``surge_mse``.
        storms: per-episode
            :class:`~repro.workflow.sensitivity.StormOverlay`
            hypotheses (or ``None`` entries).  Each overlay is applied
            to its reference window *before* the forward, so the storm
            parameters sit upstream of normalisation and the reported
            ∂J/∂θ is the true end-to-end sensitivity.  All overlays of
            a batch are evaluated in one broadcast expression, and all
            their parameters pulled back with one backward.

        Returns
        -------
        One :class:`~repro.workflow.sensitivity.SensitivityResult` per
        episode, in order.  ``backward_seconds`` is the wall clock of
        the model's tape forward plus its backward, split evenly over
        the batch (mirroring :class:`ForecastResult.inference_seconds`);
        overlay apply, staging, the assembly adjoint and the overlay
        VJP are outside it.

        Notes
        -----
        The backward always runs the eager autograd graph — compiled
        plans are forward-only (traced backward plans are roadmap
        work, see ``docs/differentiation.md``) — and is serialised per
        engine by an internal lock; concurrent :meth:`forecast_batch`
        calls proceed untouched.  Every sensitivity exposed here is
        validated against central finite differences
        (:func:`repro.tensor.gradcheck.numerical_grad`) in
        ``tests/test_sensitivity.py``.
        """
        from .sensitivity import (DIAGNOSTICS, SensitivityResult,
                                  compose_batch, overlay_vjp)
        from ..tensor import astensor

        references = list(references)
        if not references:
            return []
        n = len(references)
        wrt = tuple(wrt)
        bad = [w for w in wrt if w not in ("fields", "storm")]
        if bad or not wrt:
            raise ValueError(
                f"wrt must be a non-empty subset of ('fields', 'storm'); "
                f"got {wrt}")
        if diagnostic not in DIAGNOSTICS:
            raise ValueError(
                f"unknown diagnostic {diagnostic!r}; expected one of "
                f"{sorted(DIAGNOSTICS)}")
        observations = list(observations) if observations is not None \
            else [None] * n
        storms = list(storms) if storms is not None else [None] * n
        if len(observations) != n or len(storms) != n:
            raise ValueError(
                "observations/storms must match the reference batch")
        if diagnostic == "surge_mse" and any(o is None for o in observations):
            raise ValueError(
                "diagnostic 'surge_mse' requires an observation per episode")
        if "storm" in wrt and any(s is None for s in storms):
            raise ValueError(
                "wrt='storm' requires a StormOverlay per episode")

        # one mesh for the whole batch before the overlays broadcast
        # over it; composing keeps every window's shape
        self._check_batch(references)
        x3d, x2d, (H, W) = self._stage(compose_batch(references, storms))

        std_z = self.normalizer.std["zeta"] + Normalizer.EPS
        mean_z = self.normalizer.mean["zeta"]
        obs_t = None
        if diagnostic == "surge_mse":
            obs_t = astensor(np.stack(
                [np.asarray(o, dtype=np.float64) for o in observations]))

        params = list(self.model.parameters())
        with self._grad_lock:
            # the diagnostic differentiates inputs, not weights — mask
            # the parameters out of the tape so backward neither builds
            # nor accumulates weight gradients (restored below; safe
            # because forecast_batch runs under no_grad and never reads
            # the flag, and this lock serialises sensitivity calls)
            prev_flags = [p.requires_grad for p in params]
            for p in params:
                p.requires_grad = False
            self.model.eval()
            try:
                t0 = time.perf_counter()
                with enable_grad():
                    t3 = Tensor(x3d, requires_grad=True)
                    t2 = Tensor(x2d, requires_grad=True)
                    p2d = self.model.surface(t3, t2)
                    # ζ head → (N, T, H', W') → denormalise → crop:
                    # the in-graph mirror of _finish_rows' epilogue
                    z = p2d[:, 0].transpose(0, 3, 1, 2) \
                        .astype(np.float64) * std_z + mean_z
                    z = z[:, :, :H, :W]
                    per = DIAGNOSTICS[diagnostic](z, obs_t)
                    per.sum().backward()
                seconds = time.perf_counter() - t0
            finally:
                for p, flag in zip(params, prev_flags):
                    p.requires_grad = flag
        values = np.asarray(per.data, dtype=np.float64).reshape(n)

        d_u3, d_v3, d_w3, d_zeta = self._assembly_adjoint(
            t3.grad, t2.grad, (H, W))
        d_storms = [None] * n
        if "storm" in wrt:
            d_storms = overlay_vjp(storms, d_u3, d_v3, d_zeta)
        results = []
        for i in range(n):
            d_fields = None
            if "fields" in wrt:
                d_fields = FieldWindow(
                    np.ascontiguousarray(d_u3[i]),
                    np.ascontiguousarray(d_v3[i]),
                    np.ascontiguousarray(d_w3[i]),
                    np.ascontiguousarray(d_zeta[i]))
            results.append(SensitivityResult(
                value=float(values[i]), diagnostic=diagnostic, wrt=wrt,
                d_fields=d_fields, d_storm=d_storms[i],
                backward_seconds=seconds / n))
        return results
