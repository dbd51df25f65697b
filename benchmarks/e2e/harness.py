"""Measurement tools shared by every workload.

Statistics, host-speed calibration, resource meters (CPU and RSS of
this process and its live children), the seeded request generator, and
the span tracer.  Nothing here imports
``repro``: the program under test only ever sees generated inputs and
is only ever observed from outside.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import resource
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# ----------------------------------------------------------------------
# names (BENCHMARK.json repeats them; test_harness.py keeps both in step)
# ----------------------------------------------------------------------
WORKLOADS = (
    "serve_thread_unique", "serve_thread_repeat", "serve_process_unique",
    "serve_host_unique", "rollout_estuary", "adjoint_batch",
    "hybrid_fallback",
)

E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "throughput_eps": "episodes/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_episode": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS: Dict[str, str] = {
    "client.offered": "count",
    "client.completed": "count",
    "client.shed": "count",
    "client.failed": "count",
    "client.mismatched": "count",
    "client.failed_fraction": "ratio",
    "client.latency_p95_ms": "ms",
    "client.latency_samples": "count",
    "client.latency_tail_pct": "%",
    "client.host_speed": "ratio",
    "client.gen_late_p99_ms": "ms",
    "client.sat_latency_p50_ms": "ms",
    "serve.server.submit_ms_p50": "ms",
    "serve.server.deduped": "count",
    "serve.cache.key_ms_p50": "ms",
    "serve.cache.get_ms_p50": "ms",
    "serve.cache.put_ms_p50": "ms",
    "serve.cache.hits": "count",
    "serve.cache.misses": "count",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.evictions": "count",
    "serve.cache.resident_mb": "MB",
    "serve.pool.submit_ms_p50": "ms",
    "serve.pool.shed": "count",
    "serve.pool.spawn_s": "s",
    "serve.scheduler.queue_p50_ms": "ms",
    "serve.scheduler.queue_p95_ms": "ms",
    "serve.scheduler.mean_occupancy": "count",
    "serve.scheduler.batches": "count",
    "serve.scheduler.timeout_flush_share": "ratio",
    "serve.scheduler.pad_fraction": "ratio",
    "serve.scheduler.plan_batch_share": "ratio",
    "serve.scheduler.busy_fraction": "ratio",
    "serve.procpool.ipc_wait_ms_per_batch": "ms",
    "serve.procpool.marshal_kb_per_episode": "KB",
    "serve.hostpool.net_wait_ms_per_batch": "ms",
    "serve.hostpool.frame_kb_per_episode": "KB",
    "serve.hostpool.inflight_depth": "count",
    "hpc.fabric.pack_ms_b8": "ms",
    "hpc.fabric.unpack_ms_b8": "ms",
    "workflow.engine.batch_ms_b1": "ms",
    "workflow.engine.batch_ms_b8": "ms",
    "workflow.engine.self_ms_b8": "ms",
    "workflow.engine.plan_hit_rate": "ratio",
    "workflow.engine.padded_row_share": "ratio",
    "data.preprocess.stage_ms_b8": "ms",
    "tensor.plan.replay_ms_b1": "ms",
    "tensor.plan.replay_ms_b8": "ms",
    "tensor.plan.steps": "count",
    "tensor.plan.arena_mb": "MB",
    "tensor.plan.compile_s": "s",
    "tensor.plan.gflops_b8": "GFLOP/s",
    "tensor.plan.gbps_b8": "GB/s",
    "tensor.eager_forward_ms_b8": "ms",
    "tensor.backward_ms_b4": "ms",
    "workflow.sensitivity.grad_over_forward": "ratio",
    "workflow.sensitivity.backward_fraction": "ratio",
    "physics.verify_ms_b8": "ms",
    "physics.pass_rate": "ratio",
    "ocean.fallback_ms_per_episode": "ms",
    "ocean.fallbacks": "count",
    "workflow.hybrid.self_ms_per_episode": "ms",
    "workflow.hybrid.speedup_vs_solver": "ratio",
    "trace.overhead_fraction": "ratio",
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def supported_tail(n: int, candidates=(50, 75, 90, 95, 99)) -> int:
    """Highest candidate percentile with at least ten samples beyond
    it; 0 when not even the median qualifies."""
    best = 0
    for q in candidates:
        if n * (100 - q) >= 1000:           # n · (1 − q/100) ≥ 10
            best = max(best, q)
    return best


def repeat(fn: Callable[[], object], min_reps: int = 3,
           budget_s: float = 0.4) -> List[float]:
    """Wall time of repeated ``fn()`` calls: at least ``min_reps``, then
    more until ``budget_s`` is spent (after one discarded warm call)."""
    fn()
    out: List[float] = []
    t_end = time.perf_counter() + budget_s
    while len(out) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
class Calibrator:
    """How fast the host runs right now, relative to a fixed reference.

    The sandbox shares its cores: identical code runs up to a third
    slower for minutes at a time, CPU seconds included, so no raw time
    repeats within any useful bound.  A burst of fixed NumPy kernels —
    which no change to the repository can touch — runs between the
    segments of every measured phase, and each segment's times are
    scaled by the speed of the bursts either side of it.  Reported
    times are therefore "as on this host when quiet".  Measured while
    sizing: run-to-run spread of a 10-s median fell from 22 % to 7 %.

    Two kernels, because interpreter-bound code loses more to a busy
    sibling core than vectorised code does: a chain of elementwise ops
    over 64×64 arrays (like plan replay on the serving mesh) and the
    same chain over 16×16 arrays (all interpreter, like the solver's
    time step).  The speed is the geometric mean of the two.

    ``exponent`` is the share of that speed a workload's times follow:
    1 for the dispatch-bound workloads the kernels resemble, less for
    one they only partly predict.  The bandwidth-bound
    ``rollout_estuary`` uses 0.4, the slope of log time on log speed
    over 70 of its runs (0.37-0.41 with the allocator pinned and
    without); scaling it in full widened its spread from 10 % to
    17-27 %, not scaling it left 8 %, the exponent leaves 5 %.
    """

    #: chains per second on this host when quiet (only fixes the scale)
    KERNELS = ((64, 9000.0), (16, 38000.0))

    def __init__(self, burst_s: float = 0.03, exponent: float = 1.0):
        self.exponent = exponent
        rng = np.random.default_rng(0)
        self._kernels = [
            (tuple(rng.normal(size=(n, n)).astype(np.float32)
                   for _ in range(3)), reference)
            for n, reference in self.KERNELS]
        self._burst_s = burst_s
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run one burst of each kernel; returns (and records) the
        host speed."""
        speed = 1.0
        for (a, b, c), reference in self._kernels:
            start = time.perf_counter()
            deadline = start + self._burst_s
            n = 0
            while time.perf_counter() < deadline:
                x = a
                for _ in range(20):
                    x = np.tanh(np.multiply(np.add(x, b), c))
                n += 1
            speed *= n / (time.perf_counter() - start) / reference
        speed = speed ** (1.0 / len(self._kernels))
        self.samples.append(speed)
        return speed

    def between(self, work: Callable[[], object]) -> Tuple[object, float]:
        """``work()`` bracketed by two bursts: (its result, the mean
        speed of the bursts to the power ``exponent``).  Consecutive
        calls share the burst in the middle."""
        before = self.samples[-1] if self.samples else self.sample()
        result = work()
        return result, (0.5 * (before + self.sample())) ** self.exponent


# ----------------------------------------------------------------------
# resource meters: this process plus its live children
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def _child_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children()
            if p.pid is not None]


def cpu_seconds() -> float:
    """User + system CPU of this process and of every live child.

    ``RUSAGE_CHILDREN`` only counts children already waited for, and
    the serving workers are alive while we measure, so their clocks
    are read from ``/proc/<pid>/stat`` (10 ms ticks — phases are
    seconds long)."""
    total = time.process_time()
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # fields after the parenthesised command name
                rest = fh.read().rsplit(")", 1)[1].split()
            total += (int(rest[11]) + int(rest[12])) / _TICK
        except (OSError, IndexError, ValueError):
            pass                 # the child exited between list and read
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, ValueError):
            pass
    return total_kb / 1024.0


def _direct_children() -> List[int]:
    """Pids whose parent is this process, from ``/proc`` (workers the
    pools have already joined and closed are gone from
    ``multiprocessing.active_children`` but anything else is not)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                rest = fh.read().rsplit(")", 1)[1].split()
            if int(rest[1]) == me:
                found.append(int(entry))
        except (OSError, IndexError, ValueError):
            pass                 # exited between list and read
    return found


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has
    ended, so that nothing outlives the benchmark.

    Workers first (``terminate``, then ``kill``), then the
    ``multiprocessing`` resource tracker: the ``spawn`` start method
    and ``SharedMemory`` start one, and it only ends once this
    process's end of its pipe closes — left alone that is *after* we
    have exited, which a caller looking for leftovers the moment we
    return does see.  Last, whatever ``/proc`` still lists under this
    process is killed and reaped."""
    workers = multiprocessing.active_children()
    for proc in workers:
        proc.terminate()
    for proc in workers:
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout)
    from multiprocessing import resource_tracker
    # closes the pipe and waits for the pid; a no-op if none runs
    resource_tracker._resource_tracker._stop()
    for pid in _direct_children():
        try:
            os.kill(pid, 9)
        except OSError:
            pass
        try:
            os.waitpid(pid, 0)
        except OSError:
            pass                 # already reaped


def host_fingerprint() -> Dict[str, object]:
    import platform
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{dep.get('name', '?')} {dep.get('version', '')}".strip()
    except Exception:        # noqa: BLE001 — older numpy: no dict mode
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def arrival_schedule(rng: np.random.Generator, rate: float,
                     duration: float) -> np.ndarray:
    """Due times [s] of an open-loop phase: a Poisson process of
    ``rate`` per second over ``duration``, conditioned on its expected
    count (sorted uniforms), so the number of requests repeats exactly
    across seeds while the gaps stay exponential-like."""
    n = max(1, int(round(rate * duration)))
    return np.sort(rng.uniform(0.0, duration, size=n))


def array_digest(arrays: Iterable[np.ndarray]) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# request generator
# ----------------------------------------------------------------------
class Request:
    """One generated request: what was sent, when, and what came back."""

    __slots__ = ("seq", "phase", "input_id", "due", "sent", "done", "ok",
                 "shed", "future", "queue_s", "cache_hit")

    def __init__(self, seq: int, phase: str, input_id, due: float):
        self.seq, self.phase, self.input_id, self.due = \
            seq, phase, input_id, due
        self.sent = self.done = 0.0
        self.ok = self.shed = False
        self.future = None
        self.queue_s = None
        self.cache_hit = False


class Client:
    """A single generator thread driving ``submit(window) -> future``.

    Completion is stamped inside the future's done-callback and phases
    wait on the completion count — ``future.result()`` can return
    before the callbacks have run, which would lose the stamp.  The
    first ``keep`` futures of every phase are retained for the output
    check; later ones are dropped so result arrays do not pile up.
    """

    def __init__(self, submit: Callable, shed_error: type,
                 next_input: Callable[[int], Tuple[object, object]],
                 keep: int = 64, tracer: "Optional[Tracer]" = None):
        self._submit = submit
        self._shed_error = shed_error
        self._next_input = next_input
        self._keep = keep
        self.tracer = tracer
        self.requests: List[Request] = []
        self._sent_in_phase: Dict[str, int] = {}
        self._cond = threading.Condition()
        self._inflight = 0

    # -- one request ----------------------------------------------------
    def _send(self, phase: str, due: float) -> None:
        seq = len(self.requests)
        input_id, window = self._next_input(seq)
        req = Request(seq, phase, input_id, due)
        self.requests.append(req)
        nth = self._sent_in_phase.get(phase, 0)
        self._sent_in_phase[phase] = nth + 1
        with self._cond:
            self._inflight += 1
        if self.tracer is not None:
            self.tracer.request_id = seq
        req.sent = time.perf_counter()
        try:
            future = self._submit(window)
        except self._shed_error as exc:
            req.shed = True
            req.done = time.perf_counter()
            with self._cond:
                self._inflight -= 1
            time.sleep(min(getattr(exc, "retry_after", 0.001), 0.01))
            return
        finally:
            if self.tracer is not None:
                self.tracer.request_id = None
        if nth < self._keep:
            req.future = future
        future.add_done_callback(lambda fut, r=req: self._on_done(r, fut))

    def _on_done(self, req: Request, fut) -> None:
        req.done = time.perf_counter()
        try:
            fut.result(timeout=0)
            req.ok = True
        except Exception:        # noqa: BLE001 — counted, never raised here
            req.ok = False
        req.queue_s = fut.queue_seconds
        req.cache_hit = fut.cache_hit
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def _drain(self, timeout: float = 120.0) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self._inflight == 0,
                                       timeout):
                raise RuntimeError(
                    f"{self._inflight} requests never completed")

    # -- phases ---------------------------------------------------------
    def closed_loop(self, phase: str, outstanding: int,
                    duration: float) -> Tuple[float, List[Request]]:
        """Keep ``outstanding`` requests in flight for ``duration``
        seconds, then wait for the tail; returns (wall seconds
        including the tail, the requests sent)."""
        start = time.perf_counter()
        first = len(self.requests)
        while time.perf_counter() - start < duration:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._inflight < outstanding, 1.0)
                if self._inflight >= outstanding:
                    continue
            self._send(phase, time.perf_counter())
        self._drain()
        return time.perf_counter() - start, self.requests[first:]

    def open_loop(self, phase: str,
                  schedule: Sequence[float]) -> List[Request]:
        """Send one request at each due time of ``schedule`` whether or
        not earlier ones have completed; returns the requests sent."""
        start = time.perf_counter()
        first = len(self.requests)
        for offset in schedule:
            due = start + float(offset)
            # sleep to just before the due time, then spin: a bare
            # sleep overshoots by ~0.1 ms, a fifth of a cache hit
            delay = due - time.perf_counter() - 0.0002
            if delay > 0:
                time.sleep(delay)
            while time.perf_counter() < due:
                pass
            self._send(phase, due)
        self._drain()
        return self.requests[first:]


# ----------------------------------------------------------------------
# span tracer
# ----------------------------------------------------------------------
class Tracer:
    """Timing wrappers around public callables, installed from outside.

    A span is ``(id, name, start, end, parent, request_id)``; the
    parent is the span open on the same thread when this one began,
    and ``request_id`` is whatever the generator set for the request
    it is sending (``None`` on the server's own threads, whose spans
    serve a whole micro-batch).
    """

    def __init__(self):
        self.spans: List[Tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    @property
    def request_id(self):
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or a method on a
        class) with a timing wrapper recording spans called ``name``."""
        original = getattr(owner, attr)
        local, spans, ids = self._local, self.spans, self._ids

        def traced(*args, **kwargs):
            parent = getattr(local, "open", None)
            span_id = next(ids)
            local.open = span_id
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.open = parent
                spans.append((span_id, name, start, end, parent,
                              getattr(local, "request_id", None)))

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": rid}) + "\n")


def durations(spans: Sequence[Tuple], name: str) -> List[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]


def self_times(spans: Sequence[Tuple]) -> Dict[int, float]:
    """Span id → its duration minus the part of that interval its child
    spans cover (children are clipped to the parent and merged, so
    overlapping children are not subtracted twice)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for sid, _, start, end, _, _ in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def self_durations(spans: Sequence[Tuple], name: str) -> List[float]:
    own = self_times(spans)
    return [own[s[0]] for s in spans if s[1] == name]


def median_ms(values: Sequence[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0
