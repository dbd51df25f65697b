"""Compiled inference plans: capture a forward once, replay it raw.

Eager inference walks the full dynamic machinery on every call —
per-op :class:`~repro.tensor.tensor.Tensor` wrapping, ``requires_grad``
bookkeeping, Python control flow in every module, and a fresh output
allocation per primitive.  None of that work depends on the *data*:
under ``no_grad`` the surrogate's forward is a fixed sequence of NumPy
kernel calls whose shapes are fully determined by the input shapes.

This module captures that sequence once and replays it with none of
the dynamic machinery:

* **trace** — :func:`trace` runs a function of Tensors with a
  thread-local :class:`PlanBuilder` active.  Every primitive op (ufunc,
  matmul, conv-GEMM, reshape/transpose, reduction, fused inference
  kernel) already executes through the one dispatcher,
  :func:`repro.tensor.tensor.apply`; while a builder is active it hands
  the op's arrays and slots to :func:`trace_apply`, which runs the op's
  kernel (so shapes and values propagate) *and* records it as a step
  against numbered buffer slots.  Ops whose inputs are all constants
  (parameters, window masks, positional tables, folded BatchNorm
  scale/shift) are constant-folded: their trace-time value is captured
  and no step is recorded.
* **plan** — :class:`ExecutionPlan` is the flat step list plus a
  liveness analysis: every slot's last use is known, so storage-owning
  slots whose lifetimes do not overlap share bytes of one arena blob
  (largest slot first, each at the lowest offset clear of the slots it
  is live with; alias groups — views and in-place updates — are
  tracked so reuse can never clobber a live input).  The plan is
  exactly what the tracer recorded: one step per traced op, nothing
  rewritten afterwards.
* **replay** — a :class:`PlanExecutor` allocates the plan's arena blob
  once, binds every output view into it, then
  :meth:`PlanExecutor.run` replays the steps on raw ``np.ndarray``\\ s:
  no Tensor objects, no graph bookkeeping, outputs written in place
  into the reused slots.  Replay is single-threaded: :meth:`run` is
  a bare loop of kernel calls with NumPy's OpenBLAS pinned to one
  thread (:func:`single_thread_blas`), and
  :meth:`PlanExecutor.profile` is the same loop with a clock around
  each call.  Parallelism is the caller's: an executor per thread, each
  replaying its own rows (``workflow.engine.CompiledForward``).

Replay is **bitwise identical** to the eager path: a primitive has one
forward, its registered kernel, which ``apply`` calls with ``out=None``
(eager, taped or under trace) and replay calls with an arena buffer —
so what can differ is only a kernel's ``out=buffer`` branch and the
tracer / packer / executor around it, and that is what the plan ≡ eager
tests hold (no kernel is ever split or reordered).  A layer that wants
several ufuncs in one dispatch fuses them *inside* its one registered
kernel (``gelu``, ``layernorm``, ``bn_affine``, ``patch_recover``).

Kernels register here for the generic tensor ops and from the modules
that own them (:mod:`repro.tensor.ops_conv` registers the conv-GEMM
kernels, :mod:`repro.nn.layers` / :mod:`repro.nn.attention` /
:mod:`repro.swin.patch` the fused inference kernels) via
:func:`register_kernel`.

This module imports nothing from :mod:`repro.tensor.tensor` at module
scope (which imports it for the registry and the trace state):
:func:`trace_apply` works on plain arrays, and :func:`trace` imports
the Tensor type when it is called.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import itertools
import pickle
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ExecutionPlan",
    "PlanBuilder",
    "PlanExecutor",
    "TraceError",
    "trace",
    "tracing",
    "trace_apply",
    "register_kernel",
    "single_thread_blas",
    "blas_threads",
]


class TraceError(RuntimeError):
    """Raised when a forward cannot be captured as a static plan."""


# ----------------------------------------------------------------------
# kernel registry
# ----------------------------------------------------------------------
#: kernel kinds (how replay treats the output buffer):
#:   compute — writes into a preallocated arena buffer (``out=``)
#:   fresh   — allocates internally; the returned array becomes the slot
#:   view    — returns a view of its first input (no storage)
#:   movement— view *or* storage, decided per call site at trace time
#:             (``np.shares_memory`` — deterministic across replays
#:             because strides replay identically); the non-view kind
#:             is the kernel's ``nonview`` registration argument
#:   inplace — mutates its first input's buffer and returns it
KERNEL_KINDS = ("compute", "fresh", "view", "movement", "inplace")


@dataclass(frozen=True)
class Kernel:
    fn: Callable
    kind: str
    nonview: str = "fresh"    # movement kernels: kind when not a view


#: name -> Kernel; fn(out, ins, consts) -> np.ndarray
KERNELS: Dict[str, Kernel] = {}


def register_kernel(name: str, kind: str, nonview: str = "fresh"):
    """Register ``fn(out, ins, consts) -> np.ndarray`` as a kernel.

    ``out`` is the preallocated output buffer for ``compute`` kernels
    (``None`` at trace time, when the kernel must allocate); ``ins`` is
    the tuple of input arrays; ``consts`` the static argument dict
    captured at trace time.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")

    def deco(fn):
        if name in KERNELS:
            raise ValueError(f"kernel {name!r} already registered")
        KERNELS[name] = Kernel(fn, kind, nonview)
        return fn
    return deco


# ----------------------------------------------------------------------
# trace state
# ----------------------------------------------------------------------
class _TraceState(threading.local):
    #: the class default makes "no trace on this thread" a plain
    #: attribute read; ``getattr(local, name, None)`` on a thread that
    #: never set it raises and catches AttributeError, 0.5 us per op
    builder: Optional["PlanBuilder"] = None


_state = _TraceState()


def tracing() -> bool:
    """Whether a plan is being recorded on this thread."""
    return _state.builder is not None


# ----------------------------------------------------------------------
# plan data model
# ----------------------------------------------------------------------
@dataclass
class SlotSpec:
    """One numbered value produced during the forward."""

    shape: Tuple[int, ...]
    dtype: np.dtype
    kind: str                    # 'input' | 'compute' | 'fresh' | 'view' | 'inplace'
    root: int                    # alias-group representative slot id
    phys: Optional[int] = None   # arena byte offset (compute slots only)

    @property
    def nbytes(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n * np.dtype(self.dtype).itemsize


@dataclass
class Step:
    """One recorded kernel call: ``slots[out] = fn(ins, consts)``."""

    name: str
    fn: Callable
    kind: str
    out: int
    #: inputs, each ("s", slot_id) or ("c", const_id)
    ins: Tuple[Tuple[str, int], ...]
    consts: Dict[str, Any] = field(default_factory=dict)


class ExecutionPlan:
    """A finalized flat kernel program with buffer-reuse assignment.

    Produced by :func:`trace`; executed by :class:`PlanExecutor`.
    Immutable after :meth:`PlanBuilder.finalize`.
    """

    def __init__(self, slots: List[SlotSpec], steps: List[Step],
                 inputs: List[int], outputs: List[int],
                 const_arrays: List[np.ndarray]):
        self.slots = slots
        self.steps = steps
        self.inputs = inputs          # slot ids bound from run() arguments
        self.outputs = outputs        # slot ids returned by run()
        self.const_arrays = const_arrays
        self.arena_total = 0          # bytes of the single arena blob
        # slot ids droppable after each step (mirrors eager refcount
        # freeing, so live fresh buffers never outstay their last use)
        self.step_releases: List[Tuple[int, ...]] = []

    # -- introspection --------------------------------------------------
    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def kernel_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.steps:
            out[s.name] = out.get(s.name, 0) + 1
        return dict(sorted(out.items()))

    def arena_bytes(self) -> int:
        """Bytes of the preallocated arena blob (all compute slots,
        liveness-packed by offset)."""
        return self.arena_total

    def const_bytes(self) -> int:
        return sum(a.nbytes for a in self.const_arrays)

    def _last_uses(self) -> List[int]:
        """Per-slot index of the last step whose alias group needs it."""
        end = len(self.steps)
        group_last: Dict[int, int] = {}
        for i, step in enumerate(self.steps):
            for tag, ref in step.ins:
                if tag == "s":
                    group_last[self.slots[ref].root] = i
            group_last[self.slots[step.out].root] = i
        for out in self.outputs:
            group_last[self.slots[out].root] = end
        return [group_last.get(self.slots[s].root, -1)
                for s in range(self.n_slots)]

    def _build_releases(self) -> None:
        last_use = self._last_uses()
        group_end: Dict[int, int] = {}
        for sid, spec in enumerate(self.slots):
            group_end[spec.root] = max(group_end.get(spec.root, -1),
                                       last_use[sid])
        by_step: Dict[int, List[int]] = {}
        for sid, spec in enumerate(self.slots):
            end = group_end[spec.root]
            if end < len(self.steps):
                by_step.setdefault(end, []).append(sid)
        self.step_releases = [tuple(by_step.get(i, ()))
                              for i in range(len(self.steps))]

    # -- serialisation --------------------------------------------------
    # A plan is a *description* — flat step list, slot specs, baked
    # constants, the arena offset assignment — plus per-step kernel
    # function references.  The functions are registry closures
    # (unpicklable, and process-local anyway), so pickling ships each
    # step by its registered kernel NAME and rebinds the function from
    # the receiving process's registry.  Live buffers never travel:
    # arena blobs belong to PlanExecutors, which hold plans but are not
    # part of them.  Constants (folded weights, masks, tables) DO
    # travel — they are the baked state a worker process needs — and
    # pickling preserves their float bits exactly, so a round-tripped
    # plan replays bitwise-identical to the original.

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "slots": self.slots,
            "steps": [(s.name, s.kind, s.out, s.ins, s.consts)
                      for s in self.steps],
            "inputs": self.inputs,
            "outputs": self.outputs,
            "const_arrays": self.const_arrays,
            "arena_total": self.arena_total,
            "step_releases": self.step_releases,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        _ensure_kernels_registered()
        steps = []
        for rec in state["steps"]:
            if len(rec) != 5:
                raise TraceError(
                    f"cannot deserialize plan: a step record has "
                    f"{len(rec)} fields, this version writes 5")
            name, kind, out, ins, consts = rec
            kernel = KERNELS.get(name)
            if kernel is None:
                raise TraceError(
                    f"cannot deserialize plan: kernel {name!r} is not "
                    "registered in this process (import the module that "
                    "registers it before loading the plan)")
            steps.append(Step(name, kernel.fn, kind, out, ins, consts))
        self.slots = state["slots"]
        self.steps = steps
        self.inputs = state["inputs"]
        self.outputs = state["outputs"]
        self.const_arrays = state["const_arrays"]
        self.arena_total = state["arena_total"]
        self.step_releases = state["step_releases"]

    def to_bytes(self) -> bytes:
        """Serialize the plan (steps by kernel name, constants by
        value, no live arena blobs) for a worker process or disk."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(blob: bytes) -> "ExecutionPlan":
        """Inverse of :meth:`to_bytes`; replays bitwise-identical."""
        plan = pickle.loads(blob)
        if not isinstance(plan, ExecutionPlan):
            raise TraceError(
                f"from_bytes: expected an ExecutionPlan, got "
                f"{type(plan).__name__}")
        return plan


def _ensure_kernels_registered() -> None:
    """Import every module that registers kernels (idempotent).

    Deserialising a plan needs the full registry; in a fresh worker
    process only this module's generic kernels exist until the conv,
    fused-NN and patch-head modules have been imported.
    """
    for mod in ("repro.tensor", "repro.nn.layers", "repro.nn.attention",
                "repro.swin.patch"):
        try:
            importlib.import_module(mod)
        except ImportError as exc:
            raise TraceError(
                f"cannot deserialize plan: importing {mod}, which "
                f"registers plan kernels, failed: {exc}") from exc


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class PlanBuilder:
    """Mutable recording state while a trace is active."""

    def __init__(self):
        self.slots: List[SlotSpec] = []
        self.steps: List[Step] = []
        self.inputs: List[int] = []
        self.const_arrays: List[np.ndarray] = []
        self._const_by_id: Dict[int, int] = {}

    # -- slots ----------------------------------------------------------
    def _new_slot(self, arr: np.ndarray, kind: str,
                  root: Optional[int] = None) -> int:
        sid = len(self.slots)
        self.slots.append(SlotSpec(tuple(arr.shape), arr.dtype, kind,
                                   sid if root is None else root))
        return sid

    def add_input(self, arr: np.ndarray) -> int:
        sid = self._new_slot(arr, "input")
        self.inputs.append(sid)
        return sid

    def add_const(self, arr: np.ndarray, stable: bool) -> int:
        """Capture a constant array.

        ``stable`` constants (model parameters) are captured **by
        reference** — in-place weight updates (``load_state_dict``)
        propagate into existing plans.  Everything else (masks, folded
        scale/shift, positional sums) is captured by value and frozen.
        """
        key = id(arr)
        if key in self._const_by_id:
            return self._const_by_id[key]
        if stable:
            stored = arr
        else:
            stored = np.ascontiguousarray(arr).copy()
            stored.flags.writeable = False
        cid = len(self.const_arrays)
        self.const_arrays.append(stored)
        if stable:
            self._const_by_id[key] = cid
        return cid

    def add_step(self, name: str, kernel: Kernel, kind: str,
                 ins: Sequence[Tuple[str, int]], consts: Dict[str, Any],
                 out_arr: np.ndarray) -> int:
        if kind in ("view", "inplace"):
            root = self.slots[ins[0][1]].root
            out = self._new_slot(out_arr, kind, root=root)
        else:
            out = self._new_slot(out_arr, kind)
        self.steps.append(Step(name, kernel.fn, kind, out, tuple(ins),
                               dict(consts)))
        return out

    # -- finalize: liveness → physical buffer assignment ----------------
    def finalize(self, outputs: List[int]) -> ExecutionPlan:
        for sid in self.inputs:
            # an in-place step writing through to a run() argument would
            # corrupt the caller's array on every replay
            for step in self.steps:
                if step.kind == "inplace" and \
                        self.slots[step.out].root == sid:
                    raise TraceError(
                        f"in-place kernel {step.name!r} targets input "
                        f"slot {sid}; refusing to capture a plan that "
                        "would mutate caller data")
        plan = ExecutionPlan(self.slots, self.steps, self.inputs, outputs,
                             self.const_arrays)
        _pack(plan)
        return plan


def _pack(plan: ExecutionPlan) -> None:
    """Liveness analysis and physical buffer assignment of a fresh
    trace: sets every compute slot's ``phys``, ``plan.arena_total``
    and the per-step release lists."""
    last_use = plan._last_uses()

    # group slots by alias root; a physical buffer frees only when
    # its whole group (the buffer plus every view / in-place handle
    # of it) is past its last use
    group_end: Dict[int, int] = {}
    for sid, spec in enumerate(plan.slots):
        group_end[spec.root] = max(group_end.get(spec.root, -1),
                                   last_use[sid])

    # offset assignment into one arena blob: slots with disjoint
    # lifetimes share bytes whatever their shapes, so the arena
    # high-water tracks the live peak instead of the allocation total
    # — this is what makes peak memory drop below the eager path.
    # Placement is largest first (birth step breaking ties), each at
    # the lowest offset clear of every placed slot it is live with:
    # placing in step order instead leaves holes a later, larger
    # buffer cannot use
    align = 64
    lives = []                                 # (size, born, dies, spec)
    for i, step in enumerate(plan.steps):
        if step.kind == "compute":
            spec = plan.slots[step.out]
            lives.append((-(-spec.nbytes // align) * align, i,
                          group_end[spec.root], spec))
    lives.sort(key=lambda life: (-life[0], life[1]))
    placed: List[Tuple[int, int, int, int]] = []   # (offset, size, born, dies)
    total = 0
    for need, born, dies, spec in lives:
        # live together when the lifetimes share a step: a buffer read
        # during the step that writes another must survive the write
        busy = sorted((o, s) for o, s, b, d in placed
                      if b <= dies and born <= d)
        offset = 0
        for o, s in busy:
            if offset + need <= o:
                break
            offset = max(offset, o + s)
        placed.append((offset, need, born, dies))
        spec.phys = offset
        total = max(total, offset + need)
    plan.arena_total = total
    plan._build_releases()


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def trace_apply(name: str, arrays: Sequence[np.ndarray],
                slots: Sequence[Optional[int]], stable: Sequence[bool],
                consts: Optional[Dict[str, Any]]
                ) -> Tuple[np.ndarray, Optional[int]]:
    """Execute kernel ``name`` on ``arrays`` under trace and record it.

    ``slots[i]`` is the trace slot of ``arrays[i]`` or ``None``: an
    input carrying a slot keeps the plan data-dependent, a slotless one
    becomes a plan constant (captured by reference when ``stable[i]`` —
    a model parameter — else by value).  If *no* input has a slot the
    op is constant-folded (executed, not recorded).  Returns the
    kernel's value and the slot recorded for it, ``None`` when folded.
    """
    b = _state.builder
    kernel = KERNELS[name]
    consts = consts or {}
    value = kernel.fn(None, tuple(arrays), consts)
    if all(s is None for s in slots):
        return value, None
    kind = kernel.kind
    if kind == "movement":
        kind = "view" if np.shares_memory(value, arrays[0]) \
            else kernel.nonview
    if kind == "view" and slots[0] is None:
        # view of a constant: the whole result is constant
        return value, None
    if kind == "inplace" and slots[0] is None:
        # in-place into a constant with a data-dependent operand
        # cannot be captured: each replay would need to re-mutate
        # the (shared, frozen) constant
        raise TraceError(
            f"in-place kernel {name!r} targets a constant while "
            "another input depends on the traced inputs")
    ins = [("s", slot) if slot is not None
           else ("c", b.add_const(arr, stable=stb))
           for arr, slot, stb in zip(arrays, slots, stable)]
    return value, b.add_step(name, kernel, kind, ins, consts, value)


def trace(fn: Callable, example_inputs: Sequence[np.ndarray]
          ) -> Tuple[ExecutionPlan, Any]:
    """Capture ``fn(*tensors)`` as an :class:`ExecutionPlan`.

    Parameters
    ----------
    fn: a function of Tensors returning a Tensor or a (nested) tuple /
        list of Tensors.  It must be shape-static: no data-dependent
        Python branching, every primitive routed through a registered
        kernel.
    example_inputs: arrays fixing the input shapes/dtypes (their values
        are irrelevant to the captured program, only to the trace-time
        outputs).

    Returns
    -------
    ``(plan, outputs)`` — the finalized plan and the trace-time eager
    outputs (same structure ``fn`` returned).
    """
    from .tensor import Tensor, no_grad   # at call time: tensor imports us
    if tracing():
        raise TraceError("trace() is not reentrant")
    builder = PlanBuilder()
    _state.builder = builder
    try:
        with no_grad():
            tensors = []
            for arr in example_inputs:
                t = Tensor(np.ascontiguousarray(arr))
                t._slot = builder.add_input(t.data)
                tensors.append(t)
            result = fn(*tensors)
    finally:
        _state.builder = None

    out_slots: List[int] = []
    for t in _flatten(result):
        slot = getattr(t, "_slot", None)
        if slot is None:
            raise TraceError(
                "a traced output does not depend on the inputs "
                "(constant output) — nothing to replay")
        out_slots.append(slot)
    return builder.finalize(out_slots), result


def _flatten(x) -> List[Any]:
    if isinstance(x, (tuple, list)):
        out = []
        for item in x:
            out.extend(_flatten(item))
        return out
    return [x]


# ----------------------------------------------------------------------
# BLAS threads during a replay
# ----------------------------------------------------------------------
def _numpy_blas_setter() -> Optional[Callable[[int], int]]:
    """OpenBLAS's ``openblas_set_num_threads_local`` as NumPy links it,
    or ``None`` (another BLAS, or an OpenBLAS without the symbol).

    Looked up through NumPy's own extension module, whose dependencies
    ``dlsym`` searches: ``scipy.special`` maps a second OpenBLAS of its
    own, and setting that one changes nothing NumPy calls.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:                               # NumPy 1.x
        from numpy.core import _multiarray_umath
    try:
        fn = ctypes.CDLL(_multiarray_umath.__file__) \
            .openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    return fn


_blas_set = _numpy_blas_setter()
_blas_lock = threading.Lock()
_blas_depth = 0          # replays inside single_thread_blas() right now
_blas_saved = 0          # the thread count the first of them found


@contextlib.contextmanager
def single_thread_blas():
    """Run the body with NumPy's OpenBLAS on one thread, then restore.

    A replay's GEMMs are per-sample: on a two-core host OpenBLAS's
    helper thread saves them no wall time and burns CPU the other core
    could spend (an estuary-mesh b8 replay: 407 ms wall, 664 ms CPU
    on two threads; 420 / 419 ms on one).  The setter is named
    ``_local``, but on a pthreads
    OpenBLAS it writes the process-wide count (a thread that set 1 made
    another thread's GEMM single-threaded), so the scope is counted
    across threads: the first replay in pins one thread, the last one
    out restores what the first found.  Without the setter BLAS is left
    as it is.
    """
    global _blas_depth, _blas_saved
    if _blas_set is None:
        yield
        return
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = _blas_set(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                _blas_set(_blas_saved)


def blas_threads() -> Optional[int]:
    """NumPy's OpenBLAS thread count now, ``None`` without the setter
    (read through the setter, under the scope's lock)."""
    if _blas_set is None:
        return None
    with _blas_lock:
        n = _blas_set(1)
        _blas_set(n)
        return n


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
class PlanExecutor:
    """Replays one :class:`ExecutionPlan` on raw arrays.

    Owns one arena blob holding the plan's physical buffers, so an
    executor is **not** thread-safe — concurrent callers each use
    their own executor (see ``workflow.engine.CompiledForward``).
    :meth:`run` outputs are views into that blob, valid until the next
    :meth:`run`.
    """

    def __init__(self, plan: ExecutionPlan):
        self.plan = plan
        self._blob = np.empty(plan.arena_total, np.uint8)
        self._env: List[Optional[np.ndarray]] = [None] * plan.n_slots
        #: one zeroed buffer per input slot, owned for life: a caller may
        #: write its inputs in place and replay ``run(executor.inputs)``
        self.inputs = tuple(np.zeros(plan.slots[s].shape, plan.slots[s].dtype)
                            for s in plan.inputs)

        # precompile the program: resolve constants, bind output views
        # into the arena blob
        consts = plan.const_arrays
        prog = []
        for i, step in enumerate(plan.steps):
            spec = plan.slots[step.out]
            out_view = None
            if spec.phys is not None:
                out_view = self._blob[spec.phys:spec.phys + spec.nbytes] \
                    .view(spec.dtype).reshape(spec.shape)
            ins_spec = tuple(ref if tag == "s" else consts[ref]
                             for tag, ref in step.ins)
            prog.append((step.fn, step.out, ins_spec, step.consts,
                         out_view, plan.step_releases[i]))
        self._prog = prog

    def _bind(self, inputs: Sequence[np.ndarray]) -> None:
        plan = self.plan
        if len(inputs) != len(plan.inputs):
            raise ValueError(
                f"plan expects {len(plan.inputs)} inputs, got {len(inputs)}")
        for sid, arr in zip(plan.inputs, inputs):
            spec = plan.slots[sid]
            if arr.shape != spec.shape or arr.dtype != spec.dtype \
                    or not arr.flags.c_contiguous:
                raise ValueError(
                    f"input slot {sid} expects C-contiguous "
                    f"{spec.shape} {spec.dtype}, got {arr.shape} "
                    f"{arr.dtype} (contiguous={arr.flags.c_contiguous})")
            self._env[sid] = arr

    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Replay the plan under :func:`single_thread_blas`; returns the
        output arrays (arena views)."""
        self._bind(inputs)
        env = self._env
        with single_thread_blas():
            for fn, out_slot, ins_spec, consts, out, rel in self._prog:
                ins = tuple(env[r] if type(r) is int else r
                            for r in ins_spec)
                env[out_slot] = fn(out, ins, consts)
                for sid in rel:
                    env[sid] = None  # fresh/view buffers free like eager
        return [env[s] for s in self.plan.outputs]

    def profile(self, inputs: Sequence[np.ndarray], repeats: int
                ) -> List[Tuple[int, str, Tuple[int, ...], float]]:
        """Per-step cost of a replay: ``(index, kernel name, output
        shape, median seconds)`` over ``repeats`` replays.

        :meth:`run`'s loop with a clock read around each kernel call —
        a separate loop, so :meth:`run` itself carries no branch for it
        — under the same :func:`single_thread_blas`.
        """
        env = self._env
        clock = time.perf_counter
        samples: List[List[float]] = [[] for _ in self._prog]
        with single_thread_blas():
            for _ in range(repeats):
                self._bind(inputs)   # a replay releases its input slots
                for (fn, out_slot, ins_spec, consts, out, rel), seen \
                        in zip(self._prog, samples):
                    ins = tuple(env[r] if type(r) is int else r
                                for r in ins_spec)
                    t0 = clock()
                    env[out_slot] = fn(out, ins, consts)
                    seen.append(clock() - t0)
                    for sid in rel:
                        env[sid] = None
        steps, slots = self.plan.steps, self.plan.slots
        return [(i, steps[i].name, slots[steps[i].out].shape,
                 statistics.median(seen))
                for i, seen in enumerate(samples)]


# ----------------------------------------------------------------------
# generic tensor kernels (conv / fused-NN kernels register from their
# owning modules); a kernel is its primitive's only forward, so its
# ``out=buffer`` branch must write the bits its ``out=None`` branch returns
# ----------------------------------------------------------------------
def _binary(name, ufunc):
    @register_kernel(name, "compute")
    def _k(out, ins, consts):
        return ufunc(ins[0], ins[1], out=out)
    return _k


_binary("add", np.add)
_binary("sub", np.subtract)
_binary("mul", np.multiply)
_binary("div", np.true_divide)
_binary("maximum", np.maximum)


def _unary(name, ufunc):
    @register_kernel(name, "compute")
    def _k(out, ins, consts):
        return ufunc(ins[0], out=out)
    return _k


_unary("neg", np.negative)
_unary("sin", np.sin)
_unary("cos", np.cos)
_unary("exp", np.exp)
_unary("log", np.log)
_unary("sqrt", np.sqrt)
_unary("tanh", np.tanh)
_unary("abs", np.abs)


@register_kernel("pow", "compute")
def _k_pow(out, ins, consts):
    return np.power(ins[0], consts["exponent"], out=out)


@register_kernel("matmul", "compute")
def _k_matmul(out, ins, consts):
    return np.matmul(ins[0], ins[1], out=out)


@register_kernel("relu", "compute")
def _k_relu(out, ins, consts):
    return np.multiply(ins[0], ins[0] > 0, out=out)


@register_kernel("clip", "compute")
def _k_clip(out, ins, consts):
    return np.clip(ins[0], consts["lo"], consts["hi"], out=out)


@register_kernel("sum", "compute")
def _k_sum(out, ins, consts):
    return np.sum(ins[0], axis=consts["axis"],
                  keepdims=consts["keepdims"], out=out)


@register_kernel("max", "fresh")
def _k_max(out, ins, consts):
    axis, keepdims = consts["axis"], consts["keepdims"]
    r = ins[0].max(axis=axis, keepdims=True)
    if keepdims:
        return r
    if axis is None:
        return r.reshape(())
    ax = axis if isinstance(axis, tuple) else (axis,)
    return r.squeeze(axis=ax)


@register_kernel("softmax", "compute")
def _k_softmax(out, ins, consts):
    a = ins[0]
    p = np.subtract(a, a.max(axis=consts["axis"], keepdims=True), out=out)
    np.exp(p, out=p)
    p /= p.sum(axis=consts["axis"], keepdims=True)
    return p


@register_kernel("reshape", "movement", nonview="compute")
def _k_reshape(out, ins, consts):
    if out is None:
        return ins[0].reshape(consts["shape"])
    # non-view reshape is exactly a C-order copy of the source
    np.copyto(out.reshape(ins[0].shape), ins[0])
    return out


@register_kernel("transpose", "view")
def _k_transpose(out, ins, consts):
    return ins[0].transpose(consts["axes"])


@register_kernel("getitem", "movement")
def _k_getitem(out, ins, consts):
    return ins[0][consts["idx"]]


@register_kernel("pad", "fresh")
def _k_pad(out, ins, consts):
    return np.pad(ins[0], consts["pad_width"], mode="constant",
                  constant_values=consts["value"])


@register_kernel("roll", "compute")
def _k_roll(out, ins, consts):
    x, shift, axis = ins[0], consts["shift"], consts["axis"]
    if out is None:
        return np.roll(x, shift, axis=axis)
    # roll is pure data movement: write the shifted blocks straight
    # into the arena buffer (same elements, same values as np.roll)
    shifts = shift if isinstance(shift, (tuple, list)) else (shift,)
    axes = axis if isinstance(axis, (tuple, list)) else (axis,)
    total: Dict[int, int] = {}
    for s, ax in zip(shifts, axes):
        # np.roll accumulates shifts on a repeated axis
        total[ax % x.ndim] = total.get(ax % x.ndim, 0) + s
    pairs: List[List[Tuple[slice, slice]]] = \
        [[(slice(None), slice(None))] for _ in range(x.ndim)]
    for ax, s in total.items():
        n = x.shape[ax]
        s %= n
        if s != 0:
            # out[s:] = x[:n-s]; out[:s] = x[n-s:]
            pairs[ax] = [(slice(s, None), slice(None, n - s)),
                         (slice(None, s), slice(n - s, None))]
    for combo in itertools.product(*pairs):
        dst = tuple(c[0] for c in combo)
        src = tuple(c[1] for c in combo)
        out[dst] = x[src]
    return out


@register_kernel("concatenate", "compute")
def _k_concatenate(out, ins, consts):
    return np.concatenate(ins, axis=consts["axis"], out=out)


@register_kernel("stack", "compute")
def _k_stack(out, ins, consts):
    return np.stack(ins, axis=consts["axis"], out=out)


@register_kernel("where", "fresh")
def _k_where(out, ins, consts):
    return np.where(ins[0], ins[1], ins[2])


@register_kernel("astype", "fresh")
def _k_astype(out, ins, consts):
    return ins[0].astype(consts["dtype"])


@register_kernel("iadd", "inplace")
def _k_iadd(out, ins, consts):
    t = ins[0]
    t += ins[1]
    return t


@register_kernel("imul_scalar", "inplace")
def _k_imul_scalar(out, ins, consts):
    t = ins[0]
    t *= consts["scale"]
    return t
