"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class — the computational
foundation of the whole reproduction.  The paper's surrogate is a PyTorch
model trained on A100 GPUs; this repo substitutes a from-scratch,
vectorised, NumPy-backed autograd engine so that the *exact same model
code path* (forward, backward, optimiser step, activation checkpointing,
mixed-precision casts) runs on CPU-only machines.

Design notes
------------
* Each :class:`Tensor` wraps an ``np.ndarray`` and records the operation
  that produced it as a backward closure plus parent references.
* Every primitive's forward is its kernel in
  :data:`repro.tensor.plan.KERNELS`, run through :func:`apply` — eager,
  taped and traced alike; an op method adds only its backward closure.
* ``backward()`` topologically sorts the graph and accumulates gradients.
* Broadcasting is handled by :func:`unbroadcast`, which sums gradients
  over broadcast dimensions — the single most bug-prone part of any
  engine, so it is property-tested against numerical gradients.
* A thread-local ``grad_enabled`` switch implements ``no_grad``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as _sp_special

from . import plan as _plan

__all__ = [
    "Tensor",
    "apply",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "unbroadcast",
    "astensor",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class _GradState(threading.local):
    grad_enabled = True    # class default: a thread starts with the tape on


_state = _GradState()


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently active."""
    return _state.grad_enabled


def set_grad_enabled(mode: bool) -> None:
    """Globally enable or disable gradient recording."""
    _state.grad_enabled = bool(mode)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    prev = is_grad_enabled()
    set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(prev)


@contextlib.contextmanager
def enable_grad():
    """Context manager that (re-)enables graph construction.

    The inverse of :func:`no_grad`, needed wherever a backward pass must
    run on a thread whose ambient state is unknown — e.g. the serving
    tier's gradient requests
    (:meth:`~repro.workflow.engine.ForecastEngine.sensitivity_batch`)
    execute on scheduler worker threads that otherwise serve pure
    inference.  The switch is thread-local, so enabling gradients here
    never flips a concurrent inference thread out of its fused no-grad
    fast paths.
    """
    prev = is_grad_enabled()
    set_grad_enabled(True)
    try:
        yield
    finally:
        set_grad_enabled(prev)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting stretches size-1 (or missing) axes; the adjoint of
    that stretch is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were stretched from 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def astensor(value: ArrayLike, dtype=None) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy when possible)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


# read by apply on every op: bound here to spare it two attribute hops
_KERNELS = _plan.KERNELS
_trace_state = _plan._state


def apply(name: str, inputs: Sequence["Tensor"],
          consts: Optional[Dict[str, Any]] = None) -> "Tensor":
    """Run primitive ``name`` on ``inputs`` — the one way an op executes.

    Under an active trace the call is recorded through
    :func:`repro.tensor.plan.trace_apply` (which runs the same kernel).
    Otherwise the registered kernel runs with ``out=None`` and its
    result is wrapped without going through ``Tensor.__init__``; the
    grad mode is read once, and the result is wired to ``inputs`` as
    ``_parents`` when it is on and one of them requires grad.  The
    caller attaches the backward closure under ``if out.requires_grad``.
    An ``inplace`` kernel mutates ``inputs[0].data`` and the result
    aliases it, so layers call one only on a fresh, untaped buffer.
    """
    if _trace_state.builder is not None:
        value, slot = _plan.trace_apply(
            name, [t.data for t in inputs],
            [getattr(t, "_slot", None) for t in inputs],
            [t.requires_grad for t in inputs], consts)
        out = Tensor(value)
        if slot is not None:
            out._slot = slot
        return out
    # one and two inputs are nearly every call; spelling them out saves
    # the comprehension's frame, a sixth of this function's own time
    if len(inputs) == 1:
        arrays = (inputs[0].data,)
    elif len(inputs) == 2:
        arrays = (inputs[0].data, inputs[1].data)
    else:
        arrays = tuple([t.data for t in inputs])
    data = _KERNELS[name].fn(None, arrays, consts)
    out = Tensor.__new__(Tensor)
    # reductions and 0-d ufunc calls return NumPy scalars
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = out._backward = None
    out.name = ""
    out._parents = ()
    out.requires_grad = False
    if _state.grad_enabled:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._parents = tuple(inputs)
                break
    return out


class Tensor:
    """A NumPy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array data.  Lists/scalars are converted with ``np.asarray``.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_slot")

    __array_priority__ = 1000  # take precedence over ndarray in mixed ops

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a graph-free tensor that **aliases** this storage.

        The result shares memory with ``self.data`` (the
        ``torch.Tensor.detach`` contract): in-place writes through
        either tensor are visible through both, so callers that go on
        to mutate a detached tensor must take :meth:`copy` instead.
        Eval-path audit (PR 4): no in-repo caller mutates a detached
        tensor in place — the engine denormalises into fresh float64
        buffers before patching fields.

        Under a trace it records no step: detach is the identity on
        values, so the result keeps the source's buffer slot — a
        detached intermediate must not silently constant-fold the rest
        of the forward.
        """
        out = Tensor(self.data, requires_grad=False)
        if _plan.tracing():
            slot = getattr(self, "_slot", None)
            if slot is not None:
                out._slot = slot
        return out

    def copy(self) -> "Tensor":
        """Deep, graph-free copy with its own storage.

        Unlike :meth:`detach` (which aliases) and :meth:`clone` (which
        copies but stays differentiable), the result is safe to mutate
        freely.  Under a trace it records a ``"copy"`` step.
        """
        return apply("copy", (self.detach(),))

    def clone(self) -> "Tensor":
        """Differentiable copy; under a trace it records a ``"copy"`` step."""
        out = apply("copy", (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(g)
            out._backward = _bw
        return out

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (used for fp16 mixed-precision paths)."""
        out = apply("astype", (self,), {"dtype": dtype})
        if out.requires_grad:
            src_dtype = self.data.dtype
            def _bw(g):
                self._accum(g.astype(src_dtype))
            out._backward = _bw
        return out

    def half(self) -> "Tensor":
        return self.astype(np.float16)

    def float(self) -> "Tensor":
        return self.astype(np.float32)

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    def _operand(self, other: ArrayLike) -> "Tensor":
        """Coerce the other side of a binary op.

        A Python scalar next to a floating tensor is *weak*: it adopts
        the tensor's dtype, so ``x * 0.5`` on float32 stays float32 on
        every NumPy (``np.asarray(0.5)`` is a float64 array, which
        NumPy 2 promotes with and NumPy 1 did not).  Arrays and Tensors
        promote as NumPy promotes them.
        """
        weak = isinstance(other, (int, float)) and self.data.dtype.kind == "f"
        return astensor(other, self.data.dtype if weak else None)

    def _accum(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (dense accumulation)."""
        if not self.requires_grad:
            return
        grad = np.asarray(grad)
        if grad.shape != self.data.shape:
            grad = unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        Parameters
        ----------
        grad:
            Incoming gradient.  Defaults to ones (scalar outputs only need
            the default).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the subgraph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        # Seed and propagate. ``grad`` buffers on interior nodes are freed
        # as soon as consumed to bound peak memory (cf. paper §III-D).
        self._accum(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node is not self and node._parents:
                node.grad = None  # interior node: gradient already pushed

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out = apply("add", (self, other))
        if out.requires_grad:
            def _bw(g):
                if self.requires_grad:
                    self._accum(g)
                if other.requires_grad:
                    other._accum(g)
            out._backward = _bw
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = apply("neg", (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(-g)
            out._backward = _bw
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out = apply("sub", (self, other))
        if out.requires_grad:
            def _bw(g):
                if self.requires_grad:
                    self._accum(g)
                if other.requires_grad:
                    other._accum(-g)
            out._backward = _bw
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out = apply("mul", (self, other))
        if out.requires_grad:
            a, b = self.data, other.data
            def _bw(g):
                if self.requires_grad:
                    self._accum(g * b)
                if other.requires_grad:
                    other._accum(g * a)
            out._backward = _bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out = apply("div", (self, other))
        if out.requires_grad:
            a, b = self.data, other.data
            def _bw(g):
                if self.requires_grad:
                    self._accum(g / b)
                if other.requires_grad:
                    other._accum(-g * a / (b * b))
            out._backward = _bw
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out = apply("pow", (self,), {"exponent": exponent})
        if out.requires_grad:
            a = self.data
            def _bw(g):
                self._accum(g * exponent * a ** (exponent - 1))
            out._backward = _bw
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Batched matrix product with full broadcasting on batch dims."""
        other = astensor(other)
        out = apply("matmul", (self, other))
        if out.requires_grad:
            a, b = self.data, other.data
            vectors = a.ndim == 1 and b.ndim == 1
            def _bw(g):
                if self.requires_grad:
                    if vectors:
                        ga = g * b
                    elif b.ndim > 1:
                        ga = g @ np.swapaxes(b, -1, -2)
                    else:
                        ga = np.outer(g, b)
                    self._accum(unbroadcast(ga, a.shape))
                if other.requires_grad:
                    if vectors:
                        gb = g * a
                    elif a.ndim > 1:
                        gb = np.swapaxes(a, -1, -2) @ g
                    else:
                        gb = np.outer(a, g)
                    other._accum(unbroadcast(gb, b.shape))
            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # elementwise transcendental
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = apply("exp", (self,))
        if out.requires_grad:
            out_data = out.data
            def _bw(g):
                self._accum(g * out_data)
            out._backward = _bw
        return out

    def sin(self) -> "Tensor":
        out = apply("sin", (self,))
        if out.requires_grad:
            cos_a = np.cos(self.data)
            def _bw(g):
                self._accum(g * cos_a)
            out._backward = _bw
        return out

    def cos(self) -> "Tensor":
        out = apply("cos", (self,))
        if out.requires_grad:
            neg_sin_a = -np.sin(self.data)
            def _bw(g):
                self._accum(g * neg_sin_a)
            out._backward = _bw
        return out

    def log(self) -> "Tensor":
        out = apply("log", (self,))
        if out.requires_grad:
            a = self.data
            def _bw(g):
                self._accum(g / a)
            out._backward = _bw
        return out

    def sqrt(self) -> "Tensor":
        out = apply("sqrt", (self,))
        if out.requires_grad:
            out_data = out.data
            def _bw(g):
                self._accum(g * 0.5 / out_data)
            out._backward = _bw
        return out

    def tanh(self) -> "Tensor":
        out = apply("tanh", (self,))
        if out.requires_grad:
            out_data = out.data
            def _bw(g):
                self._accum(g * (1.0 - out_data * out_data))
            out._backward = _bw
        return out

    def sigmoid(self) -> "Tensor":
        out = apply("sigmoid", (self,))
        if out.requires_grad:
            out_data = out.data
            def _bw(g):
                self._accum(g * out_data * (1.0 - out_data))
            out._backward = _bw
        return out

    def erf(self) -> "Tensor":
        """Gauss error function — the exact GELU building block."""
        out = apply("erf", (self,))
        if out.requires_grad:
            a = self.data
            two_over_sqrt_pi = 2.0 / np.sqrt(np.pi)
            def _bw(g):
                self._accum(g * two_over_sqrt_pi * np.exp(-a * a))
            out._backward = _bw
        return out

    def abs(self) -> "Tensor":
        out = apply("abs", (self,))
        if out.requires_grad:
            sign = np.sign(self.data)
            def _bw(g):
                self._accum(g * sign)
            out._backward = _bw
        return out

    def relu(self) -> "Tensor":
        out = apply("relu", (self,))
        if out.requires_grad:
            mask = self.data > 0
            def _bw(g):
                self._accum(g * mask)
            out._backward = _bw
        return out

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise max; ties send the full gradient to ``self``."""
        other = self._operand(other)
        out = apply("maximum", (self, other))
        if out.requires_grad:
            mask = self.data >= other.data
            def _bw(g):
                if self.requires_grad:
                    self._accum(g * mask)
                if other.requires_grad:
                    other._accum(g * ~mask)
            out._backward = _bw
        return out

    def clip(self, lo: float, hi: float) -> "Tensor":
        out = apply("clip", (self,), {"lo": lo, "hi": hi})
        if out.requires_grad:
            mask = (self.data >= lo) & (self.data <= hi)
            def _bw(g):
                self._accum(g * mask)
            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = apply("sum", (self,), {"axis": axis, "keepdims": keepdims})
        if out.requires_grad:
            shape = self.data.shape
            def _bw(g):
                gg = _restore_axes(g, axis, keepdims, len(shape))
                self._accum(np.broadcast_to(gg, shape))
            out._backward = _bw
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def var(self, axis=None, keepdims: bool = False, ddof: int = 0) -> "Tensor":
        """Differentiable variance built from mean()."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        n = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        scale = n / max(n - ddof, 1) if ddof else 1.0
        return sq.mean(axis=axis, keepdims=keepdims) * scale

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = apply("max", (self,), {"axis": axis, "keepdims": keepdims})
        if out.requires_grad:
            ndim = self.data.ndim
            mask = self.data == _restore_axes(out.data, axis, keepdims, ndim)
            counts = mask.sum(axis=axis, keepdims=True)
            def _bw(g):
                gg = _restore_axes(g, axis, keepdims, ndim)
                self._accum(mask * gg / counts)
            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = apply("reshape", (self,), {"shape": shape})
        if out.requires_grad:
            orig = self.data.shape
            def _bw(g):
                self._accum(np.asarray(g).reshape(orig))
            out._backward = _bw
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out = apply("transpose", (self,), {"axes": axes})
        if out.requires_grad:
            inv = np.argsort(axes)
            def _bw(g):
                self._accum(np.asarray(g).transpose(inv))
            out._backward = _bw
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx) -> "Tensor":
        out = apply("getitem", (self,), {"idx": idx})
        if out.requires_grad:
            shape = self.data.shape
            dtype = self.data.dtype
            # a basic index (ints, slices, None, Ellipsis) selects every
            # element at most once, so its adjoint is a plain store;
            # only a fancy index can repeat one and has to accumulate
            basic = all(isinstance(i, (int, slice, type(None), type(...)))
                        for i in (idx if isinstance(idx, tuple) else (idx,)))
            def _bw(g):
                full = np.zeros(shape, dtype=dtype)
                if basic:
                    full[idx] = g
                else:
                    np.add.at(full, idx, g)
                self._accum(full)
            out._backward = _bw
        return out

    def pad(self, pad_width: Sequence[Tuple[int, int]], value: float = 0.0) -> "Tensor":
        """Constant-pad; ``pad_width`` follows ``np.pad`` convention."""
        pw = tuple(tuple(p) for p in pad_width)
        out = apply("pad", (self,), {"pad_width": pw, "value": value})
        if out.requires_grad:
            slices = tuple(
                slice(lo, lo + s) for (lo, _), s in zip(pw, self.data.shape)
            )
            def _bw(g):
                self._accum(np.asarray(g)[slices])
            out._backward = _bw
        return out

    def roll(self, shift, axis) -> "Tensor":
        """Cyclic shift — the core of shifted-window attention (SW-MSA)."""
        out = apply("roll", (self,), {"shift": shift, "axis": axis})
        if out.requires_grad:
            if isinstance(shift, (tuple, list)):
                inv_shift = tuple(-s for s in shift)
            else:
                inv_shift = -shift
            def _bw(g):
                self._accum(np.roll(np.asarray(g), inv_shift, axis=axis))
            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # composite ops
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax with a fused backward.

        Computed with one temporary (shift, exp and normalise reuse the
        same buffer) — the backward only needs the final probabilities.
        """
        out = apply("softmax", (self,), {"axis": axis})
        if out.requires_grad:
            p = out.data
            def _bw(g):
                gp = g * p
                self._accum(gp - p * gp.sum(axis=axis, keepdims=True))
            out._backward = _bw
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        out = apply("log_softmax", (self,), {"axis": axis})
        if out.requires_grad:
            p = np.exp(out.data)
            def _bw(g):
                self._accum(g - p * g.sum(axis=axis, keepdims=True))
            out._backward = _bw
        return out

    # comparison helpers (non-differentiable, return ndarray masks)
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)


def _axis_size(shape: Tuple[int, ...], axis) -> int:
    if isinstance(axis, tuple):
        n = 1
        for a in axis:
            n *= shape[a % len(shape)]
        return n
    return shape[axis % len(shape)]


def _restore_axes(reduced, axis, keepdims: bool, ndim: int) -> np.ndarray:
    """``reduced`` with the axes a reduction dropped put back as size 1,
    so it broadcasts against the ``ndim``-d array that was reduced."""
    reduced = np.asarray(reduced)
    if axis is not None and not keepdims:
        ax = axis if isinstance(axis, tuple) else (axis,)
        for a in sorted(a % ndim for a in ax):
            reduced = np.expand_dims(reduced, a)
    return reduced


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    ts = [astensor(t) for t in tensors]
    out = apply("concatenate", ts, {"axis": axis})
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in ts]
        offsets = np.cumsum([0] + sizes)
        def _bw(g):
            g = np.asarray(g)
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    t._accum(g[tuple(idx)])
        out._backward = _bw
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    ts = [astensor(t) for t in tensors]
    out = apply("stack", ts, {"axis": axis})
    if out.requires_grad:
        def _bw(g):
            g = np.asarray(g)
            for i, t in enumerate(ts):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = i
                    t._accum(g[tuple(idx)])
        out._backward = _bw
    return out


def where(cond: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable select: ``cond ? a : b`` (cond is a plain mask)."""
    a, b = astensor(a), astensor(b)
    cond = np.asarray(cond, dtype=bool)
    # the mask is the kernel's first input, never a gradient target
    out = apply("where", (Tensor(cond), a, b))
    if out.requires_grad:
        def _bw(g):
            if a.requires_grad:
                a._accum(np.where(cond, g, 0.0))
            if b.requires_grad:
                b._accum(np.where(cond, 0.0, g))
        out._backward = _bw
    return out


# ----------------------------------------------------------------------
# plan kernels owned by this module (scipy ufuncs and composites the
# generic registry in repro.tensor.plan cannot host)
# ----------------------------------------------------------------------
@_plan.register_kernel("sigmoid", "compute")
def _k_sigmoid(out, ins, consts):
    return _sp_special.expit(ins[0], out=out)


@_plan.register_kernel("erf", "compute")
def _k_erf(out, ins, consts):
    return _sp_special.erf(ins[0], out=out)


@_plan.register_kernel("copy", "compute")
def _k_copy(out, ins, consts):
    if out is None:
        return ins[0].copy()
    np.copyto(out, ins[0])
    return out


@_plan.register_kernel("log_softmax", "fresh")
def _k_log_softmax(out, ins, consts):
    a, axis = ins[0], consts["axis"]
    shifted = a - a.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse
