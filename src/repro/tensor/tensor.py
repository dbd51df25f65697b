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
* ``backward()`` topologically sorts the graph and accumulates gradients.
* Broadcasting is handled by :func:`unbroadcast`, which sums gradients
  over broadcast dimensions — the single most bug-prone part of any
  engine, so it is property-tested against numerical gradients.
* A module-level ``autograd_enabled`` flag implements ``no_grad``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as _sp_special

from . import plan as _plan

_tracing = _plan.tracing
_trace_apply = _plan.trace_apply

__all__ = [
    "Tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "unbroadcast",
    "astensor",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently active."""
    return getattr(_state, "grad_enabled", True)


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

        Under an active trace, detach is the identity on values, so
        the result keeps the source's buffer slot — a detached
        intermediate must not silently constant-fold the rest of the
        forward.
        """
        out = Tensor(self.data, requires_grad=False)
        if _tracing():
            slot = getattr(self, "_slot", None)
            if slot is not None:
                out._slot = slot
        return out

    def copy(self) -> "Tensor":
        """Deep, graph-free copy with its own storage.

        Unlike :meth:`detach` (which aliases) and :meth:`clone` (which
        copies but stays differentiable), the result is safe to mutate
        freely.
        """
        if _tracing() and getattr(self, "_slot", None) is not None:
            return _trace_apply("copy", (self,))
        return Tensor(self.data.copy(), requires_grad=False)

    def clone(self) -> "Tensor":
        if _tracing():
            return _trace_apply("copy", (self,))
        out = self._make(self.data.copy(), (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(g)
            out._backward = _bw
        return out

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (used for fp16 mixed-precision paths)."""
        if _tracing():
            return _trace_apply("astype", (self,), {"dtype": dtype})
        src_dtype = self.data.dtype
        out = self._make(self.data.astype(dtype), (self,))
        if out.requires_grad:
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
    def _make(self, data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        """Create a result tensor wired to ``parents`` if grads are on."""
        rg = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = rg
        if rg:
            out._parents = tuple(parents)
        return out

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
        if _tracing():
            return _trace_apply("add", (self, other))
        out = self._make(self.data + other.data, (self, other))
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
        if _tracing():
            return _trace_apply("neg", (self,))
        out = self._make(-self.data, (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(-g)
            out._backward = _bw
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        if _tracing():
            return _trace_apply("sub", (self, other))
        out = self._make(self.data - other.data, (self, other))
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
        if _tracing():
            return _trace_apply("mul", (self, other))
        out = self._make(self.data * other.data, (self, other))
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
        if _tracing():
            return _trace_apply("div", (self, other))
        out = self._make(self.data / other.data, (self, other))
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
        if _tracing():
            return _trace_apply("pow", (self,), {"exponent": exponent})
        out = self._make(self.data ** exponent, (self,))
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
        if _tracing():
            return _trace_apply("matmul", (self, other))
        out = self._make(self.data @ other.data, (self, other))
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
        if _tracing():
            return _trace_apply("exp", (self,))
        out_data = np.exp(self.data)
        out = self._make(out_data, (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(g * out_data)
            out._backward = _bw
        return out

    def sin(self) -> "Tensor":
        if _tracing():
            return _trace_apply("sin", (self,))
        out = self._make(np.sin(self.data), (self,))
        if out.requires_grad:
            cos_a = np.cos(self.data)
            def _bw(g):
                self._accum(g * cos_a)
            out._backward = _bw
        return out

    def cos(self) -> "Tensor":
        if _tracing():
            return _trace_apply("cos", (self,))
        out = self._make(np.cos(self.data), (self,))
        if out.requires_grad:
            neg_sin_a = -np.sin(self.data)
            def _bw(g):
                self._accum(g * neg_sin_a)
            out._backward = _bw
        return out

    def log(self) -> "Tensor":
        if _tracing():
            return _trace_apply("log", (self,))
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:
            a = self.data
            def _bw(g):
                self._accum(g / a)
            out._backward = _bw
        return out

    def sqrt(self) -> "Tensor":
        if _tracing():
            return _trace_apply("sqrt", (self,))
        out_data = np.sqrt(self.data)
        out = self._make(out_data, (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(g * 0.5 / out_data)
            out._backward = _bw
        return out

    def tanh(self) -> "Tensor":
        if _tracing():
            return _trace_apply("tanh", (self,))
        out_data = np.tanh(self.data)
        out = self._make(out_data, (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(g * (1.0 - out_data * out_data))
            out._backward = _bw
        return out

    def sigmoid(self) -> "Tensor":
        if _tracing():
            return _trace_apply("sigmoid", (self,))
        out_data = _sp_special.expit(self.data)
        out = self._make(out_data, (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(g * out_data * (1.0 - out_data))
            out._backward = _bw
        return out

    def erf(self) -> "Tensor":
        """Gauss error function — the exact GELU building block."""
        if _tracing():
            return _trace_apply("erf", (self,))
        out = self._make(_sp_special.erf(self.data), (self,))
        if out.requires_grad:
            a = self.data
            two_over_sqrt_pi = 2.0 / np.sqrt(np.pi)
            def _bw(g):
                self._accum(g * two_over_sqrt_pi * np.exp(-a * a))
            out._backward = _bw
        return out

    def abs(self) -> "Tensor":
        if _tracing():
            return _trace_apply("abs", (self,))
        out = self._make(np.abs(self.data), (self,))
        if out.requires_grad:
            sign = np.sign(self.data)
            def _bw(g):
                self._accum(g * sign)
            out._backward = _bw
        return out

    def relu(self) -> "Tensor":
        if _tracing():
            return _trace_apply("relu", (self,))
        mask = self.data > 0
        out = self._make(self.data * mask, (self,))
        if out.requires_grad:
            def _bw(g):
                self._accum(g * mask)
            out._backward = _bw
        return out

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise max; ties send the full gradient to ``self``."""
        other = self._operand(other)
        if _tracing():
            return _trace_apply("maximum", (self, other))
        out = self._make(np.maximum(self.data, other.data), (self, other))
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
        if _tracing():
            return _trace_apply("clip", (self,), {"lo": lo, "hi": hi})
        out = self._make(np.clip(self.data, lo, hi), (self,))
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
        if _tracing():
            return _trace_apply("sum", (self,),
                                {"axis": axis, "keepdims": keepdims})
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            shape = self.data.shape
            def _bw(g):
                gg = np.asarray(g)
                if axis is not None and not keepdims:
                    ax = axis if isinstance(axis, tuple) else (axis,)
                    ax = tuple(a % len(shape) for a in ax)
                    for a in sorted(ax):
                        gg = np.expand_dims(gg, a)
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
        if _tracing():
            return _trace_apply("max", (self,),
                                {"axis": axis, "keepdims": keepdims})
        out_data = self.data.max(axis=axis, keepdims=True)
        if keepdims:
            ret = out_data
        elif axis is None:
            ret = out_data.reshape(())
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            ret = out_data.squeeze(axis=ax)
        out = self._make(ret, (self,))
        if out.requires_grad:
            mask = self.data == out_data
            counts = mask.sum(axis=axis, keepdims=True)
            def _bw(g):
                gg = np.asarray(g)
                if axis is not None and not keepdims:
                    ax = axis if isinstance(axis, tuple) else (axis,)
                    ax = tuple(a % self.data.ndim for a in ax)
                    for a in sorted(ax):
                        gg = np.expand_dims(gg, a)
                self._accum(mask * gg / counts)
            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if _tracing():
            return _trace_apply("reshape", (self,), {"shape": shape})
        out = self._make(self.data.reshape(shape), (self,))
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
        if _tracing():
            return _trace_apply("transpose", (self,), {"axes": axes})
        out = self._make(self.data.transpose(axes), (self,))
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
        if _tracing():
            return _trace_apply("getitem", (self,), {"idx": idx})
        out = self._make(self.data[idx], (self,))
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
        if _tracing():
            return _trace_apply("pad", (self,),
                                {"pad_width": pw, "value": value})
        out = self._make(
            np.pad(self.data, pw, mode="constant", constant_values=value), (self,)
        )
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
        if _tracing():
            return _trace_apply("roll", (self,),
                                {"shift": shift, "axis": axis})
        out = self._make(np.roll(self.data, shift, axis=axis), (self,))
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
        if _tracing():
            return _trace_apply("softmax", (self,), {"axis": axis})
        p = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=axis, keepdims=True)
        out = self._make(p, (self,))
        if out.requires_grad:
            def _bw(g):
                gp = g * p
                self._accum(gp - p * gp.sum(axis=axis, keepdims=True))
            out._backward = _bw
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        if _tracing():
            return _trace_apply("log_softmax", (self,), {"axis": axis})
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        ls = shifted - lse
        out = self._make(ls, (self,))
        if out.requires_grad:
            p = np.exp(ls)
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


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    ts = [astensor(t) for t in tensors]
    if _tracing():
        return _trace_apply("concatenate", ts, {"axis": axis})
    data = np.concatenate([t.data for t in ts], axis=axis)
    rg = is_grad_enabled() and any(t.requires_grad for t in ts)
    out = Tensor(data)
    out.requires_grad = rg
    if rg:
        out._parents = tuple(ts)
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
    if _tracing():
        return _trace_apply("stack", ts, {"axis": axis})
    data = np.stack([t.data for t in ts], axis=axis)
    rg = is_grad_enabled() and any(t.requires_grad for t in ts)
    out = Tensor(data)
    out.requires_grad = rg
    if rg:
        out._parents = tuple(ts)
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
    if _tracing():
        return _trace_apply("where", (Tensor(cond), a, b))
    out_data = np.where(cond, a.data, b.data)
    rg = is_grad_enabled() and (a.requires_grad or b.requires_grad)
    out = Tensor(out_data)
    out.requires_grad = rg
    if rg:
        out._parents = (a, b)
        def _bw(g):
            if a.requires_grad:
                a._accum(np.where(cond, g, 0.0))
            if b.requires_grad:
                b._accum(np.where(cond, 0.0, g))
        out._backward = _bw
    return out


# ----------------------------------------------------------------------
# plan kernels owned by this module (scipy ufuncs and composite eager
# expressions the generic registry in repro.tensor.plan cannot host)
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


_plan.bind_runtime(Tensor, no_grad, is_grad_enabled)
