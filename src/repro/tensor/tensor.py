"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class — the computational
foundation of the whole reproduction.  The paper's surrogate is a PyTorch
model trained on A100 GPUs; this repo substitutes a from-scratch,
vectorised, NumPy-backed autograd engine so that the *exact same model
code path* (forward, backward, optimiser step, activation checkpointing,
mixed-precision casts) runs on CPU-only machines.

Design notes
------------
* Each :class:`Tensor` wraps an ``np.ndarray``; a taped one records the
  operation that produced it (its ``_backward``) plus parent references.
* Every primitive is one entry of :data:`repro.tensor.plan.KERNELS`: a
  forward kernel and, beside it, its VJP.  :func:`apply` runs the
  forward — eager, taped and traced alike — and is the one place a
  backward is attached, so an op method is a single ``apply`` call.
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

from . import plan as _plan

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
    never makes a concurrent inference thread build a tape.
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


class _Backward:
    """A tape node's backward, made by :func:`apply` and nowhere else.

    Runs kernel ``op``'s registered VJP on the arrays its forward saw
    and accumulates each cotangent into the parent that asks for one.
    It holds the output *array*, not its Tensor, so a tape has no
    reference cycles and frees as soon as its root is dropped.
    """

    __slots__ = ("op", "parents", "arrays", "out", "consts")

    def __init__(self, op, parents, arrays, out, consts):
        self.op, self.parents, self.arrays = op, parents, arrays
        self.out, self.consts = out, consts

    def __call__(self, g: np.ndarray) -> None:
        needs = tuple([t.requires_grad for t in self.parents])
        cotangents = _KERNELS[self.op].vjp(g, self.arrays, self.out,
                                           self.consts, needs)
        for t, need, ct in zip(self.parents, needs, cotangents):
            if need:
                t._accum(ct)


def apply(name: str, inputs: Sequence["Tensor"],
          consts: Optional[Dict[str, Any]] = None) -> "Tensor":
    """Run primitive ``name`` on ``inputs`` — the one way an op executes.

    Under an active trace the call is recorded through
    :func:`repro.tensor.plan.trace_apply` (which runs the same kernel).
    Otherwise the registered kernel runs with ``out=None`` and its
    result is wrapped without going through ``Tensor.__init__``; the
    grad mode is read once, and when it is on and one of ``inputs``
    requires grad the result is taped: ``inputs`` become its
    ``_parents`` and the kernel's registered VJP its ``_backward``.
    The forward is the same expression either way, so a taped result
    has the bits of an untaped one.  An ``inplace`` kernel mutates
    ``inputs[0].data`` and the result aliases it: layers call one only
    on a fresh buffer whose producer's VJP does not read its output.
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
    out._parents = ()
    out.requires_grad = False
    if _state.grad_enabled:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._parents = parents = tuple(inputs)
                out._backward = _Backward(name, parents, arrays, out.data,
                                          consts)
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
                 "_slot")

    __array_priority__ = 1000  # take precedence over ndarray in mixed ops

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()

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

    def item(self) -> float:
        return float(self.data.item())

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (used for fp16 mixed-precision paths)."""
        return apply("astype", (self,), {"dtype": dtype})

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
        """Accumulate ``grad`` into ``self.grad`` (dense accumulation).

        A leaf copies its first gradient and sums later ones in place:
        its ``.grad`` outlives the backward, and optimisers and callers
        write to it.  An interior node keeps its first cotangent as
        given (cast only to its own dtype) and sums a second one into a
        new array, never in place, since that cotangent may be another
        node's too — sound because no registered VJP writes the ``g``
        it receives (``tests/test_tensor_ops.py`` holds every one to
        that).
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad)
        if grad.shape != self.data.shape:
            grad = unbroadcast(grad, self.data.shape)
        if not self._parents:
            if self.grad is None:
                self.grad = grad.astype(self.data.dtype, copy=True)
            else:
                self.grad += grad
        elif self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=False)
        else:
            # the sum in-place ``+=`` would give, cast to this dtype
            self.grad = np.add(self.grad, grad,
                               out=np.empty_like(self.grad))

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
        return apply("add", (self, self._operand(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply("neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return apply("sub", (self, self._operand(other)))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply("mul", (self, self._operand(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply("div", (self, self._operand(other)))

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        return apply("pow", (self,), {"exponent": exponent})

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Batched matrix product with full broadcasting on batch dims."""
        return apply("matmul", (self, astensor(other)))

    # ------------------------------------------------------------------
    # elementwise transcendental
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply("exp", (self,))

    def sin(self) -> "Tensor":
        return apply("sin", (self,))

    def cos(self) -> "Tensor":
        return apply("cos", (self,))

    def sqrt(self) -> "Tensor":
        return apply("sqrt", (self,))

    def erf(self) -> "Tensor":
        """Gauss error function — the exact GELU building block."""
        return apply("erf", (self,))

    def abs(self) -> "Tensor":
        return apply("abs", (self,))

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None) -> "Tensor":
        return apply("max", (self,), {"axis": axis})

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", (self,), {"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        return apply("transpose", (self,), {"axes": axes})

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx) -> "Tensor":
        return apply("getitem", (self,), {"idx": idx})

    def roll(self, shift, axis) -> "Tensor":
        """Cyclic shift — the core of shifted-window attention (SW-MSA)."""
        return apply("roll", (self,), {"shift": shift, "axis": axis})

    # ------------------------------------------------------------------
    # composite ops
    # ------------------------------------------------------------------
    def softmax(self) -> "Tensor":
        """Numerically stable softmax over the last axis, with a fused
        backward.

        Computed with one temporary (shift, exp and normalise reuse the
        same buffer) — the backward only needs the final probabilities.
        """
        return apply("softmax", (self,))


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
    return apply("concatenate", [astensor(t) for t in tensors],
                 {"axis": axis})


# ----------------------------------------------------------------------
# the plan kernel owned by this module (a scipy ufunc the generic
# registry in repro.tensor.plan cannot host)
# ----------------------------------------------------------------------
@_plan.register_kernel("erf", "compute")
def _k_erf(out, ins, consts):
    from scipy import special
    return special.erf(ins[0], out=out)


@_plan.register_vjp("erf")
def _vjp_erf(g, ins, out, consts, needs):
    a = ins[0]
    return (g * (2.0 / np.sqrt(np.pi)) * np.exp(-a * a),)
