"""NumPy-backed reverse-mode autodiff engine.

Public surface:

* :class:`Tensor` — array + gradient tape node.
* :func:`concatenate` — the multi-input op.
* :func:`conv_nd`, :func:`conv_transpose_nd` — N-d convolution kernels.
* :func:`no_grad` / :func:`enable_grad` — thread-local gradient switch
  (inference mode, and its inverse for backward passes on serving
  threads).
* :func:`gradcheck` / :func:`numerical_grad` — finite-difference
  verification (see ``docs/differentiation.md``).
* :mod:`~repro.tensor.plan` — compiled inference plans: :func:`trace`
  captures a forward as an :class:`ExecutionPlan` (one step per traced
  op, liveness-packed into one arena blob); a :class:`PlanExecutor`
  replays it allocation-free on raw arrays.
"""

from .plan import (
    ExecutionPlan,
    PlanExecutor,
    TraceError,
    trace,
    tracing,
)
from .tensor import (
    Tensor,
    astensor,
    concatenate,
    enable_grad,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
    unbroadcast,
)
from .ops_conv import (
    conv_nd,
    conv_output_shape,
    conv_transpose_nd,
    conv_transpose_output_shape,
)
from .gradcheck import gradcheck, numerical_grad

__all__ = [
    "Tensor",
    "astensor",
    "concatenate",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "unbroadcast",
    "conv_nd",
    "conv_transpose_nd",
    "conv_output_shape",
    "conv_transpose_output_shape",
    "gradcheck",
    "numerical_grad",
    "ExecutionPlan",
    "PlanExecutor",
    "TraceError",
    "trace",
    "tracing",
]
