"""NumPy-backed reverse-mode autodiff engine.

Public surface:

* :class:`Tensor` — array + gradient tape node.
* :func:`concatenate` — the multi-input op.
* :func:`conv_nd`, :func:`conv_transpose_nd` — the N-d patch maps
  (kernel = stride convolution and its transpose).
* :func:`no_grad` / :func:`enable_grad` — thread-local gradient switch
  (inference mode, and its inverse for backward passes on serving
  threads).
* :func:`gradcheck` — finite-difference verification (see
  ``docs/differentiation.md``).
* :mod:`~repro.tensor.plan` — compiled inference plans: :func:`trace`
  captures a forward as an :class:`~repro.tensor.plan.ExecutionPlan`
  (one step per traced op, liveness-packed into one arena blob); a
  :class:`PlanExecutor` replays it allocation-free on raw arrays.
"""

from .plan import PlanExecutor, TraceError, trace, tracing
from .tensor import (Tensor, astensor, concatenate, enable_grad,
                     is_grad_enabled, no_grad)
from .ops_conv import conv_nd, conv_transpose_nd
from .gradcheck import gradcheck

__all__ = [
    "Tensor",
    "astensor",
    "concatenate",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "conv_nd",
    "conv_transpose_nd",
    "gradcheck",
    "PlanExecutor",
    "TraceError",
    "trace",
    "tracing",
]
