"""Activation checkpointing (paper §III-D).

The paper cuts peak GPU memory by storing only the activations at
SW-MSA block boundaries and recomputing everything else in the backward
pass, doubling the feasible per-GPU batch size.  This module provides
the same mechanism for our engine: :func:`checkpoint` runs a module's
forward under ``no_grad`` (so no interior graph is retained) and splices
a recompute-on-backward node into the surrounding graph.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..tensor import Tensor, is_grad_enabled, no_grad

__all__ = ["checkpoint", "CheckpointStats"]


class CheckpointStats:
    """Counters the tests read to prove recomputation happens."""

    forward_calls: int = 0
    recompute_calls: int = 0


def checkpoint(fn: Callable[[Tensor], Tensor], x: Tensor) -> Tensor:
    """Apply ``fn`` to ``x`` without storing interior activations.

    The forward pass runs in inference mode; only ``x`` (the boundary
    activation) is retained.  On backward, ``fn`` is re-executed with
    gradients enabled to rebuild the interior graph, which is then
    differentiated with the incoming gradient.  Parameters referenced
    inside ``fn`` receive their gradients through the recomputed graph.

    Notes
    -----
    ``fn`` must be deterministic between the two executions.  The
    surrogate has no stochastic layer: like the paper's, it trains
    without dropout.
    """
    CheckpointStats.forward_calls += 1
    if not (is_grad_enabled() and x.requires_grad):
        return fn(x)        # nothing to recompute for: tape as usual

    with no_grad():
        out_data = fn(x).data

    out = Tensor(out_data)
    out.requires_grad = True
    out._parents = (x,)

    def _bw(g: np.ndarray) -> None:
        CheckpointStats.recompute_calls += 1
        x_live = Tensor(x.data, requires_grad=True)
        recomputed = fn(x_live)
        recomputed.backward(g)
        if x.requires_grad and x_live.grad is not None:
            x._accum(x_live.grad)

    out._backward = _bw
    return out
