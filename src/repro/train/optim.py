"""Optimisers: Adam and gradient clipping.

The surrogate trains with Adam (standard for Swin Transformers).  All
state lives in
plain NumPy arrays keyed by parameter identity, so optimisers can be
checkpointed alongside model weights.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is ≤ ``max_norm``.

    Returns the pre-clip norm (useful for divergence monitoring).
    """
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum())
                        for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return float(total)


class Optimizer:
    """Base optimiser over a fixed parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        return {"lr": self.lr, "t": self.t}


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction and the paper's default
    moments ``BETAS`` and floor ``EPS``; no weight decay."""

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3):
        super().__init__(params, lr)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
