"""Learning-rate schedules: cosine with warmup."""

from __future__ import annotations

import math

from .optim import Optimizer

__all__ = ["LRSchedule", "CosineWarmup"]


class LRSchedule:
    """Base schedule: call :meth:`step` once per optimiser update; the
    peak rate is the optimiser's at construction."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.updates = 0

    def lr_at(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        self.updates += 1
        lr = self.lr_at(self.updates)
        self.optimizer.lr = lr
        return lr


class CosineWarmup(LRSchedule):
    """Linear warmup to ``base_lr`` then cosine decay to zero."""

    def __init__(self, optimizer: Optimizer, warmup_steps: int,
                 total_steps: int):
        super().__init__(optimizer)
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.base_lr * step / max(1, self.warmup_steps)
        frac = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        frac = min(max(frac, 0.0), 1.0)
        return 0.5 * self.base_lr * (1.0 + math.cos(math.pi * frac))
