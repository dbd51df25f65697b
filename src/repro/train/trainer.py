"""Training loop for the coastal surrogate.

Drives the :class:`~repro.swin.CoastalSurrogate` over a
:class:`~repro.data.DataLoader`: forward in fp32 on fp16-staged batches
(the paper's mixed-precision path), episode MSE loss, gradient
clipping to global norm ``GRAD_CLIP``, Adam update, per-epoch validation, and wall-clock /
throughput accounting that feeds the HPC benchmarks (Fig. 9/10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..data.loader import Batch, DataLoader
from ..swin.model import CoastalSurrogate
from ..tensor import Tensor, no_grad
from .loss import episode_loss
from .optim import Adam, Optimizer, clip_grad_norm
from .schedule import LRSchedule

__all__ = ["TrainerConfig", "EpochStats", "Trainer"]

GRAD_CLIP = 1.0         # max global gradient L2 norm per update
EPOCHS = 30             # the paper trains both models 30 epochs


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of a training run."""

    lr: float = 1e-3


@dataclass
class EpochStats:
    """Aggregates for one epoch."""

    epoch: int
    train_loss: float
    val_loss: Optional[float]
    seconds: float
    instances: int

    @property
    def throughput(self) -> float:
        """Training instances per second (Fig. 9/10 metric)."""
        return self.instances / self.seconds if self.seconds > 0 else 0.0


class Trainer:
    """Fit a surrogate on episode batches."""

    def __init__(self, model: CoastalSurrogate, config: TrainerConfig,
                 optimizer: Optional[Optimizer] = None,
                 schedule: Optional[LRSchedule] = None):
        self.model = model
        self.cfg = config
        self.optimizer = optimizer or Adam(model.parameters(), lr=config.lr)
        self.schedule = schedule
        self.history: List[EpochStats] = []

    # ------------------------------------------------------------------
    def _forward_loss(self, batch: Batch) -> Tensor:
        # fp16-staged batches are promoted to fp32 for compute — the
        # mixed-precision contract of the paper's training pipeline.
        x3d = Tensor(batch.x3d.astype(np.float32))
        x2d = Tensor(batch.x2d.astype(np.float32))
        y3d = Tensor(batch.y3d.astype(np.float32))
        y2d = Tensor(batch.y2d.astype(np.float32))
        p3d, p2d = self.model(x3d, x2d)
        return episode_loss(p3d, p2d, y3d, y2d)

    def train_step(self, batch: Batch) -> float:
        """One optimiser update; returns the batch loss."""
        self.model.train()
        self.model.zero_grad()
        loss = self._forward_loss(batch)
        loss.backward()
        clip_grad_norm(self.optimizer.params, GRAD_CLIP)
        self.optimizer.step()
        if self.schedule is not None:
            self.schedule.step()
        return float(loss.item())

    def evaluate(self, loader: DataLoader) -> float:
        """Mean episode loss over a loader (no gradients)."""
        self.model.eval()
        losses = []
        with no_grad():
            for batch in loader:
                losses.append(float(self._forward_loss(batch).item()))
        return float(np.mean(losses)) if losses else float("nan")

    # ------------------------------------------------------------------
    def fit(self, train_loader: DataLoader,
            val_loader: Optional[DataLoader] = None,
            epochs: int = EPOCHS,
            on_epoch: Optional[Callable[[EpochStats], None]] = None
            ) -> List[EpochStats]:
        """Run the full training loop; returns per-epoch statistics."""
        for epoch in range(epochs):
            t0 = time.perf_counter()
            losses = []
            instances = 0
            for step, batch in enumerate(train_loader):
                losses.append(self.train_step(batch))
                instances += batch.batch_size
            seconds = time.perf_counter() - t0
            val = self.evaluate(val_loader) if val_loader is not None else None
            stats = EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(losses)) if losses else float("nan"),
                val_loss=val,
                seconds=seconds,
                instances=instances,
            )
            self.history.append(stats)
            if on_epoch is not None:
                on_epoch(stats)
        return self.history
