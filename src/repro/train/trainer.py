"""Training: the loop, its loss, Adam with a cosine-warmup schedule, and
checkpoints.

:class:`Trainer` drives the :class:`~repro.swin.CoastalSurrogate` over a
:class:`~repro.data.DataLoader`: forward in fp32 on fp16-staged batches
(the paper's mixed-precision path), episode MSE loss, gradient clipping
to global norm ``GRAD_CLIP``, Adam update, per-epoch validation, and
wall-clock / throughput accounting that feeds the HPC benchmarks
(Fig. 9/10).

The episode loss is the MSE over normalised fields: the mean over the
3-D velocity volume plus the mean over the 2-D free-surface plane, so
neither dominates purely by cell count (the ζ plane has D× fewer cells
than the velocity volume).  Optimiser state lives in plain NumPy
arrays, so it is checkpointed alongside the model weights in one
compressed ``.npz`` archive.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..data.loader import Batch, DataLoader
from ..nn.module import Module, Parameter
from ..swin.model import CoastalSurrogate
from ..tensor import Tensor, no_grad

GRAD_CLIP = 1.0         # max global gradient L2 norm per update
EPOCHS = 30             # the paper trains both models 30 epochs
_META_KEY = "__meta__"


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    d = pred - target
    return (d * d).mean()


def episode_loss(pred3d: Tensor, pred2d: Tensor,
                 target3d: Tensor, target2d: Tensor) -> Tensor:
    """Combined episode training loss, both terms weighted equally.

    Parameters
    ----------
    pred3d, target3d: (B, 3, H, W, D, T) normalised velocity volumes.
    pred2d, target2d: (B, 1, H, W, T) normalised ζ planes.
    """
    return mse(pred3d, target3d) + mse(pred2d, target2d)


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


class Adam:
    """Adam (Kingma & Ba) over a fixed parameter list, with bias
    correction and the paper's default moments ``BETAS`` and floor
    ``EPS``; no weight decay."""

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

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

    def state_dict(self) -> Dict:
        return {"lr": self.lr, "t": self.t}


class CosineWarmup:
    """Linear warmup to the optimiser's rate at construction, then cosine
    decay to zero; call :meth:`step` once per optimiser update."""

    def __init__(self, optimizer: Adam, warmup_steps: int,
                 total_steps: int):
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.updates = 0
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.base_lr * step / max(1, self.warmup_steps)
        frac = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        frac = min(max(frac, 0.0), 1.0)
        return 0.5 * self.base_lr * (1.0 + math.cos(math.pi * frac))

    def step(self) -> float:
        self.updates += 1
        lr = self.lr_at(self.updates)
        self.optimizer.lr = lr
        return lr


def save_checkpoint(path: str | Path, model: Module,
                    optimizer: Optional[Adam] = None,
                    extra: Optional[Dict] = None) -> None:
    """Write model weights (+ optimiser scalars + user metadata)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"model/{k}": v for k, v in model.state_dict().items()}
    meta: Dict = {"extra": extra or {}}
    if optimizer is not None:
        meta["optimizer"] = optimizer.state_dict()
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def load_checkpoint(path: str | Path, model: Module) -> Dict:
    """Restore weights in place; returns the stored metadata dict."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as z:
        state = {
            k[len("model/"):]: z[k] for k in z.files if k.startswith("model/")
        }
        meta = json.loads(bytes(z[_META_KEY]).decode("utf-8")) \
            if _META_KEY in z.files else {}
    model.load_state_dict(state)
    return meta


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
                 optimizer: Optional[Adam] = None,
                 schedule: Optional[CosineWarmup] = None):
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
