"""Training: optimisers, schedules, losses, trainer, checkpointing."""

from .optim import Adam, Optimizer, clip_grad_norm
from .schedule import CosineWarmup, LRSchedule
from .loss import episode_loss, mse
from .checkpoint import load_checkpoint, load_model_like, save_checkpoint
from .trainer import EpochStats, Trainer, TrainerConfig

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "LRSchedule",
    "CosineWarmup",
    "mse",
    "episode_loss",
    "save_checkpoint",
    "load_checkpoint",
    "load_model_like",
    "Trainer",
    "TrainerConfig",
    "EpochStats",
]
