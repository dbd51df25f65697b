"""Training: optimiser, schedule, loss, trainer, checkpointing."""

from .trainer import (Adam, CosineWarmup, Trainer, TrainerConfig,
                      load_checkpoint, mse, save_checkpoint)

__all__ = [
    "Adam",
    "CosineWarmup",
    "mse",
    "save_checkpoint",
    "load_checkpoint",
    "Trainer",
    "TrainerConfig",
]
