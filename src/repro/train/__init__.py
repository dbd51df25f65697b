"""Training: optimiser, schedule, loss, trainer, checkpointing."""

from .trainer import (Adam, CosineWarmup, Trainer, TrainerConfig,
                      load_checkpoint, load_model_like, mse, save_checkpoint)

__all__ = [
    "Adam",
    "CosineWarmup",
    "mse",
    "save_checkpoint",
    "load_checkpoint",
    "load_model_like",
    "Trainer",
    "TrainerConfig",
]
