"""4-D Swin Transformer surrogate — the paper's primary contribution."""

from .window import (
    compute_attention_mask,
    compute_shift_sizes,
    effective_window,
    window_partition,
    window_reverse,
)
from .checkpoint import checkpoint, CheckpointStats
from .patch import (
    PatchEmbed2d,
    PatchEmbed3d,
    PatchMerging4d,
    PatchRecover2d,
    PatchRecover3d,
)
from .blocks import SwinBlock4d, SwinStage4d
from .model import CoastalSurrogate, SurrogateConfig
from .flops import FlopBreakdown, attention_flops, surrogate_flops

__all__ = [
    "window_partition",
    "window_reverse",
    "effective_window",
    "compute_shift_sizes",
    "compute_attention_mask",
    "checkpoint",
    "CheckpointStats",
    "PatchEmbed2d",
    "PatchEmbed3d",
    "PatchMerging4d",
    "PatchRecover2d",
    "PatchRecover3d",
    "SwinBlock4d",
    "SwinStage4d",
    "CoastalSurrogate",
    "SurrogateConfig",
    "FlopBreakdown",
    "surrogate_flops",
    "attention_flops",
]
