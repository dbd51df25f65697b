"""4-D Swin Transformer surrogate — the paper's primary contribution."""

from .model import CoastalSurrogate, SurrogateConfig
from .flops import surrogate_flops

__all__ = [
    "CoastalSurrogate",
    "SurrogateConfig",
    "surrogate_flops",
]
