"""Neural-network layer library on top of :mod:`repro.tensor`.

Provides the module system plus every layer the 4-D Swin surrogate
needs: linear/MLP, LayerNorm/BatchNorm, GELU, multi-head
self-attention, and 2-D/3-D (transposed) convolutions.
"""

from .module import Module, ModuleList, Parameter
from .layers import BatchNorm, GELU, LayerNorm, Linear, MLP
from .conv import Conv2d, Conv3d, ConvTranspose2d, ConvTranspose3d
from .attention import MultiHeadSelfAttention
from . import init

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "LayerNorm",
    "BatchNorm",
    "GELU",
    "MLP",
    "Conv2d",
    "Conv3d",
    "ConvTranspose2d",
    "ConvTranspose3d",
    "MultiHeadSelfAttention",
    "init",
]
