"""Convolution layer modules wrapping the N-d patch maps in repro.tensor.

The decoder of the surrogate (paper Fig. 2) is a stack of 2-D/3-D
transposed convolutions with BatchNorm + GELU; patch recovery finishes
with 1×1 convolutions.  All four layer classes below share the generic
N-d implementations; each is unpadded, moves by its kernel (kernel =
stride, so every output site reads one whole patch) and carries a bias.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor, conv_nd, conv_transpose_nd
from . import init
from .module import Module, Parameter

IntOrTuple = Union[int, Tuple[int, ...]]


def _tup(v: IntOrTuple, n: int) -> Tuple[int, ...]:
    return tuple(v) if isinstance(v, (tuple, list)) else (int(v),) * n


class _ConvNd(Module):
    """Shared implementation for direct convolutions."""

    nd: int = 2

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: IntOrTuple,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        k = _tup(kernel_size, self.nd)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = k
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels) + k, rng)
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != self.nd + 2:
            raise ValueError(
                f"{type(self).__name__} expects {self.nd + 2}-d input, "
                f"got shape {x.shape}"
            )
        return conv_nd(x, self.weight, self.bias)


class Conv2d(_ConvNd):
    """2-D convolution over ``(N, C, H, W)``."""
    nd = 2


class Conv3d(_ConvNd):
    """3-D convolution over ``(N, C, H, W, D)``."""
    nd = 3


class _ConvTransposeNd(Module):
    """Shared implementation for transposed (upsampling) convolutions."""

    nd: int = 2

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: IntOrTuple,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        k = _tup(kernel_size, self.nd)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = k
        self.weight = Parameter(
            init.kaiming_uniform((in_channels, out_channels) + k, rng)
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != self.nd + 2:
            raise ValueError(
                f"{type(self).__name__} expects {self.nd + 2}-d input, "
                f"got shape {x.shape}"
            )
        return conv_transpose_nd(x, self.weight, self.bias)


class ConvTranspose2d(_ConvTransposeNd):
    """2-D transposed convolution over ``(N, C, H, W)``."""
    nd = 2


class ConvTranspose3d(_ConvTransposeNd):
    """3-D transposed convolution over ``(N, C, H, W, D)``."""
    nd = 3
