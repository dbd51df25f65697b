"""4-D Swin Transformer blocks (paper Eq. 3, Fig. 3b).

A :class:`SwinBlock4d` is one LN → (S)W-MSA → residual → LN → MLP →
residual unit; blocks come in W-MSA / SW-MSA pairs inside a
:class:`SwinStage4d`, optionally followed by patch merging.  Activation
checkpointing can wrap the attention sub-path, matching the paper's
memory optimisation (store SW-MSA boundaries, recompute the rest).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..tensor import Tensor
from ..nn import LayerNorm, MLP, Module, ModuleList, MultiHeadSelfAttention
from ..nn import init
from .checkpoint import checkpoint
from .patch import PatchMerging4d
from .window import (
    compute_attention_mask,
    compute_shift_sizes,
    effective_window,
    window_partition,
    window_reverse,
)

__all__ = ["SwinBlock4d", "SwinStage4d"]


class SwinBlock4d(Module):
    """One 4-D Swin block operating on ``(B, H, W, D, T, C)`` tokens.

    Parameters
    ----------
    dim: channel width ``C``.
    num_heads: attention heads.
    window: ``(MH, MW, MD, MT)`` window shape.
    shifted: apply the half-window cyclic shift (SW-MSA) before
        partitioning, enabling cross-window information flow.
    use_checkpoint: recompute the attention path on backward instead of
        storing its activations.
    """

    def __init__(self, dim: int, num_heads: int, window: Sequence[int],
                 shifted: bool = False, use_checkpoint: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.dim = dim
        self.window = tuple(window)
        self.shifted = shifted
        self.use_checkpoint = use_checkpoint
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = MLP(dim, rng=rng)

    # ------------------------------------------------------------------
    def _attention_path(self, x: Tensor) -> Tensor:
        """LN → window partition → MSA (masked if shifted) → reverse."""
        B, H, W, D, T, C = x.shape
        dims = (H, W, D, T)
        win = effective_window(dims, self.window)
        shift = compute_shift_sizes(dims, self.window) if self.shifted \
            else (0, 0, 0, 0)

        h = self.norm1(x)
        if any(shift):
            h = h.roll(tuple(-s for s in shift), axis=(1, 2, 3, 4))
        tokens = window_partition(h, win)

        mask = None
        if any(shift):
            # (nW, 1, N, N): the attention layer broadcasts it over the
            # batch (window_partition lays tokens out batch-slowest), so
            # no tiled copy is ever materialised.
            mask = compute_attention_mask(dims, win, shift)[:, None, :, :]

        tokens = self.attn(tokens, mask=mask)
        h = window_reverse(tokens, win, dims)
        if any(shift):
            h = h.roll(shift, axis=(1, 2, 3, 4))
        return h

    def forward(self, x: Tensor) -> Tensor:
        if self.use_checkpoint:
            x = x + checkpoint(self._attention_path, x)
        else:
            x = x + self._attention_path(x)
        return x + self.mlp(self.norm2(x))


class SwinStage4d(Module):
    """A W-MSA/SW-MSA block pair, optionally followed by patch merging.

    Returns ``(out, pre_merge)`` where ``pre_merge`` is the feature map
    before downsampling — consumed by the decoder skip connections
    (paper Fig. 2).
    """

    def __init__(self, dim: int, num_heads: int, window: Sequence[int],
                 depth: int = 2, downsample: bool = True,
                 use_checkpoint: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        blocks = []
        for i in range(depth):
            blocks.append(SwinBlock4d(
                dim, num_heads, window, shifted=(i % 2 == 1),
                use_checkpoint=use_checkpoint, rng=rng,
            ))
        self.blocks = ModuleList(blocks)
        self.downsample = PatchMerging4d(dim, rng=rng) if downsample else None
        self.out_dim = 2 * dim if downsample else dim

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        for block in self.blocks:
            x = block(x)
        pre_merge = x
        if self.downsample is not None:
            x = self.downsample(x)
        return x, pre_merge
