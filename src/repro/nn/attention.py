"""Multi-head self-attention (paper Eq. 1–2).

Operates on token tensors of shape ``(B, N, C)``.  Window and
shifted-window partitioning (the "Swin" part) live in
:mod:`repro.swin.blocks`; this module is the plain MSA applied inside
each window, with optional additive attention masks used by SW-MSA to
block attention across the cyclic-shift seams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, astensor
from ..tensor import plan as _plan
from ..tensor.tensor import apply
from . import init
from .layers import Linear
from .module import Module


class MultiHeadSelfAttention(Module):
    """Standard MSA: fused QKV projection, per-head scaled dot product.

    Parameters
    ----------
    dim: embedding dimension ``C``.
    num_heads: number of attention heads ``h``; must divide ``dim``.

    The QKV projection carries a bias, as in Swin.
    """

    def __init__(self, dim: int, num_heads: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng if rng is not None else init.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention.

        Parameters
        ----------
        x: ``(B, N, C)`` token batch (B = number of windows × batch).
        mask: optional additive mask broadcastable to
            ``(B, num_heads, N, N)``; −inf entries block attention.  A
            ``(nW, 1, N, N)`` mask with ``nW`` dividing B is broadcast
            over the leading batch groups (B laid out batch-slowest)
            without materialising the tiled copy.
        """
        x = astensor(x)
        B, N, C = x.shape
        qkv = self.qkv(x)  # (B, N, 3C)
        qkv = qkv.reshape(B, N, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, h, N, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        attn = q.matmul(k.swapaxes(-1, -2))  # (B, h, N, N)
        # attn is a fresh matmul buffer, and the matmul's VJP reads only
        # its inputs: scale and mask it in place, taped or not
        attn = apply("imul_scalar", (attn,), {"scale": self.scale})
        if mask is not None:
            m = np.asarray(mask, dtype=attn.dtype)
            if m.ndim == 4 and m.shape[0] != B and B % m.shape[0] == 0:
                # (nW, 1, N, N) per-window mask broadcast over the batch
                # groups (tokens are laid out batch-slowest); the mask
                # is shape-dependent only: a plan constant
                attn = apply("add_window_mask", (attn,),
                             {"mask": m, "nW": m.shape[0],
                              "heads": self.num_heads})
            else:
                attn = apply("iadd", (attn, Tensor(m)))
        attn = attn.softmax()

        out = attn.matmul(v)  # (B, h, N, hd)
        out = out.transpose(0, 2, 1, 3).reshape(B, N, C)
        return self.proj(out)


@_plan.register_kernel("add_window_mask", "inplace")
def _k_add_window_mask(out, ins, consts):
    """In-place SW-MSA mask add through the batch-grouped view."""
    t = ins[0]
    m, nW, heads = consts["mask"], consts["nW"], consts["heads"]
    B, N = t.shape[0], t.shape[-1]
    t.reshape(B // nW, nW, heads, N, N)[...] += m[None]
    return t


@_plan.register_vjp("add_window_mask")
def _vjp_add_window_mask(g, ins, out, consts, needs):
    return (g,)
