"""Patch embedding, merging, and recovery (paper §III-C).

* :class:`PatchEmbed3d` / :class:`PatchEmbed2d` — split the 3-D velocity
  volume and the 2-D free-surface plane into patches and project them to
  a shared ``C``-dimensional latent space; the 2-D plane becomes one
  extra "depth" slot so both can be concatenated along depth.
* :class:`PatchMerging4d` — hierarchical downsampling: 2×2×2 spatial
  neighbourhoods concatenated channel-wise (8C) then projected to 2C;
  the temporal axis is untouched (paper Fig. 4).
* :class:`PatchRecover3d` / :class:`PatchRecover2d` — decoder heads that
  upsample patches back to the original mesh via transposed convolutions
  followed by 1×1 refinement convolutions; in eval mode the four layers
  of a head are one ``patch_recover`` kernel, forward and backward, that
  never keeps the ``C``-channel full-resolution activation.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor
from ..tensor import plan as _plan
from ..tensor.ops_conv import _wide
from ..tensor.tensor import apply
from ..nn.layers import _gelu_grad, _k_gelu
from ..nn import (
    BatchNorm,
    Conv2d,
    Conv3d,
    ConvTranspose2d,
    ConvTranspose3d,
    GELU,
    Linear,
    Module,
)


def _fold_time(x: Tensor) -> Tuple[Tensor, int, int]:
    """(B, C, *S, T) → (B*T, C, *S); returns (folded, B, T)."""
    B = x.shape[0]
    T = x.shape[-1]
    nd = x.ndim
    # (B, C, *S, T) -> (B, T, C, *S)
    perm = (0, nd - 1, 1) + tuple(range(2, nd - 1))
    xt = x.transpose(perm)
    return xt.reshape((B * T,) + xt.shape[2:]), B, T


def _unfold_time(x: Tensor, B: int, T: int) -> Tensor:
    """(B*T, C, *S) → (B, C, *S, T)."""
    xt = x.reshape((B, T) + x.shape[1:])
    nd = xt.ndim
    perm = (0, 2) + tuple(range(3, nd)) + (1,)
    return xt.transpose(perm)


class PatchEmbed3d(Module):
    """Embed ``(B, C_in, H, W, D, T)`` into ``(B, C, H/PH, W/PW, D/PD, T)``.

    Implemented as a strided 3-D convolution (kernel = stride = patch),
    applied per time slice with the time axis folded into the batch.
    """

    def __init__(self, in_channels: int, embed_dim: int,
                 patch: Tuple[int, int, int],
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.patch = tuple(patch)
        self.proj = Conv3d(in_channels, embed_dim, self.patch, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        for ax, p in zip(x.shape[2:5], self.patch):
            if ax % p != 0:
                raise ValueError(
                    f"spatial dim {ax} not divisible by patch {p}; "
                    "pad the mesh first (repro.data.preprocess.pad_mesh)"
                )
        folded, B, T = _fold_time(x)
        emb = self.proj(folded)
        return _unfold_time(emb, B, T)


class PatchEmbed2d(Module):
    """Embed ``(B, C_in, H, W, T)`` into ``(B, C, H/PH, W/PW, 1, T)``.

    The singleton depth axis lets the surface plane concatenate with the
    3-D volume along depth, exactly as described in the paper.
    """

    def __init__(self, in_channels: int, embed_dim: int,
                 patch: Tuple[int, int],
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.patch = tuple(patch)
        self.proj = Conv2d(in_channels, embed_dim, self.patch, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        folded, B, T = _fold_time(x)
        emb = self.proj(folded)          # (B*T, C, H', W')
        emb = _unfold_time(emb, B, T)    # (B, C, H', W', T)
        return emb.reshape(emb.shape[:4] + (1,) + emb.shape[4:])


class PatchMerging4d(Module):
    """Spatial 2× downsampling with channel doubling (time untouched).

    Input/output layout is channels-last ``(B, H, W, D, T, C)`` — the
    layout used between Swin blocks.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.dim = dim
        self.reduction = Linear(8 * dim, 2 * dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        B, H, W, D, T, C = x.shape
        if H % 2 or W % 2 or D % 2:
            raise ValueError(
                f"PatchMerging4d needs even spatial dims, got {(H, W, D)}"
            )
        x = x.reshape(B, H // 2, 2, W // 2, 2, D // 2, 2, T, C)
        x = x.transpose(0, 1, 3, 5, 7, 2, 4, 6, 8)
        x = x.reshape(B, H // 2, W // 2, D // 2, T, 8 * C)
        return self.reduction(x)


class _PatchRecover(Module):
    """ConvTranspose (kernel = stride = patch) + BatchNorm + GELU, then a
    1×1 convolution to the physical channel count (paper §III-C).

    In eval mode the four layers run as one ``patch_recover`` kernel in
    token space (see :func:`_k_patch_recover`), taped or not: one tape
    node whose VJP recomputes what it needs block by block, so the
    ``C``-channel full-resolution activation is never kept.  Training
    (BatchNorm batch statistics) runs the four modules.  Both read the
    same parameters and ``state_dict`` keys, and give the same bits.
    """

    def forward(self, x: Tensor) -> Tensor:
        folded, B, T = _fold_time(x)
        if self.training:
            # batch statistics, and the running ones move
            y = self.head(self.act(self.norm(self.up(folded))))
        else:
            # the folded BatchNorm: plan constants, tape nodes of the
            # norm's weight and bias
            scale, shift = self.norm.folded()
            y = apply("patch_recover",
                      (folded, self.up.weight, self.up.bias,
                       self.head.weight, self.head.bias, scale, shift))
        return _unfold_time(y, B, T)


class PatchRecover3d(_PatchRecover):
    """Recover 3-D variables: ``(B, C, H', W', D', T)`` latent patches →
    full-resolution ``(B, out, H'*PH, W'*PW, D'*PD, T)`` (u, v, w)."""

    def __init__(self, embed_dim: int, out_channels: int,
                 patch: Tuple[int, int, int],
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.patch = tuple(patch)
        self.up = ConvTranspose3d(embed_dim, embed_dim, self.patch, rng=rng)
        self.norm = BatchNorm(embed_dim)
        self.act = GELU()
        self.head = Conv3d(embed_dim, out_channels, 1, rng=rng)


class PatchRecover2d(_PatchRecover):
    """Recover the 2-D free-surface variable ζ at full resolution:
    ``(B, C, H', W', T)`` → ``(B, out, H'*PH, W'*PW, T)``."""

    def __init__(self, embed_dim: int, out_channels: int,
                 patch: Tuple[int, int],
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.patch = tuple(patch)
        self.up = ConvTranspose2d(embed_dim, embed_dim, self.patch, rng=rng)
        self.norm = BatchNorm(embed_dim)
        self.act = GELU()
        self.head = Conv2d(embed_dim, out_channels, 1, rng=rng)


# ----------------------------------------------------------------------
# the fused head kernel
# ----------------------------------------------------------------------
#: whole samples per sweep, as elements of the C·P-channel activation
#: they make (a sample larger than this is swept alone): big enough that
#: a sweep's dozen NumPy calls vanish on the serving mesh, and no bigger,
#: since each thread holds its block buffers for life (measured on a
#: two-core Xeon with 2 MiB L2 per core, ms for both heads per plan
#: replay, serving b8 / estuary b8: 8 K 4.01 / –, 32 K 3.24 / 142,
#: 64 K 3.01 / 145, 128 K 3.02 / 141, 256 K 3.02 / 146, 512 K 2.98 /
#: 143, 1 M 3.01 / 146; the four-layer composite 3.08 / 183)
_RECOVER_BLOCK = 1 << 16
#: one block's two activation buffers and its out-channel result, per
#: thread (replicas call the kernel concurrently), grown on first use
_recover_scratch = threading.local()


def _recover_buffers(nbytes: int) -> np.ndarray:
    try:
        buf = _recover_scratch.buf
    except AttributeError:
        buf = None
    if buf is None or buf.size < nbytes:
        buf = _recover_scratch.buf = np.empty(nbytes, np.uint8)
    return buf


@_plan.register_kernel("patch_recover", "compute")
def _k_patch_recover(out, ins, consts):
    """ConvTranspose → eval BatchNorm → GELU → 1×1 conv, in token space.

    ``x`` is ``(N, C, *S)`` tokens, ``w_up`` the ``(C, C, *P)``
    transposed-conv weight with kernel = stride = ``P``, ``w_head`` the
    ``(out, C, 1, …)`` head, ``scale`` / ``shift`` the folded BatchNorm
    (:meth:`~repro.nn.BatchNorm.folded`).  Per block of whole samples:

    1. GEMM1 maps each token from ``C`` to ``C·P`` channels (``(O', C)
       @ (C, C·P)``) and adds the transposed-conv bias;
    2. the folded BatchNorm ``scale`` / ``shift`` are applied in place;
    3. GELU writes a second block buffer, and the patches are
       interleaved back into channels-first full resolution;
    4. GEMM2 maps ``C`` to ``out`` channels;
    5. a strided copy writes the ``out``-channel result into the mesh,
       and the head bias is added there.

    Every GEMM is the four-layer composite's, sample by sample: the
    same operand shapes, strides and weight views (a stacked matmul
    runs one BLAS call per sample), so the result is bitwise the
    composite's — a GEMM over several samples' rows would change the
    shape BLAS sees, and with it the bits of an ``out = 1`` gemv.
    """
    x, w_up, b_up, w_head, b_head, scale, shift = ins
    N, C = x.shape[:2]
    Co = w_head.shape[0]
    coarse, kshape = x.shape[2:], w_up.shape[2:]
    nd = len(kshape)
    O1, K = math.prod(coarse), math.prod(kshape)
    fine = O1 * K          # O, the fine-mesh cells of one sample
    dtype = np.result_type(x, w_up)
    if out is None:
        out = np.empty((N, Co) + tuple(o * k for o, k
                                       in zip(coarse, kshape)), dtype)
    w1 = w_up.reshape(C, -1)                    # (C, C·K)
    w2 = w_head.reshape(Co, -1).T               # (C, Co)
    # per-channel constants repeated over a token's K kernel offsets, so
    # each affine pass is a contiguous row operation
    bias, scale, shift = (np.repeat(v, K) for v in (b_up, scale, shift))
    per = max(1, min(N, _RECOVER_BLOCK // (fine * C)))
    act, res_bytes = (per * fine * c * dtype.itemsize for c in (C, Co))
    step = -(-act // 64) * 64                   # 64-byte aligned starts
    buf = _recover_buffers(2 * step + res_bytes)
    first, second = buf[:act].view(dtype), buf[step:step + act].view(dtype)
    res = buf[2 * step:2 * step + res_bytes].view(dtype)
    # (n, o1, …, od, C, k1, …, kd) → (n, C, o1, k1, …, od, kd)
    perm = (0, 1 + nd) + tuple(v for i in range(nd)
                               for v in (1 + i, 2 + nd + i))
    mesh_split = (C,) + tuple(v for ok in zip(coarse, kshape) for v in ok)
    for lo in range(0, N, per):
        n = min(per, N - lo)
        a = first[:n * fine * C].reshape(n, O1, C * K)
        np.matmul(np.moveaxis(x[lo:lo + n], 1, -1).reshape(n, O1, C), w1,
                  out=a)
        a += bias
        a *= scale
        a += shift
        g = second[:n * fine * C].reshape(a.shape)
        _k_gelu(g, (a,), None)
        mesh = first[:n * fine * C].reshape((n,) + mesh_split)
        tokens = g.reshape((n,) + coarse + (C,) + kshape).transpose(perm)
        np.copyto(_wide(mesh), _wide(tokens))
        y = res[:n * fine * Co].reshape(n, fine, Co)
        np.matmul(mesh.reshape(n, C, fine).transpose(0, 2, 1), w2, out=y)
        result = out[lo:lo + n].reshape(n, Co, fine)
        np.copyto(result, y.transpose(0, 2, 1))
        # added in the mesh layout, as the 1×1 conv adds it: one long
        # row per channel instead of O rows of ``out`` elements
        result += b_head[:, None]
    return out


@_plan.register_vjp("patch_recover")
def _vjp_patch_recover(g, ins, out, consts, needs):
    """The head's backward, block by block as its forward runs.

    Nothing was saved: each block's pre-BatchNorm activation is
    recomputed from ``x`` with the forward's GEMM, so the only
    full-resolution arrays are ``g`` and block-sized temporaries.  The
    ``x`` cotangent is bitwise the four-layer composite's tape: the 1×1
    head's adjoint runs ``conv_nd``'s GEMM (mesh-ordered rows of ``g``,
    ``(O, out) @ (out, C)`` per sample), GELU's derivative and the
    BatchNorm scale are its element for element, and the transposed
    conv's adjoint is ``_fwd_patch``'s ``(O', C·P) @ (C·P, C)`` on
    patch-packed rows.  Parameter cotangents sum over blocks, so they
    match the composite's to rounding.
    """
    x, w_up, b_up, w_head, b_head, scale, shift = ins
    N, C = x.shape[:2]
    Co = w_head.shape[0]
    coarse, kshape = x.shape[2:], w_up.shape[2:]
    nd = len(kshape)
    O1, K = math.prod(coarse), math.prod(kshape)
    fine = O1 * K          # O, the fine-mesh cells of one sample
    w1 = w_up.reshape(C, -1)                    # (C, C·K)
    w2 = w_head.reshape(Co, -1)                 # (out, C)
    bias, sc, sh = (np.repeat(v, K) for v in (b_up, scale, shift))
    # the 1×1 head's rows: every full-resolution site, in mesh order
    gmat = np.moveaxis(g, 1, -1).reshape(N, fine, Co)
    # (n, o1, k1, …, od, kd, C) → (n, o1, …, od, C, k1, …, kd) and back
    mesh = tuple(v for ok in zip(coarse, kshape) for v in ok) + (C,)
    to_tokens = (0,) + tuple(range(1, 2 * nd, 2)) + (2 * nd + 1,) \
        + tuple(range(2, 2 * nd + 1, 2))
    from_tokens = _plan.inverse_permutation(to_tokens)
    dx = np.empty(x.shape, np.result_type(g, w_up)) if needs[0] else None
    # parameter cotangents, summed over blocks: (C, C·K), per C·K
    # column or (out, C)
    d_w1 = d_b1 = d_w2 = d_scale = d_shift = 0.0
    per = max(1, min(N, _RECOVER_BLOCK // (fine * C)))
    for lo in range(0, N, per):
        n = min(per, N - lo)
        xt = np.moveaxis(x[lo:lo + n], 1, -1).reshape(n, O1, C)
        pre = np.matmul(xt, w1)                 # the transposed conv
        pre += bias
        a = pre * sc                            # eval BatchNorm
        a += sh
        gm = gmat[lo:lo + n]
        ga = (gm @ w2).reshape((n,) + mesh).transpose(to_tokens)
        d = _gelu_grad(a, ga.reshape(a.shape))  # cotangent of ``a``
        if needs[3]:
            act = _k_gelu(None, (a,), None).reshape(
                (n,) + coarse + (C,) + kshape).transpose(from_tokens)
            d_w2 = d_w2 + np.einsum("nso,nsc->oc", gm, act.reshape(n, fine, C))
        if needs[5]:
            d_scale = d_scale + (d * pre).sum(axis=(0, 1))
        if needs[6]:
            d_shift = d_shift + d.sum(axis=(0, 1))
        d *= sc                                 # cotangent of ``pre``
        if needs[2]:
            d_b1 = d_b1 + d.sum(axis=(0, 1))
        if needs[1]:
            d_w1 = d_w1 + xt.reshape(-1, C).T @ d.reshape(-1, C * K)
        if needs[0]:
            np.copyto(dx[lo:lo + n].reshape(n, C, O1),
                      np.moveaxis(d @ w1.T, -1, 1))

    def per_channel(v, need):
        return v.reshape(C, K).sum(axis=1) if need else None

    return (dx, d_w1.reshape(w_up.shape) if needs[1] else None,
            per_channel(d_b1, needs[2]),
            d_w2.reshape(w_head.shape) if needs[3] else None,
            g.sum(axis=(0,) + tuple(range(2, g.ndim))) if needs[4] else None,
            per_channel(d_scale, needs[5]), per_channel(d_shift, needs[6]))
