"""Analytic FLOP counting for the 4-D Swin surrogate.

Computes per-component multiply-accumulate counts from a
:class:`~repro.swin.model.SurrogateConfig` without instantiating the
model.  Used by the HPC performance models to scale measured compute
times between mesh sizes (e.g. from the bench mesh to the paper's
898×598×12), and by Table IV-style analyses to separate encoder vs.
decoder cost as the patch size changes.

Conventions: one MAC = 2 FLOPs; biases and normalisation are counted
at 2 FLOPs/element (negligible but kept for completeness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import MLP
from .model import N_VARS_2D, N_VARS_3D, SurrogateConfig


@dataclass(frozen=True)
class FlopBreakdown:
    """Forward-pass FLOPs by component."""

    patch_embed: int
    encoder_attention: int
    encoder_mlp: int
    patch_merging: int
    decoder_convs: int
    patch_recover: int

    @property
    def encoder(self) -> int:
        return (self.patch_embed + self.encoder_attention
                + self.encoder_mlp + self.patch_merging)

    @property
    def decoder(self) -> int:
        return self.decoder_convs + self.patch_recover

    @property
    def total(self) -> int:
        return self.encoder + self.decoder


def attention_flops(tokens: int, window_volume: int, dim: int) -> int:
    """FLOPs of windowed MSA over ``tokens`` tokens.

    QKV projection (3·C²), attention scores + weighted sum (2·N·C per
    token within each window of N tokens), output projection (C²).
    """
    proj = 2 * tokens * (4 * dim * dim)
    attn = 2 * tokens * (2 * window_volume * dim)
    return proj + attn


def _conv_flops(out_elems: int, in_ch: int, kernel_volume: int,
                out_ch: int) -> int:
    return 2 * out_elems * out_ch * in_ch * kernel_volume


def surrogate_flops(cfg: SurrogateConfig) -> FlopBreakdown:
    """Forward FLOPs of one episode through the configured surrogate."""
    H, W, D = cfg.mesh
    T = cfg.time_steps
    C = cfg.embed_dim
    ph, pw, pd = cfg.patch3d
    hp, wp, dp, _ = cfg.latent_dims

    # --- patch embedding: strided conv = one kernel hit per patch -----
    kvol3 = ph * pw * pd
    embed3 = _conv_flops((H // ph) * (W // pw) * (D // pd) * T,
                         N_VARS_3D, kvol3, C)
    embed2 = _conv_flops((H // ph) * (W // pw) * T,
                         N_VARS_2D, ph * pw, C)

    # --- encoder stages ------------------------------------------------
    attn_total = 0
    mlp_total = 0
    merge_total = 0
    h, w, d = hp, wp, dp
    dim = C
    n_stage = len(cfg.depths)
    dims_per_stage = []
    for i in range(n_stage):
        dims_per_stage.append((h, w, d, dim))
        tokens = h * w * d * T
        win = cfg.window_first if i == 0 else cfg.window_rest
        nwin = int(np.prod([min(a, b) for a, b in
                            zip(win, (h, w, d, T))]))
        attn_total += cfg.depths[i] * attention_flops(tokens, nwin, dim)
        hidden = dim * MLP.HIDDEN_RATIO
        mlp_total += cfg.depths[i] * 2 * tokens * (2 * dim * hidden)
        if i < n_stage - 1:
            merge_total += 2 * (tokens // 8) * (8 * dim) * (2 * dim)
            h, w, d = h // 2, w // 2, d // 2
            dim *= 2

    # --- decoder up-path ------------------------------------------------
    dec = 0
    for i in range(n_stage - 1, 0, -1):
        sh, sw, sd, sc = dims_per_stage[i - 1]
        d_in = C * (2 ** i)
        d_out = C * (2 ** (i - 1))
        out_elems = sh * sw * sd * T
        dec += _conv_flops(out_elems, d_in, 8, d_out)        # ConvT 2³
        dec += _conv_flops(out_elems, 2 * d_out, 1, d_out)   # 1×1 fuse

    # --- patch recovery ---------------------------------------------------
    rec = _conv_flops(H * W * D * T, C, kvol3, C)            # ConvT3d
    rec += _conv_flops(H * W * D * T, C, 1, N_VARS_3D)   # 1×1×1 head
    rec += _conv_flops(H * W * T, C, ph * pw, C)             # ConvT2d
    rec += _conv_flops(H * W * T, C, 1, N_VARS_2D)

    return FlopBreakdown(
        patch_embed=embed3 + embed2,
        encoder_attention=attn_total,
        encoder_mlp=mlp_total,
        patch_merging=merge_total,
        decoder_convs=dec,
        patch_recover=rec,
    )
