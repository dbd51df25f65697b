"""The coastal-circulation AI surrogate (paper Fig. 2).

:class:`CoastalSurrogate` is the paper's primary contribution: a 4-D
Swin Transformer encoder–decoder that consumes the initial condition of
(u, v, w, ζ) at t₀ plus lateral boundary conditions for t₁..T, and
predicts the interior values of all four variables at t₁..T.

Pipeline::

    u,v,w (B,3,H,W,D,T) ─ PatchEmbed3d ─┐
                                        ├─ concat along depth ─ +pos ─
    ζ     (B,1,H,W,T)   ─ PatchEmbed2d ─┘
    → SwinStage4d ×3 (W-MSA/SW-MSA pairs, patch merging between stages)
    → decoder: ConvTranspose3d + BatchNorm + GELU ×2 with U-Net skips
    → split depth → PatchRecover3d → u,v,w ;  PatchRecover2d → ζ

``forward`` returns both heads; ``surface`` runs the same trunk and the
ζ head alone, for callers that read the surge only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..tensor import Tensor, concatenate
from ..nn import (
    BatchNorm,
    Conv3d,
    ConvTranspose3d,
    GELU,
    Module,
    ModuleList,
    Parameter,
)
from ..nn import init
from .blocks import SwinStage4d
from .patch import (
    PatchEmbed2d,
    PatchEmbed3d,
    PatchRecover2d,
    PatchRecover3d,
    _fold_time,
    _unfold_time,
)

N_VARS_3D = 3           # u, v, w
N_VARS_2D = 1           # ζ


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyperparameters of the 4-D Swin surrogate.

    Defaults are the paper's settings transposed to the scaled default
    mesh (see DESIGN.md §6).  ``paper()`` returns the full-size
    configuration (898×598×12 zero-padded to 900×600, patch 5×5×4).
    """

    mesh: Tuple[int, int, int] = (96, 64, 6)       # padded (H, W, D)
    time_steps: int = 24                           # T snapshots per episode
    patch3d: Tuple[int, int, int] = (4, 4, 2)      # (PH, PW, PD)
    patch2d: Tuple[int, int] = (4, 4)              # (PH, PW)
    embed_dim: int = 24                            # initial latent width C
    num_heads: Tuple[int, ...] = (3, 6, 12)        # per stage
    depths: Tuple[int, ...] = (2, 2, 2)            # blocks per stage
    window_first: Tuple[int, int, int, int] = (4, 4, 2, 2)
    window_rest: Tuple[int, int, int, int] = (2, 2, 2, 2)
    use_checkpoint: bool = False
    seed: int = 0

    @staticmethod
    def paper() -> "SurrogateConfig":
        """Full-scale configuration from the paper (§IV-B)."""
        return SurrogateConfig(
            mesh=(900, 600, 12), time_steps=24,
            patch3d=(5, 5, 4), patch2d=(5, 5), embed_dim=24,
            num_heads=(3, 6, 12), depths=(2, 2, 2),
            window_first=(4, 4, 2, 2), window_rest=(2, 2, 2, 2),
        )

    # ------------------------------------------------------------------
    @property
    def latent_dims(self) -> Tuple[int, int, int, int]:
        """(H', W', D''+1, T) token lattice after embedding+concat."""
        H, W, D = self.mesh
        ph, pw, pd = self.patch3d
        return (H // ph, W // pw, D // pd + 1, self.time_steps)

    def validate(self) -> None:
        """Raise with a clear message if dims are inconsistent."""
        H, W, D = self.mesh
        ph, pw, pd = self.patch3d
        if H % ph or W % pw or D % pd:
            raise ValueError(
                f"mesh {self.mesh} not divisible by patch3d {self.patch3d}"
            )
        if (ph, pw) != tuple(self.patch2d):
            raise ValueError("patch2d must match the horizontal patch3d")
        if len(self.num_heads) != len(self.depths):
            raise ValueError("num_heads and depths must have equal length")
        n_merge = len(self.depths) - 1
        hp, wp, dp, _ = self.latent_dims
        for s, name in ((hp, "H'"), (wp, "W'"), (dp, "D'")):
            if s % (2 ** n_merge):
                raise ValueError(
                    f"latent dim {name}={s} not divisible by "
                    f"2^{n_merge} (needed for {n_merge} patch mergings)"
                )


class CoastalSurrogate(Module):
    """4-D Swin Transformer surrogate for coastal ocean circulation."""

    def __init__(self, config: Optional[SurrogateConfig] = None):
        super().__init__()
        cfg = config or SurrogateConfig()
        cfg.validate()
        self.config = cfg
        rng = init.default_rng(cfg.seed)
        C = cfg.embed_dim

        # --- encoder ---------------------------------------------------
        self.embed3d = PatchEmbed3d(N_VARS_3D, C, cfg.patch3d, rng=rng)
        self.embed2d = PatchEmbed2d(N_VARS_2D, C, cfg.patch2d, rng=rng)

        hp, wp, dp, T = cfg.latent_dims
        self.pos_spatial = Parameter(
            init.trunc_normal((1, hp, wp, dp, 1, C), rng))
        self.pos_temporal = Parameter(
            init.trunc_normal((1, 1, 1, 1, T, C), rng))

        stages: List[SwinStage4d] = []
        dim = C
        n_stage = len(cfg.depths)
        for i in range(n_stage):
            win = cfg.window_first if i == 0 else cfg.window_rest
            stages.append(SwinStage4d(
                dim, cfg.num_heads[i], win, depth=cfg.depths[i],
                downsample=(i < n_stage - 1),
                use_checkpoint=cfg.use_checkpoint,
                rng=rng,
            ))
            if i < n_stage - 1:
                dim *= 2
        self.stages = ModuleList(stages)

        # --- decoder -----------------------------------------------------
        # One up-block per merging, mirrored: ConvT3d(2×) + BN + GELU,
        # then skip-concat + 1×1×1 fusion (U-Net style, paper Fig. 2).
        ups, fuses, fuse_norms = [], [], []
        for i in range(n_stage - 1, 0, -1):
            d_in = C * (2 ** i)
            d_out = C * (2 ** (i - 1))
            ups.append(ConvTranspose3d(d_in, d_out, 2, rng=rng))
            fuses.append(Conv3d(2 * d_out, d_out, 1, rng=rng))
            fuse_norms.append(BatchNorm(d_out))
        self.ups = ModuleList(ups)
        self.up_norms = ModuleList([BatchNorm(u.out_channels) for u in ups])
        self.fuses = ModuleList(fuses)
        self.fuse_norms = ModuleList(fuse_norms)
        self.act = GELU()

        self.recover3d = PatchRecover3d(C, N_VARS_3D, cfg.patch3d, rng=rng)
        self.recover2d = PatchRecover2d(C, N_VARS_2D, cfg.patch2d, rng=rng)
        # the decoder's depth slot ζ's head reads; the volume's precede it
        self._zeta_slot = cfg.mesh[2] // cfg.patch3d[2]

    # ------------------------------------------------------------------
    # parameter accounting (paper Table IV reports encoder + decoder)
    # ------------------------------------------------------------------
    def parameter_breakdown(self) -> Dict[str, int]:
        """Parameter counts split into encoder and decoder groups."""
        encoder_mods = [self.embed3d, self.embed2d] + list(self.stages)
        enc = sum(m.num_parameters() for m in encoder_mods)
        enc += self.pos_spatial.size + self.pos_temporal.size
        total = self.num_parameters()
        return {"encoder": enc, "decoder": total - enc, "total": total}

    # ------------------------------------------------------------------
    def forward(self, x3d: Tensor, x2d: Tensor) -> Tuple[Tensor, Tensor]:
        """Predict interior fields for one episode.

        Parameters
        ----------
        x3d: ``(B, 3, H, W, D, T)`` — slot 0 carries the full initial
            condition of (u, v, w); slots 1..T−1 carry boundary rims only.
        x2d: ``(B, 1, H, W, T)`` — same convention for ζ.

        Returns
        -------
        ``(y3d, y2d)`` with shapes matching the inputs: predicted
        (u, v, w) volumes and ζ planes for t₁..T.
        """
        y = self._trunk(x3d, x2d)
        d3 = self._zeta_slot
        y3 = y[:, :, :, :, :d3, :]                   # volume part
        y2 = y[:, :, :, :, d3, :]                    # surface slot
        out3d = self.recover3d(y3)
        out2d = self.recover2d(y2)
        return out3d, out2d

    def surface(self, x3d: Tensor, x2d: Tensor) -> Tensor:
        """The ζ forecast alone: ``forward(x3d, x2d)[1]``, bitwise.

        Runs the shared trunk and the ζ head only, so a caller that
        reads the surge (every sensitivity diagnostic does) neither
        computes nor tapes the 3-D recover head.
        """
        y = self._trunk(x3d, x2d)
        return self.recover2d(y[:, :, :, :, self._zeta_slot, :])

    def _trunk(self, x3d: Tensor, x2d: Tensor) -> Tensor:
        """Embeddings → Swin stages → decoder: the channels-first latent
        ``(B, C, H', W', D'', T)`` both heads read."""
        e3 = self.embed3d(x3d)                      # (B, C, H', W', D3, T)
        e2 = self.embed2d(x2d)                      # (B, C, H', W', 1, T)
        x = concatenate([e3, e2], axis=4)           # depth concat
        x = x.transpose(0, 2, 3, 4, 5, 1)           # channels-last
        # sum the (small) positional tables first: one broadcast add
        # over the full token lattice instead of two
        x = x + (self.pos_spatial + self.pos_temporal)

        skips: List[Tensor] = []
        for stage in self.stages:
            x, pre_merge = stage(x)
            skips.append(pre_merge)

        # decoder operates channels-first with time folded into batch
        y = skips[-1]
        for k, (up, up_norm, fuse, fuse_norm) in enumerate(
                zip(self.ups, self.up_norms, self.fuses, self.fuse_norms)):
            skip = skips[len(self.stages) - 2 - k]
            y = y.transpose(0, 5, 1, 2, 3, 4)        # (B, C, H, W, D, T)
            yf, B, T = _fold_time(y)
            yf = self.act(up_norm(up(yf)))
            sk = skip.transpose(0, 5, 1, 2, 3, 4)
            skf, _, _ = _fold_time(sk)
            yf = concatenate([yf, skf], axis=1)
            yf = self.act(fuse_norm(fuse(yf)))
            y = _unfold_time(yf, B, T)               # (B, C, H, W, D, T)
            y = y.transpose(0, 2, 3, 4, 5, 1)        # channels-last again

        return y.transpose(0, 5, 1, 2, 3, 4)         # (B, C, H', W', D'', T)
