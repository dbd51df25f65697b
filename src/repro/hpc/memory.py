"""Memory-hierarchy model: the footprint of each pipeline stage.

Reproduces the paper's Table II analysis: each training-pipeline stage
stores its working set in a tier (SSD → CPU RAM → GPU HBM) and moves
data across tier boundaries at the tier-pair bandwidth.  Sizes are
computed from the actual tensor shapes of the configured surrogate, so
the table regenerates for any mesh/patch configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..swin.model import SurrogateConfig
from .cluster import NodeSpec

GB = 1024 ** 3


# ----------------------------------------------------------------------
# footprint calculators (shapes from the surrogate configuration)
# ----------------------------------------------------------------------
def sample_nbytes(cfg: SurrogateConfig) -> int:
    """One training sample: inputs + targets at fp16.

    (3, H, W, D, T) + (1, H, W, T), twice (input and target).
    """
    H, W, D = cfg.mesh
    T = cfg.time_steps
    vol = 3 * H * W * D * T
    surf = H * W * T
    return 2 * (vol + surf) * 2


def activation_nbytes(cfg: SurrogateConfig, batch: int = 1,
                      dtype_bytes: int = 2,
                      checkpointing: bool = False) -> int:
    """Forward-activation footprint of the encoder + decoder.

    Encoder: every Swin block retains ≈ 12·C per token (LN/QKV/attn-out/
    proj/residual/MLP intermediates) plus 2·heads·N_win attention maps
    per token.  With SW-MSA checkpointing only the block-boundary
    activations (2·C per token) survive the forward pass (paper §III-D).

    Decoder: transposed-conv/BN/GELU chains at progressively full
    resolution; the patch-recovery stages at the original mesh dominate
    (this is why the paper's Table II reports 42 GB for one sample).
    Checkpointing targets the transformer blocks, so the decoder terms
    are unaffected by the flag.
    """
    hp, wp, dp, T = cfg.latent_dims
    total = 0
    C = cfg.embed_dim
    n_stage = len(cfg.depths)
    dims_per_stage = []
    for i in range(n_stage):
        dims_per_stage.append((hp, wp, dp, C))
        tokens = hp * wp * dp * T
        win = cfg.window_first if i == 0 else cfg.window_rest
        n_win = int(np.prod([min(w, d) for w, d in
                             zip(win, (hp, wp, dp, T))]))
        if checkpointing:
            per_token = 2 * C            # boundary activations only
        else:
            attn_maps = 2 * cfg.num_heads[i] * n_win   # scores + softmax
            per_token = 12 * C + attn_maps
        total += int(cfg.depths[i] * tokens * per_token)
        if i < n_stage - 1:
            hp, wp, dp = hp // 2, wp // 2, dp // 2
            C *= 2

    # decoder up-path: ~6 intermediates (convT, BN, GELU, concat, fuse,
    # GELU) at each upsampled resolution
    for (sh, sw, sd, sc) in reversed(dims_per_stage[:-1]):
        total += 6 * sh * sw * sd * T * sc
    # patch recovery at the full mesh: 4 tensors of width embed_dim for
    # the 3-D branch and the 2-D branch each
    H, W, D = cfg.mesh
    total += 4 * cfg.embed_dim * H * W * D * T      # 3-D recover chain
    total += 4 * cfg.embed_dim * H * W * T          # 2-D recover chain
    total += 2 * (3 * H * W * D + H * W) * T        # outputs + grads
    return int(total * batch * dtype_bytes)


def model_state_nbytes(cfg: SurrogateConfig) -> int:
    """Weights + gradients + Adam moments: fp32 params × (1 + 1 + 2)."""
    from ..swin.model import CoastalSurrogate
    model = CoastalSurrogate(cfg)
    n = model.num_parameters()
    return n * 4 * (1 + 3)


@dataclass(frozen=True)
class MemoryFootprint:
    """One pipeline-stage row of Table II."""

    stage: str
    nbytes: int
    path: str
    bandwidth: float

    @property
    def gigabytes(self) -> float:
        return self.nbytes / GB


def pipeline_memory_table(cfg: SurrogateConfig, node: NodeSpec,
                          batch: int = 1,
                          checkpointing: bool = False
                          ) -> List[MemoryFootprint]:
    """Regenerate Table II for a given surrogate configuration."""
    return [
        MemoryFootprint(
            stage="Training Sample Loading",
            nbytes=sample_nbytes(cfg) * batch,
            path="SSD → CPU memory → GPU memory",
            bandwidth=node.ssd_read_bandwidth,
        ),
        MemoryFootprint(
            stage="Training Sample Processing",
            nbytes=activation_nbytes(cfg, batch, checkpointing=checkpointing),
            path="GPU memory",
            bandwidth=node.gpu.hbm_bandwidth,
        ),
        MemoryFootprint(
            stage="Model Parameter Updating",
            nbytes=model_state_nbytes(cfg),
            path="GPU memory",
            bandwidth=node.gpu.hbm_bandwidth,
        ),
    ]
