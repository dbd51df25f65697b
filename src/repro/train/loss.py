"""Loss functions for surrogate training.

The episode loss is the MSE over normalised fields, with the 3-D
velocity volume and the 2-D free-surface plane weighted so neither
dominates purely by cell count (the ζ plane has D× fewer cells than the
velocity volume).
"""

from __future__ import annotations

from ..tensor import Tensor

__all__ = ["mse", "episode_loss"]


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    d = pred - target
    return (d * d).mean()


def episode_loss(pred3d: Tensor, pred2d: Tensor,
                 target3d: Tensor, target2d: Tensor,
                 weight_2d: float = 1.0) -> Tensor:
    """Combined episode training loss.

    Parameters
    ----------
    pred3d, target3d: (B, 3, H, W, D, T) normalised velocity volumes.
    pred2d, target2d: (B, 1, H, W, T) normalised ζ planes.
    weight_2d: relative weight of the free-surface term.
    """
    return mse(pred3d, target3d) + weight_2d * mse(pred2d, target2d)
