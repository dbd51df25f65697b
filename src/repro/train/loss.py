"""Loss functions for surrogate training.

The episode loss is the MSE over normalised fields: the mean over the
3-D velocity volume plus the mean over the 2-D free-surface plane, so
neither dominates purely by cell count (the ζ plane has D× fewer cells
than the velocity volume).
"""

from __future__ import annotations

from ..tensor import Tensor

__all__ = ["mse", "episode_loss"]


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    d = pred - target
    return (d * d).mean()


def episode_loss(pred3d: Tensor, pred2d: Tensor,
                 target3d: Tensor, target2d: Tensor) -> Tensor:
    """Combined episode training loss, both terms weighted equally.

    Parameters
    ----------
    pred3d, target3d: (B, 3, H, W, D, T) normalised velocity volumes.
    pred2d, target2d: (B, 1, H, W, T) normalised ζ planes.
    """
    return mse(pred3d, target3d) + mse(pred2d, target2d)
