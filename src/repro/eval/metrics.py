"""Accuracy metrics: per-variable MAE and RMSE in physical units.

Reproduces the reporting of the paper's Table III/IV: errors of u, v, w
[m/s] and ζ [m] between surrogate forecasts and solver truth, averaged
over test windows, wet cells only (land cells are identically zero in
both and would deflate the error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..workflow.forecast import FieldWindow

__all__ = ["VariableErrors", "compute_errors", "aggregate_errors"]

VAR_UNITS = {"u": "m/s", "v": "m/s", "w": "m/s", "zeta": "m"}


@dataclass(frozen=True)
class VariableErrors:
    """MAE/RMSE for the four learned variables."""

    mae: Dict[str, float]
    rmse: Dict[str, float]

    def row(self, kind: str) -> List[float]:
        src = self.mae if kind == "mae" else self.rmse
        return [src["u"], src["v"], src["w"], src["zeta"]]


def _masked_errors(pred: np.ndarray, truth: np.ndarray,
                   wet: Optional[np.ndarray]) -> Dict[str, float]:
    diff = pred.astype(np.float64) - truth.astype(np.float64)
    if wet is not None:
        # broadcast the (H, W) mask over time and depth axes
        if diff.ndim == 4:            # (T, H, W, D)
            m = wet[None, :, :, None]
        else:                         # (T, H, W)
            m = wet[None, :, :]
        diff = diff[np.broadcast_to(m, diff.shape)]
    return {
        "mae": float(np.abs(diff).mean()),
        "rmse": float(np.sqrt((diff ** 2).mean())),
    }


def compute_errors(pred: FieldWindow, truth: FieldWindow,
                   wet: Optional[np.ndarray] = None) -> VariableErrors:
    """Errors of one forecast window against the reference.

    Slot 0 is excluded: it is the known initial condition, not a
    prediction.
    """
    s = slice(1, None)
    pairs = {
        "u": (pred.u3[s], truth.u3[s]),
        "v": (pred.v3[s], truth.v3[s]),
        "w": (pred.w3[s], truth.w3[s]),
        "zeta": (pred.zeta[s], truth.zeta[s]),
    }
    mae, rmse = {}, {}
    for var, (p, t) in pairs.items():
        e = _masked_errors(p, t, wet)
        mae[var] = e["mae"]
        rmse[var] = e["rmse"]
    return VariableErrors(mae, rmse)


def aggregate_errors(errors: Sequence[VariableErrors]) -> VariableErrors:
    """Average errors over many test windows (paper averages the year)."""
    if not errors:
        raise ValueError("no error records to aggregate")
    vars_ = ("u", "v", "w", "zeta")
    mae = {v: float(np.mean([e.mae[v] for e in errors])) for v in vars_}
    rmse = {v: float(np.mean([e.rmse[v] for e in errors])) for v in vars_}
    return VariableErrors(mae, rmse)
