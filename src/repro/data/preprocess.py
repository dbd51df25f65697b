"""Preprocessing: C-grid interpolation, mesh padding, precision, scaling.

Reproduces the paper's §III-B pipeline step by step:

1. *linear interpolation to cell centres* — ROMS stores u/v on cell
   faces; neural nets want co-located variables (done when a solver
   state is diagnosed, by ``CurvilinearGrid.u_to_center`` /
   ``v_to_center``);
2. *zero-padding* — 898×598 → 900×600 so patches tile evenly;
3. *FP64 → FP16 conversion* — halves storage and bandwidth;
4. *z-score normalisation* — per-variable statistics from the training
   year only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np


def padded_shape(h: int, w: int, multiple_h: int, multiple_w: int
                 ) -> Tuple[int, int]:
    """Smallest (H', W') ≥ (h, w) divisible by the patch multiples."""
    ph = (h + multiple_h - 1) // multiple_h * multiple_h
    pw = (w + multiple_w - 1) // multiple_w * multiple_w
    return ph, pw


def pad_mesh(field: np.ndarray, target_h: int, target_w: int,
             axes: Tuple[int, int] = (0, 1)) -> np.ndarray:
    """Zero-pad the (H, W) axes to the target.

    Padding is appended on the high side, like the paper's 898×598 →
    900×600 adjustment.  ``axes`` selects which axes are (H, W) — the
    default keeps the historical leading-axes behaviour; batched
    layouts pass e.g. ``axes=(2, 3)`` for (N, T, H, W, …) fields.
    """
    ah, aw = axes
    h, w = field.shape[ah], field.shape[aw]
    if target_h < h or target_w < w:
        raise ValueError(
            f"target ({target_h}, {target_w}) smaller than field ({h}, {w})")
    pad = [(0, 0)] * field.ndim
    pad[ah] = (0, target_h - h)
    pad[aw] = (0, target_w - w)
    return np.pad(field, pad)


@dataclass
class Normalizer:
    """Per-variable z-score normalisation.

    Statistics are computed once from the training archive (the paper's
    2011 data) and reused verbatim for validation/test, so there is no
    statistics leakage across years.
    """

    mean: Dict[str, float]
    std: Dict[str, float]

    EPS = 1e-8

    @staticmethod
    def fit(fields: Dict[str, np.ndarray]) -> "Normalizer":
        """Fit from a dict of variable name → array (any shape)."""
        mean = {k: float(np.mean(v)) for k, v in fields.items()}
        std = {k: float(np.std(v)) for k, v in fields.items()}
        return Normalizer(mean, std)

    @staticmethod
    def fit_from_store(store) -> "Normalizer":
        """Streaming fit over store snapshots (two-pass Welford-free).

        Uses the sum/sum-of-squares accumulation; adequate because the
        fields are O(1) in magnitude.
        """
        from .store import VARIABLES
        acc = {v: [0.0, 0.0, 0] for v in VARIABLES}  # sum, sumsq, count
        for i in range(len(store)):
            snap = store.read_snapshot(i)
            for v, arr in snap.items():
                a = arr.astype(np.float64)
                acc[v][0] += float(a.sum())
                acc[v][1] += float((a * a).sum())
                acc[v][2] += a.size
        mean = {v: s / n for v, (s, sq, n) in acc.items()}
        std = {
            v: float(np.sqrt(max(sq / n - (s / n) ** 2, 0.0)))
            for v, (s, sq, n) in acc.items()
        }
        return Normalizer(mean, std)

    def normalize(self, var: str, x: np.ndarray) -> np.ndarray:
        return (x - self.mean[var]) / (self.std[var] + self.EPS)

    def denormalize(self, var: str, x: np.ndarray) -> np.ndarray:
        return x * (self.std[var] + self.EPS) + self.mean[var]

    # ------------------------------------------------------------------
    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps({"mean": self.mean, "std": self.std}))

    @staticmethod
    def load(path: Path | str) -> "Normalizer":
        d = json.loads(Path(path).read_text())
        return Normalizer(d["mean"], d["std"])
