"""Tidal harmonic analysis.

Classical least-squares fitting of harmonic constituents to a water
level record — the standard oceanographic tool for validating tidal
models.  Used to check that (a) the solver reproduces the forced
constituents at the boundary and propagates them plausibly into the
estuary, and (b) the surrogate preserves the constituent structure of
the solver (amplitude/phase per constituent is a much sharper
validation than pointwise RMSE, cf. paper Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tides import GULF_CONSTITUENTS, TidalConstituent

__all__ = ["HarmonicFit", "fit_constituents", "compare_constituents"]


@dataclass(frozen=True)
class HarmonicFit:
    """Result of a tidal harmonic analysis of one series."""

    mean_level: float
    amplitudes: Dict[str, float]     # per constituent [m]
    phases: Dict[str, float]         # per constituent [rad]
    residual_rms: float              # RMS of the unfitted remainder [m]


def fit_constituents(times: np.ndarray, series: np.ndarray,
                     constituents: Sequence[TidalConstituent]
                     = GULF_CONSTITUENTS) -> HarmonicFit:
    """Least-squares harmonic decomposition.

    Solves ``ζ(t) ≈ m + Σ_k a_k cos(ω_k t) + b_k sin(ω_k t)`` and
    converts each (a, b) pair to amplitude/phase.

    Parameters
    ----------
    times: sample instants [s]; must span enough cycles to separate the
        constituents being fitted (the Rayleigh criterion — at minimum
        one beat period of the closest frequency pair).
    series: water level samples [m], same length as ``times``.
    """
    times = np.asarray(times, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    if times.shape != series.shape:
        raise ValueError("times and series must have equal shapes")
    if times.size < 2 * len(constituents) + 1:
        raise ValueError(
            f"{times.size} samples cannot constrain "
            f"{2 * len(constituents) + 1} harmonic coefficients")

    cols = [np.ones_like(times)]
    for c in constituents:
        omega = 2.0 * np.pi / c.period_s
        cols.append(np.cos(omega * times))
        cols.append(np.sin(omega * times))
    A = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(A, series, rcond=None)

    amplitudes, phases = {}, {}
    for k, c in enumerate(constituents):
        a, b = coef[1 + 2 * k], coef[2 + 2 * k]
        amplitudes[c.name] = float(np.hypot(a, b))
        phases[c.name] = float(np.arctan2(b, a))
    resid = series - A @ coef
    return HarmonicFit(
        mean_level=float(coef[0]),
        amplitudes=amplitudes,
        phases=phases,
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
    )


def compare_constituents(reference: HarmonicFit, candidate: HarmonicFit,
                         names: Optional[Sequence[str]] = None
                         ) -> List[Tuple[str, float, float, float]]:
    """Per-constituent (name, ref amp, cand amp, phase error [rad]).

    Phase errors are wrapped to [−π, π].
    """
    names = list(names) if names is not None \
        else list(reference.amplitudes)
    out = []
    for n in names:
        dphi = candidate.phases[n] - reference.phases[n]
        dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
        out.append((n, reference.amplitudes[n], candidate.amplitudes[n],
                    float(dphi)))
    return out
