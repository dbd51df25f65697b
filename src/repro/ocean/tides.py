"""Astronomic tidal forcing.

Coastal circulation in the paper's study is driven by tidal propagation
(§I: "we focus on characterizing the water level and the flow
associated with tidal propagation").  The open (west) boundary of the
domain is forced with a sum of harmonic constituents; the Gulf-coast
constituent set (M2, S2, N2, K1, O1) with realistic periods and
Charlotte-Harbor-scale amplitudes produces the mixed, mainly-semidiurnal
signal visible in the paper's Fig. 6 time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

HOUR = 3600.0


@dataclass(frozen=True)
class TidalConstituent:
    """A single harmonic: ζ(t) = amplitude · cos(2πt/period − phase)."""

    name: str
    period_s: float        # seconds
    amplitude_m: float     # metres
    phase_rad: float = 0.0

    def elevation(self, t: np.ndarray) -> np.ndarray:
        omega = 2.0 * np.pi / self.period_s
        return self.amplitude_m * np.cos(omega * np.asarray(t) - self.phase_rad)


#: Principal constituents at the Gulf coast of Florida (amplitudes are
#: representative of the Charlotte Harbor entrance; phases arbitrary but
#: fixed so every dataset is reproducible).
GULF_CONSTITUENTS: Tuple[TidalConstituent, ...] = (
    TidalConstituent("M2", 12.4206 * HOUR, 0.26, 0.00),
    TidalConstituent("S2", 12.0000 * HOUR, 0.10, 0.45),
    TidalConstituent("N2", 12.6583 * HOUR, 0.06, 1.10),
    TidalConstituent("K1", 23.9345 * HOUR, 0.16, 2.10),
    TidalConstituent("O1", 25.8193 * HOUR, 0.15, 3.00),
)


class TidalForcing:
    """Boundary water-level forcing with alongshore phase propagation.

    Parameters
    ----------
    constituents: harmonic set.
    alongshore_delay_s_per_m: the tide arrives slightly later toward the
        north, modelling alongshore propagation of the Gulf tide; a value
        of ``1/20`` s/m corresponds to a ~20 m/s shallow-water wave.
    """

    def __init__(self,
                 constituents: Sequence[TidalConstituent] = GULF_CONSTITUENTS,
                 alongshore_delay_s_per_m: float = 0.05):
        self.constituents = tuple(constituents)
        self.delay = alongshore_delay_s_per_m

    def elevation(self, t: float, y: np.ndarray | float = 0.0) -> np.ndarray:
        """Boundary elevation at time ``t`` [s] and alongshore coord ``y`` [m]."""
        tt = np.asarray(t, dtype=np.float64) - self.delay * np.asarray(y)
        out = np.zeros_like(tt, dtype=np.float64)
        for c in self.constituents:
            out = out + c.elevation(tt)
        return out
