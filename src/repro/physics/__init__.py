"""Physics-based verification of surrogate forecasts (paper §III-E)."""

from .residual import (
    depth_average,
    residual_series_batch,
    water_mass_residual,
)
from .verifier import (
    OCEANOGRAPHY_ACCEPTED_THRESHOLD,
    PAPER_THRESHOLDS,
    VerificationResult,
    Verifier,
)

__all__ = [
    "water_mass_residual",
    "residual_series_batch",
    "depth_average",
    "Verifier",
    "VerificationResult",
    "OCEANOGRAPHY_ACCEPTED_THRESHOLD",
    "PAPER_THRESHOLDS",
]
