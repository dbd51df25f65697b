"""Physics-based verification of surrogate forecasts (paper §III-E)."""

from .verifier import PAPER_THRESHOLDS, VerificationResult, Verifier

__all__ = [
    "Verifier",
    "VerificationResult",
    "PAPER_THRESHOLDS",
]
