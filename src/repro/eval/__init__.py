"""Evaluation: accuracy metrics, series/spatial comparison, reporting."""

from .metrics import (aggregate_errors, compare_surface_fields, compute_errors,
                      extract_series, format_sci, format_series, format_table,
                      series_skill)

__all__ = [
    "compute_errors",
    "aggregate_errors",
    "extract_series",
    "series_skill",
    "compare_surface_fields",
    "format_table",
    "format_series",
    "format_sci",
]
