"""Evaluation: accuracy metrics, series/spatial comparison, reporting."""

from .metrics import (
    VariableErrors,
    aggregate_errors,
    compute_errors,
)
from .timeseries import (
    PAPER_LOCATIONS,
    LocationSeries,
    SpatialComparison,
    compare_surface_fields,
    extract_series,
    series_skill,
)
from .reporting import format_sci, format_series, format_table

__all__ = [
    "VariableErrors",
    "compute_errors",
    "aggregate_errors",
    "LocationSeries",
    "extract_series",
    "series_skill",
    "SpatialComparison",
    "compare_surface_fields",
    "PAPER_LOCATIONS",
    "format_table",
    "format_series",
    "format_sci",
]
