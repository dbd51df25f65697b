"""Evaluation: accuracy metrics, series and spatial comparison, and the
plain-text tables the benchmarks print.

Per-variable MAE and RMSE in physical units reproduce the reporting of
the paper's Table III/IV: errors of u, v, w [m/s] and ζ [m] between
surrogate forecasts and solver truth, averaged over test windows, wet
cells only (land cells are identically zero in both and would deflate
the error).

The paper visualises (a) surface maps of u, v, ζ for ROMS vs surrogate
vs difference and (b) ζ time series at three estuary locations over a
12-day forecast (Figs. 5–6).  Headless reproduction reports the
underlying numbers: extracted series, correlation/skill per location,
and spatial-field statistics of the difference maps.

Every benchmark prints the rows/series of its paper table or figure
through :func:`format_table` / :func:`format_series`, so the formatting
stays consistent and diff-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..ocean.grid import CurvilinearGrid
from ..workflow.forecast import FieldWindow


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


#: The three locations of the paper's Fig. 6 (lat, lon).
PAPER_LOCATIONS: Tuple[Tuple[float, float], ...] = (
    (26.35, -82.06),
    (26.49, -82.03),
    (26.72, -82.24),
)


@dataclass
class LocationSeries:
    """ζ series at one cell for reference and forecast."""

    lat: float
    lon: float
    cell: Tuple[int, int]
    reference: np.ndarray
    forecast: np.ndarray


def extract_series(grid: CurvilinearGrid, reference: FieldWindow,
                   forecast: FieldWindow,
                   locations: Sequence[Tuple[float, float]] = PAPER_LOCATIONS
                   ) -> List[LocationSeries]:
    """ζ time series at geographic locations (nearest wet cell)."""
    out = []
    for lat, lon in locations:
        j, i = grid.nearest_cell(lon, lat)
        out.append(LocationSeries(
            lat=lat, lon=lon, cell=(j, i),
            reference=reference.zeta[:, j, i].astype(np.float64),
            forecast=forecast.zeta[:, j, i].astype(np.float64),
        ))
    return out


def series_skill(series: LocationSeries) -> Dict[str, float]:
    """Agreement metrics for one location series.

    * ``rmse`` — root mean square error [m];
    * ``corr`` — Pearson correlation (phase agreement of the tide);
    * ``amp_ratio`` — forecast/reference std (amplitude agreement).
    """
    r, f = series.reference, series.forecast
    rmse = float(np.sqrt(np.mean((r - f) ** 2)))
    if np.std(r) > 0 and np.std(f) > 0:
        corr = float(np.corrcoef(r, f)[0, 1])
    else:
        corr = float("nan")
    amp = float(np.std(f) / np.std(r)) if np.std(r) > 0 else float("nan")
    return {"rmse": rmse, "corr": corr, "amp_ratio": amp}


@dataclass
class SpatialComparison:
    """Statistics of one surface-field comparison (Fig. 5 analogue)."""

    variable: str
    ref_min: float
    ref_max: float
    pred_min: float
    pred_max: float
    diff_mae: float
    diff_max: float
    pattern_corr: float


def compare_surface_fields(reference: FieldWindow, forecast: FieldWindow,
                           t: int, wet: np.ndarray) -> List[SpatialComparison]:
    """Compare the surface-level u, v and ζ maps at snapshot ``t``."""
    surface = -1  # top sigma layer (depth axis is bottom→surface)
    fields = {
        "u": (reference.u3[t, :, :, surface], forecast.u3[t, :, :, surface]),
        "v": (reference.v3[t, :, :, surface], forecast.v3[t, :, :, surface]),
        "zeta": (reference.zeta[t], forecast.zeta[t]),
    }
    out = []
    for var, (ref, pred) in fields.items():
        r = ref[wet].astype(np.float64)
        p = pred[wet].astype(np.float64)
        d = p - r
        corr = float(np.corrcoef(r, p)[0, 1]) if np.std(r) > 0 else float("nan")
        out.append(SpatialComparison(
            variable=var,
            ref_min=float(r.min()), ref_max=float(r.max()),
            pred_min=float(p.min()), pred_max=float(p.max()),
            diff_mae=float(np.abs(d).mean()), diff_max=float(np.abs(d).max()),
            pattern_corr=corr,
        ))
    return out


def format_sci(x: float) -> str:
    """Scientific notation like the paper's tables (1.80E-02)."""
    return f"{x:.2E}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def format_series(xs: Sequence, ys: Sequence, x_label: str = "x",
                  y_label: str = "y", title: Optional[str] = None) -> str:
    """Render an (x, y) series as a two-column table (figure data)."""
    return format_table(
        [x_label, y_label],
        [[x, y] for x, y in zip(xs, ys)],
        title=title,
    )
