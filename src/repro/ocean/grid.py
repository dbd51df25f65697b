"""Non-uniform structured grid with Arakawa-C staggering.

ROMS discretises the coastal domain on a structured, *non-uniform*
horizontal grid (finer near river channels and inlets) with an
Arakawa-C staggering: free surface ζ at cell centres (rho points),
u on the east/west cell faces, v on the north/south faces
(paper §II-B).  This module provides the grid geometry, metric terms,
and the centre↔face interpolation/difference operators every other
ocean module builds on.

Index convention: arrays are ``(ny, nx)``; ``u`` lives on vertical
faces with shape ``(ny, nx+1)``; ``v`` on horizontal faces with shape
``(ny+1, nx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["StretchedAxis", "CurvilinearGrid", "make_charlotte_grid"]


def _stretched_spacing(n: int, length: float, focus: Tuple[float, ...],
                       strength: float, width: float) -> np.ndarray:
    """Non-uniform spacings refined near each ``focus`` fraction.

    Spacing is inversely proportional to a sum-of-Gaussians density; the
    result sums exactly to ``length``.
    """
    frac = (np.arange(n) + 0.5) / n
    density = np.ones(n)
    for f in focus:
        density += strength * np.exp(-((frac - f) / width) ** 2)
    dx = (1.0 / density)
    dx *= length / dx.sum()
    return dx


@dataclass
class StretchedAxis:
    """One horizontal axis with optionally non-uniform spacing."""

    n: int
    length: float
    focus: Tuple[float, ...] = ()
    strength: float = 2.0
    width: float = 0.08
    spacing: np.ndarray = field(init=False)
    centers: np.ndarray = field(init=False)
    faces: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.focus:
            self.spacing = _stretched_spacing(
                self.n, self.length, self.focus, self.strength, self.width)
        else:
            self.spacing = np.full(self.n, self.length / self.n)
        self.faces = np.concatenate([[0.0], np.cumsum(self.spacing)])
        self.centers = 0.5 * (self.faces[:-1] + self.faces[1:])

    @classmethod
    def from_spacing(cls, spacing: np.ndarray,
                     origin: float = 0.0) -> "StretchedAxis":
        """Build an axis from explicit spacings (e.g. a slab of a parent
        axis in domain decomposition), with coordinates offset by
        ``origin`` so geographic positions are preserved."""
        obj = cls.__new__(cls)
        obj.n = len(spacing)
        obj.length = float(np.sum(spacing))
        obj.focus = ()
        obj.strength = 0.0
        obj.width = 0.0
        obj.spacing = np.asarray(spacing, dtype=np.float64)
        obj.faces = origin + np.concatenate([[0.0], np.cumsum(obj.spacing)])
        obj.centers = 0.5 * (obj.faces[:-1] + obj.faces[1:])
        return obj

    @property
    def face_spacing(self) -> np.ndarray:
        """Distance between adjacent cell centres (n+1 entries; edges
        use the half-cell distance)."""
        inner = self.centers[1:] - self.centers[:-1]
        first = self.centers[0] - self.faces[0]
        last = self.faces[-1] - self.centers[-1]
        return np.concatenate([[first], inner, [last]])


class CurvilinearGrid:
    """Horizontal Arakawa-C grid with metric terms.

    Parameters
    ----------
    x_axis, y_axis: stretched axes for the east (x / i) and north
        (y / j) directions.
    lat0, lon0: geographic anchor of the south-west corner, used only
        to report cell locations in degrees (Fig. 5/6 reproduction).
    """

    EARTH_M_PER_DEG_LAT = 111_320.0

    def __init__(self, x_axis: StretchedAxis, y_axis: StretchedAxis,
                 lat0: float = 26.2, lon0: float = -82.6):
        self.x_axis = x_axis
        self.y_axis = y_axis
        self.nx = x_axis.n
        self.ny = y_axis.n
        self.lat0 = lat0
        self.lon0 = lon0
        # metric arrays, broadcast to 2-D
        self.dx = np.broadcast_to(x_axis.spacing[None, :], (self.ny, self.nx)).copy()
        self.dy = np.broadcast_to(y_axis.spacing[:, None], (self.ny, self.nx)).copy()
        self.area = self.dx * self.dy
        # centre-to-centre spacings at faces (for pressure gradients)
        self.dxu = np.broadcast_to(
            x_axis.face_spacing[None, :], (self.ny, self.nx + 1)).copy()
        self.dyv = np.broadcast_to(
            y_axis.face_spacing[:, None], (self.ny + 1, self.nx)).copy()

    # ------------------------------------------------------------------
    # geographic mapping
    # ------------------------------------------------------------------
    def lonlat(self, j: int, i: int) -> Tuple[float, float]:
        """(lon, lat) of cell centre (j, i)."""
        lat = self.lat0 + self.y_axis.centers[j] / self.EARTH_M_PER_DEG_LAT
        m_per_deg_lon = self.EARTH_M_PER_DEG_LAT * np.cos(np.deg2rad(lat))
        lon = self.lon0 + self.x_axis.centers[i] / m_per_deg_lon
        return float(lon), float(lat)

    def nearest_cell(self, lon: float, lat: float) -> Tuple[int, int]:
        """(j, i) of the cell centre nearest a geographic point."""
        y = (lat - self.lat0) * self.EARTH_M_PER_DEG_LAT
        m_per_deg_lon = self.EARTH_M_PER_DEG_LAT * np.cos(np.deg2rad(lat))
        x = (lon - self.lon0) * m_per_deg_lon
        j = int(np.argmin(np.abs(self.y_axis.centers - y)))
        i = int(np.argmin(np.abs(self.x_axis.centers - x)))
        return j, i

    # ------------------------------------------------------------------
    # staggering operators (pure NumPy, allocation-light)
    # ------------------------------------------------------------------
    def center_to_u(self, c: np.ndarray) -> np.ndarray:
        """Average centre field to u faces; edge faces copy the edge cell.

        Accepts arbitrary leading axes: ``c`` is (…, ny, nx) and the
        result (…, ny, nx+1), so batched (N, T, H, W) fields vectorise.
        """
        out = np.empty(c.shape[:-1] + (self.nx + 1,), dtype=c.dtype)
        out[..., 1:-1] = 0.5 * (c[..., :-1] + c[..., 1:])
        out[..., 0] = c[..., 0]
        out[..., -1] = c[..., -1]
        return out

    def center_to_v(self, c: np.ndarray) -> np.ndarray:
        out = np.empty(c.shape[:-2] + (self.ny + 1, self.nx), dtype=c.dtype)
        out[..., 1:-1, :] = 0.5 * (c[..., :-1, :] + c[..., 1:, :])
        out[..., 0, :] = c[..., 0, :]
        out[..., -1, :] = c[..., -1, :]
        return out

    def u_to_center(self, u: np.ndarray) -> np.ndarray:
        return 0.5 * (u[..., :-1] + u[..., 1:])

    def v_to_center(self, v: np.ndarray) -> np.ndarray:
        return 0.5 * (v[..., :-1, :] + v[..., 1:, :])

    def ddx_at_u(self, c: np.ndarray) -> np.ndarray:
        """∂c/∂x evaluated on interior u faces (edges zero); leading
        axes carry through like :meth:`center_to_u`."""
        out = np.zeros(c.shape[:-1] + (self.nx + 1,), dtype=c.dtype)
        out[..., 1:-1] = (c[..., 1:] - c[..., :-1]) / self.dxu[:, 1:-1]
        return out

    def ddy_at_v(self, c: np.ndarray) -> np.ndarray:
        out = np.zeros(c.shape[:-2] + (self.ny + 1, self.nx), dtype=c.dtype)
        out[..., 1:-1, :] = (c[..., 1:, :] - c[..., :-1, :]) \
            / self.dyv[1:-1, :]
        return out

    def flux_divergence(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """Divergence of face fluxes, per unit area, at cell centres.

        ``fx``: (…, ny, nx+1) volume flux through u faces [m³/s per
        metre of face — i.e. already multiplied by face depth];
        similarly ``fy``.  Leading axes (batch, time) broadcast.
        Returns (…, ny, nx) in units of fx / m.
        """
        div_x = (fx[..., 1:] * self.y_axis.spacing[:, None]
                 - fx[..., :-1] * self.y_axis.spacing[:, None])
        div_y = (fy[..., 1:, :] * self.x_axis.spacing[None, :]
                 - fy[..., :-1, :] * self.x_axis.spacing[None, :])
        return (div_x + div_y) / self.area

    @property
    def min_spacing(self) -> float:
        return float(min(self.x_axis.spacing.min(), self.y_axis.spacing.min()))


def make_charlotte_grid(nx: int = 60, ny: int = 90,
                        length_x: float = 60_000.0,
                        length_y: float = 90_000.0) -> CurvilinearGrid:
    """Default grid: a Charlotte-Harbor-like domain.

    ~60 km (east) × 90 km (north) with refinement near the two inlet
    corridors (x fractions 0.35, 0.65) and the river mouth (y fraction
    0.85), mirroring the paper's "higher resolution near river channels
    and inlets".
    """
    x_axis = StretchedAxis(nx, length_x, focus=(0.35, 0.65))
    y_axis = StretchedAxis(ny, length_y, focus=(0.85,))
    return CurvilinearGrid(x_axis, y_axis)
