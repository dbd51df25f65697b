"""Sigma-coordinate vertical structure.

ROMS uses terrain-following sigma layers: the lowest follows the bed,
the highest follows the free surface (paper §II-B).  The barotropic
solver evolves depth-averaged transport; this module diagnoses the
3-D fields the surrogate learns:

* horizontal velocities ``u(σ), v(σ)`` from a logarithmic bottom
  boundary-layer profile scaled to preserve the depth average, and
* vertical velocity ``w`` by integrating the continuity equation
  upward from the bed (w = 0 at the bottom).

The resulting ``w`` is orders of magnitude smaller than u, v — the same
scale separation the paper reports (Table III: MAE(w) ≈ 1e-4 m/s while
MAE(u, v) ≈ 2e-2 m/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .grid import CurvilinearGrid


@dataclass(frozen=True)
class SigmaLayers:
    """Uniform sigma discretisation with ``nz`` layers in σ ∈ [−1, 0]."""

    nz: int

    @property
    def interfaces(self) -> np.ndarray:
        """σ at layer interfaces, bottom (−1) to surface (0); nz+1 values."""
        return np.linspace(-1.0, 0.0, self.nz + 1)

    @property
    def midpoints(self) -> np.ndarray:
        s = self.interfaces
        return 0.5 * (s[:-1] + s[1:])

    @property
    def thickness_fractions(self) -> np.ndarray:
        s = self.interfaces
        return s[1:] - s[:-1]

    def layer_heights_above_bed(self, total_depth: np.ndarray) -> np.ndarray:
        """Midpoint heights above the bed, shape (nz, ny, nx)."""
        frac = 1.0 + self.midpoints  # 0..1 from bed to surface
        return frac[:, None, None] * total_depth[None, :, :]


class VerticalStructure:
    """Diagnose 3-D (u, v, w) from the barotropic solution.

    Parameters
    ----------
    grid: horizontal grid (for divergence metrics).
    layers: sigma discretisation.

    The log profile's bed roughness length is ``z0`` = 5 mm.
    """

    z0 = 0.005

    def __init__(self, grid: CurvilinearGrid, layers: SigmaLayers):
        self.grid = grid
        self.layers = layers

    # ------------------------------------------------------------------
    def profile(self, total_depth: np.ndarray) -> np.ndarray:
        """Normalised log-layer profile p(σ), shape (nz, ny, nx).

        p is ∝ ln(1 + z/z₀) at layer midpoints and is normalised so the
        thickness-weighted vertical mean is exactly 1, preserving the
        depth-averaged velocity.
        """
        z = self.layers.layer_heights_above_bed(total_depth)
        p = np.log1p(z / self.z0)
        frac = self.layers.thickness_fractions[:, None, None]
        mean = (p * frac).sum(axis=0)
        return p / np.maximum(mean, 1e-12)[None, :, :]

    def horizontal(self, ubar_c: np.ndarray, vbar_c: np.ndarray,
                   total_depth: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """3-D (u, v) at cell centres from depth-averaged velocities.

        Parameters
        ----------
        ubar_c, vbar_c: (ny, nx) depth-averaged velocities at centres.
        total_depth: (ny, nx) h + ζ.

        Returns
        -------
        (u3, v3): each (nz, ny, nx), bottom layer first.
        """
        p = self.profile(total_depth)
        return ubar_c[None] * p, vbar_c[None] * p

    def vertical(self, u3: np.ndarray, v3: np.ndarray,
                 total_depth: np.ndarray) -> np.ndarray:
        """Diagnose w at layer midpoints by integrating continuity.

        ∂w/∂z = −(∂u/∂x + ∂v/∂y) with w(bed) = 0.  Horizontal derivatives
        use centred differences on the non-uniform grid; the layer
        thickness is ``total_depth · Δσ``.

        Returns (nz, ny, nx).
        """
        nz = self.layers.nz
        dzf = self.layers.thickness_fractions
        dz = dzf[:, None, None] * total_depth[None]

        div = np.empty_like(u3)
        for k in range(nz):
            div[k] = self._divergence_centers(u3[k], v3[k])

        w_iface = np.zeros((nz + 1,) + total_depth.shape)
        for k in range(nz):
            w_iface[k + 1] = w_iface[k] - div[k] * dz[k]
        return 0.5 * (w_iface[:-1] + w_iface[1:])

    # ------------------------------------------------------------------
    def _divergence_centers(self, uc: np.ndarray, vc: np.ndarray) -> np.ndarray:
        """∂u/∂x + ∂v/∂y at centres via centred differences."""
        grid = self.grid
        dx = grid.dx
        dy = grid.dy
        dudx = np.zeros_like(uc)
        dudx[:, 1:-1] = (uc[:, 2:] - uc[:, :-2]) / (dx[:, 1:-1] * 2.0)
        dvdy = np.zeros_like(vc)
        dvdy[1:-1, :] = (vc[2:, :] - vc[:-2, :]) / (dy[1:-1, :] * 2.0)
        return dudx + dvdy
