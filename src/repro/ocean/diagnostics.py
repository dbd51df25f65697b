"""Conservation and stability diagnostics for the ocean substrate.

These are the solver-side counterparts of the AI-side physics
verification (paper §III-E): volume budget closure, kinetic/potential
energy, and CFL monitoring.  The test suite uses them as invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .swe import GRAVITY, ShallowWaterSolver, ShallowWaterState


@dataclass(frozen=True)
class VolumeBudget:
    """One-step volume budget: ΔV vs. net boundary + river inflow."""

    volume_change: float       # m³ over the step
    boundary_flux: float       # m³ through open boundaries (positive in)
    river_inflow: float        # m³ from river discharge
    residual: float            # ΔV − inflows (≈0 ⇒ conservative)

    @property
    def relative_residual(self) -> float:
        scale = max(abs(self.volume_change), abs(self.boundary_flux), 1.0)
        return abs(self.residual) / scale


def volume_budget(solver: ShallowWaterSolver, before: ShallowWaterState,
                  after: ShallowWaterState) -> VolumeBudget:
    """Close the volume budget across one (or more) solver steps.

    The continuity update is forward Euler in the fluxes, so for a
    *single* solver step the budget closes to round-off using the
    ``before`` fluxes, provided sponge nudging is off (nudging is an
    explicit non-conservative relaxation).
    """
    grid = solver.grid
    dt = after.t - before.t

    dv = solver.total_volume(after) - solver.total_volume(before)

    fx0, _ = solver.volume_fluxes(before)
    # open west faces: positive u flows *into* the domain
    face_len = grid.y_axis.spacing
    boundary = float((fx0[:, 0] * face_len).sum()) * dt

    river = solver.river_cell_discharge * int(solver.river_mask.sum()) * dt

    return VolumeBudget(dv, boundary, river, dv - boundary - river)


def energy(solver: ShallowWaterSolver, state: ShallowWaterState
           ) -> Dict[str, float]:
    """Domain-integrated kinetic and available potential energy [J/ρ]."""
    grid = solver.grid
    H = solver.total_depth(state.zeta)
    uc = grid.u_to_center(state.u)
    vc = grid.v_to_center(state.v)
    wet = solver.wet
    ke = 0.5 * (H * (uc ** 2 + vc ** 2) * grid.area)[wet].sum()
    pe = 0.5 * GRAVITY * (state.zeta ** 2 * grid.area)[wet].sum()
    return {"kinetic": float(ke), "potential": float(pe),
            "total": float(ke + pe)}


def cfl_number(solver: ShallowWaterSolver, state: ShallowWaterState) -> float:
    """Instantaneous gravity-wave CFL of the current state."""
    H = solver.total_depth(state.zeta)
    c = np.sqrt(GRAVITY * H[solver.wet].max())
    return float(c * solver.dt * np.sqrt(2.0) / solver.grid.min_spacing)
