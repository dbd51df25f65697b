"""ROMS-like coastal ocean circulation substrate.

A from-scratch NumPy tidal circulation model of a Charlotte-Harbor-like
estuary: non-uniform Arakawa-C grid, synthetic barrier-island/inlet
bathymetry, harmonic tidal forcing, split-explicit barotropic solver,
and sigma-layer vertical structure.  It generates the training data for
the AI surrogate and serves as the physics fallback in the hybrid
workflow.
"""

from .grid import CurvilinearGrid, StretchedAxis, make_charlotte_grid
from .bathymetry import BathymetryConfig, synth_estuary_bathymetry, wet_mask
from .tides import GULF_CONSTITUENTS, TidalConstituent, TidalForcing
from .sigma import SigmaLayers, VerticalStructure
from .swe import GRAVITY, SWEConfig, ShallowWaterSolver, ShallowWaterState
from .model import OceanConfig, RomsLikeModel, Snapshot
from .storm import ParametricCyclone, StormForcedSolver

__all__ = [
    "CurvilinearGrid",
    "StretchedAxis",
    "make_charlotte_grid",
    "BathymetryConfig",
    "synth_estuary_bathymetry",
    "wet_mask",
    "TidalConstituent",
    "TidalForcing",
    "GULF_CONSTITUENTS",
    "SigmaLayers",
    "VerticalStructure",
    "SWEConfig",
    "ShallowWaterSolver",
    "ShallowWaterState",
    "GRAVITY",
    "OceanConfig",
    "RomsLikeModel",
    "Snapshot",
    "ParametricCyclone",
    "StormForcedSolver",
]
