"""repro — reproduction of "Accelerate Coastal Ocean Circulation Model
with AI Surrogate" (Xu et al., IPDPS 2025; arXiv:2410.14952).

Subpackages
-----------
- :mod:`repro.tensor` — NumPy autograd engine (the PyTorch substitute).
- :mod:`repro.nn` — neural-network layers (only :mod:`repro.swin` uses
  them, so the root ``__all__`` leaves it out).
- :mod:`repro.swin` — the 4-D Swin Transformer surrogate (core contribution).
- :mod:`repro.ocean` — ROMS-like tidal circulation substrate.
- :mod:`repro.data` — archives, preprocessing, episode datasets, loaders.
- :mod:`repro.train` — Adam, cosine warmup, episode loss, trainer,
  checkpointing (one module).
- :mod:`repro.physics` — water-mass residual and the conservation
  ``Verifier`` (one module).
- :mod:`repro.workflow` — dual-model forecasting + hybrid AI/ROMS loop.
- :mod:`repro.serve` — micro-batching scheduler, result cache, server.
- :mod:`repro.scenario` — basin scenario factory + replayable traffic.
- :mod:`repro.hpc` — platform simulation and performance models.
- :mod:`repro.eval` — accuracy metrics, series skill, report tables
  (one module).

Each package's ``__all__`` names what something outside it uses;
everything else is imported from the module that defines it.
"""

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "swin",
    "ocean",
    "data",
    "train",
    "physics",
    "workflow",
    "serve",
    "scenario",
    "hpc",
    "eval",
]
