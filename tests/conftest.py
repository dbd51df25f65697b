"""Shared fixtures: a tiny estuary, tiny archives, tiny surrogate.

Session-scoped so expensive setup (solver spin-up, archive generation)
runs once.  All sizes are the smallest that still exercise every code
path: two patch mergings, shifted windows, multi-episode stores.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest

from dataclasses import replace

from repro.data import Normalizer, SlidingWindowDataset, build_archives
from repro.ocean import (
    OceanConfig,
    RomsLikeModel,
    ShallowWaterSolver,
    SWEConfig,
    TidalForcing,
    make_charlotte_grid,
    synth_estuary_bathymetry,
)
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.workflow import ForecastEngine
from repro.workflow.engine import FieldWindow

# ----------------------------------------------------------------------
# geometry / solver fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def tiny_grid():
    """14×15 cell grid (~1 km spacing) — smallest realistic estuary."""
    return make_charlotte_grid(nx=14, ny=15, length_x=14_000.0,
                               length_y=15_000.0)


@pytest.fixture(scope="session")
def tiny_depth(tiny_grid):
    return synth_estuary_bathymetry(tiny_grid)


@pytest.fixture(scope="session")
def tiny_solver(tiny_grid, tiny_depth):
    return ShallowWaterSolver(tiny_grid, tiny_depth, TidalForcing(),
                              SWEConfig())


@pytest.fixture(scope="session")
def tiny_ocean_config():
    return OceanConfig(nx=14, ny=15, nz=6, length_x=14_000.0,
                       length_y=15_000.0)


@pytest.fixture(scope="session")
def tiny_ocean(tiny_ocean_config):
    return RomsLikeModel(tiny_ocean_config)


# ----------------------------------------------------------------------
# data fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def tiny_bundle(tmp_path_factory, tiny_ocean_config):
    """Archives: half a training day + a quarter test day of snapshots."""
    root = tmp_path_factory.mktemp("archives")
    return build_archives(root, tiny_ocean_config,
                          train_days=0.5, test_days=0.25,
                          spinup_days=0.25)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_bundle):
    store = tiny_bundle.open_train()
    norm = tiny_bundle.open_normalizer()
    return SlidingWindowDataset(store, norm, window=4, stride=2,
                                pad_multiple=(4, 4))


# ----------------------------------------------------------------------
# model fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def tiny_surrogate_config():
    """Mesh 16×16×6 (padded from 15×14), T=4, two mergings."""
    return SurrogateConfig(
        mesh=(16, 16, 6), time_steps=4,
        patch3d=(4, 4, 2), patch2d=(4, 4),
        embed_dim=8, num_heads=(2, 4, 8), depths=(2, 2, 2),
        window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2),
    )


@pytest.fixture(scope="session")
def tiny_surrogate(tiny_surrogate_config):
    return CoastalSurrogate(tiny_surrogate_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# ----------------------------------------------------------------------
# serving fixtures: the tiny-mesh window/engine factory every serve,
# scenario, and operations test shares.  Session-scoped where bitwise-
# safe: engines are read-only during inference and windows are never
# mutated by consumers (schedulers stack copies).
# ----------------------------------------------------------------------

T = 4
H, W, D = 15, 14, 6          # serving wire mesh (padded to 16×16 inside)
VARS = ("u3", "v3", "w3", "zeta")


def make_window(seed, t=T, h=H, w=W, d=D):
    r = np.random.default_rng(seed)
    return FieldWindow(r.normal(size=(t, h, w, d)),
                       r.normal(size=(t, h, w, d)),
                       r.normal(size=(t, h, w, d)),
                       r.normal(size=(t, h, w)))


def assert_windows_equal(a, b):
    for var in VARS:
        np.testing.assert_array_equal(getattr(a, var), getattr(b, var))


def segments_alive(names):
    """Which of the shm segment names still exist on this host."""
    return [n for n in names if os.path.exists(f"/dev/shm/{n}")]


@pytest.fixture(scope="session")
def identity_norm():
    return Normalizer({v: 0.0 for v in VARS}, {v: 1.0 for v in VARS})


@pytest.fixture(scope="session")
def engine(tiny_surrogate, identity_norm):
    """The shared serving engine over the session surrogate."""
    return ForecastEngine(tiny_surrogate, identity_norm)


@pytest.fixture(scope="session")
def windows():
    return [make_window(seed) for seed in range(12)]


@pytest.fixture(scope="session")
def engine_factory(tiny_surrogate_config, identity_norm):
    """Build fresh tiny engines: ``init_seed`` re-seeds the weight
    init, ``perturb`` adds seeded noise to the weights — either forces
    two engines numerically apart (hot-swap/version-pinning tests)."""
    def build(init_seed=0, perturb=None, scale=0.05):
        cfg = tiny_surrogate_config if init_seed == 0 \
            else replace(tiny_surrogate_config, seed=init_seed)
        model = CoastalSurrogate(cfg)
        if perturb is not None:
            r = np.random.default_rng(perturb)
            state = {k: v + r.normal(scale=scale, size=v.shape)
                     .astype(v.dtype)
                     for k, v in model.state_dict().items()}
            model.load_state_dict(state)
        return ForecastEngine(model, identity_norm)
    return build


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


@contextmanager
def count_forwards(model):
    """Count calls to ``model.forward`` via an instance-level wrapper."""
    counter = {"n": 0}
    orig = model.forward

    def wrapped(*args, **kwargs):
        counter["n"] += 1
        return orig(*args, **kwargs)

    object.__setattr__(model, "forward", wrapped)
    try:
        yield counter
    finally:
        object.__delattr__(model, "forward")
