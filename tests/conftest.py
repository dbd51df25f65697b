"""Shared fixtures: a tiny estuary, tiny archives, tiny surrogate.

Session-scoped so expensive setup (solver spin-up, archive generation)
runs once.  All sizes are the smallest that still exercise every code
path: two patch mergings, shifted windows, multi-episode stores.

Also here: the ``remote_tier`` fixture every test of a behaviour both
remote tiers share runs over, the helpers more than one module uses,
and the tier-1 budget line printed at the end of every run.
"""

from __future__ import annotations

import importlib.util
import os
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
from repro.serve.hostpool import HostWorker
from repro.serve.procpool import ProcessWorker
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
    return SlidingWindowDataset(store, norm, window=4, stride=2)


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


def assert_results_equal(a, b):
    for ra, rb in zip(a, b):
        assert_windows_equal(ra.fields, rb.fields)


def segments_alive(names):
    """Which of the shm segment names still exist on this host."""
    return [n for n in names if os.path.exists(f"/dev/shm/{n}")]


def leftover_segments(worker):
    """Everything of this worker pair still in /dev/shm, by its token
    prefix — so a segment the pair no longer names (the ``-arena`` one
    a child used to create for its plan intermediates) is still seen.
    A worker without a token (the host tier) has no segments."""
    token = getattr(worker, "_token", None)
    if token is None:
        return []
    return [n for n in os.listdir("/dev/shm") if n.startswith(token)]


def second_model(engine):
    """A same-shape model with different weights (fresh init seed)."""
    return type(engine.model)(replace(engine.model.config, seed=99))


def wait_until(predicate, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


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


def map_submissions(pool, wins, keys=None):
    """Submit windows; returns [(future, window)] for later audit."""
    out = []
    for i, w in enumerate(wins):
        fut = pool.submit(w, key=None if keys is None else keys[i])
        out.append((fut, w))
    return out


def assert_pool_batches_bitwise(pool, placed, engines_by_version):
    """Every realised micro-batch holding audited requests equals the
    direct forecast_batch of its admitting version's engine on its
    exact composition (batch composition matters: only the same
    composition is bitwise-comparable)."""
    by_placement = {(f.worker_id, f.request_id): (f, w)
                    for f, w in placed}
    checked = 0
    for worker in pool._all_workers():
        # a rolled-back version's worker served nothing auditable
        direct_engine = engines_by_version.get(worker.version)
        if direct_engine is None:
            continue
        for batch in worker.scheduler.metrics.batches:
            keys = [(worker.worker_id, rid) for rid in batch.request_ids]
            if batch.failed or any(k not in by_placement for k in keys):
                continue
            wins = [by_placement[k][1] for k in keys]
            direct = direct_engine.forecast_batch(wins)
            for k, d in zip(keys, direct):
                fut = by_placement[k][0]
                assert_windows_equal(fut.result(timeout=0).fields,
                                     d.fields)
                checked += 1
    assert checked == len(placed)


# ----------------------------------------------------------------------
# remote tiers: a behaviour both out-of-process tiers share is written
# once, over this fixture; what only one tier's codec or liveness
# source does is tested in that tier's module
# ----------------------------------------------------------------------


def kill(worker):
    """Kill the remote abruptly: ``SIGKILL`` to a child process,
    endpoint teardown for the sim fabric's in-process rank — the fault
    the client must then detect and surface."""
    if isinstance(worker, HostWorker) and worker.fabric == "sim":
        worker._remote_ep.close()
    else:
        os.kill(worker.pid, signal.SIGKILL)


class RemoteTier:
    """One remote tier, named ``backend`` or ``backend-fabric``.

    ``pool_kwargs`` select it on a pool; :meth:`worker` constructs its
    client; ``counters`` names its two transport counters (wait,
    bytes); ``child`` says whether its remote is a child process (the
    sim fabric's is a thread of this one).
    """

    kill = staticmethod(kill)

    def __init__(self, name):
        self.name = name
        self.backend, _, fabric = name.partition("-")
        self.fabric = fabric or None
        self.pool_kwargs = {"backend": self.backend}
        if self.fabric:
            self.pool_kwargs["fabric"] = self.fabric
        self.counters = ("ipc_wait_s", "marshal_bytes") \
            if self.backend == "process" else ("net_wait_s", "frame_bytes")
        self.child = self.fabric != "sim"

    def worker(self, engine, **kwargs):
        if self.backend == "process":
            return ProcessWorker(engine, **kwargs)
        return HostWorker(engine, fabric=self.fabric, **kwargs)


REMOTE_TIERS = {name: RemoteTier(name)
                for name in ("process", "host-sim", "host-socket")}


@pytest.fixture(params=list(REMOTE_TIERS))
def remote_tier(request):
    return REMOTE_TIERS[request.param]


# ----------------------------------------------------------------------
# the tier-1 budget: the run's wall time, scaled to the benchmark's
# quiet reference host by the Calibrator burst of
# benchmarks/e2e/harness.py: three bursts before and three after the
# session, and one after each test that ends >= 10 s past the last
# burst, so contention during the run is sampled too (one burst reads
# ±20 % on a busy host; the median of all of them holds still).  The
# mid-session bursts' own time is not counted in the wall.  CI's
# tier-1 step reads the line and fails past 90 s; nothing here fails.
# ----------------------------------------------------------------------

_BURSTS = 3
_BURST_EVERY_S = 10.0


def _calibrator():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" \
        / "harness.py"
    spec = importlib.util.spec_from_file_location("_e2e_harness", path)
    harness = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = harness
    spec.loader.exec_module(harness)
    return harness.Calibrator(burst_s=0.1)


class _Budget:
    """The budget's bursts and clock, one per pytest run."""

    def pytest_sessionstart(self, session):
        self.calibrator = _calibrator()
        for _ in range(_BURSTS):
            self.calibrator.sample()
        self.start = self.last = time.perf_counter()
        self.burst_s = 0.0

    def pytest_runtest_logfinish(self, nodeid, location):
        begin = time.perf_counter()
        if begin - self.last < _BURST_EVERY_S:
            return
        self.calibrator.sample()
        self.last = time.perf_counter()
        self.burst_s += self.last - begin

    def pytest_terminal_summary(self, terminalreporter):
        wall = time.perf_counter() - self.start - self.burst_s
        for _ in range(_BURSTS):
            self.calibrator.sample()
        speed = statistics.median(self.calibrator.samples)
        terminalreporter.write_line(
            f"tier-1 budget: wall {wall:.1f} s, host speed {speed:.2f}, "
            f"scaled {wall * speed:.1f} s (bound 90 s)")


def pytest_configure(config):
    config.pluginmanager.register(_Budget(), "tier1-budget")
