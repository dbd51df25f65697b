"""Scenario factory: named basins over the ocean layer.

The paper's surge-forecasting target is inherently multi-scenario —
different basins, storm tracks, and tidal regimes — but a
:class:`~repro.serve.scheduler.MicroBatchScheduler` coalesces only
requests that share one mesh.  The factory resolves that tension with
**wire-mesh staging**: every basin keeps its own *native* geometry
(heterogeneous ``(ny, nx, nz)`` grid, bathymetry, sigma layers, tides,
storm track), and :meth:`Basin.window` embeds the synthesised fields
into a common serving mesh (zero beyond the basin extent), so requests
from all basins batch together on one engine.

Everything is a pure function of ``(seed, basin, time)``:

* basin construction derives all randomness (bathymetry noise,
  constituent amplitude/phase jitter) from
  ``np.random.default_rng((seed, index))`` — same seed, same basins,
  bitwise;
* window synthesis is closed-form in ``t`` (harmonic tide +
  inverse-barometer surge + Holland wind-driven currents distributed
  over the sigma layers by the log-layer profile) — no RNG, so windows
  are bitwise-reproducible regardless of call order.

:class:`RollingForecast` is the streaming mode: a basin episode whose
*current* window is content-identical between :meth:`~RollingForecast.advance`
calls, so consecutive requests for one basin key hit
the pool's ``"key-affinity"`` locality *and* the
:class:`~repro.serve.cache.ForecastCache`; ``advance`` slides the
window one model step, optionally warm-starting from a forecast tail
(observation nudging), which stays deterministic because the engine is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..ocean.bathymetry import (BathymetryConfig, synth_estuary_bathymetry,
                                wet_mask)
from ..ocean.grid import make_charlotte_grid
from ..ocean.sigma import SigmaLayers, VerticalStructure
from ..ocean.storm import P_AMBIENT, RHO_WATER, ParametricCyclone
from ..ocean.swe import GRAVITY
from ..ocean.tides import GULF_CONSTITUENTS, TidalConstituent, TidalForcing
from ..workflow.engine import FieldWindow, ForecastResult

#: fraction of the 10 m wind speed carried by the depth-averaged
#: current (classic wind-driven-drift rule of thumb)
WIND_DRIFT_FRACTION = 0.03


@dataclass(frozen=True)
class BasinSpec:
    """Static description of one named basin.

    ``ny``/``nx``/``nz`` are the basin's *native* mesh — heterogeneous
    across basins, each bounded by the factory's wire mesh.  ``weight``
    is the basin's tenant share of offered traffic (read by
    :class:`~repro.scenario.traffic.TrafficModel`).
    """

    name: str
    ny: int
    nx: int
    nz: int
    length_x: float = 14_000.0
    length_y: float = 15_000.0
    tide_scale: float = 1.0           # constituent amplitude multiplier
    storm_wind: float = 30.0          # peak gradient wind [m/s]
    storm_track: Tuple[float, float, float, float] = (-0.2, 0.5, 6.0, 1.0)
    #: (x0_frac, y0_frac, vx, vy): landfall start as domain fractions +
    #: translation speed [m/s]
    weight: float = 1.0


#: Four Gulf-coast-flavoured basins with genuinely different native
#: meshes, storm tracks, and tidal regimes.  Every native mesh fits the
#: default wire mesh (15, 14, 6).
DEFAULT_BASINS: Tuple[BasinSpec, ...] = (
    BasinSpec("punta-gorda", ny=15, nx=14, nz=6, weight=3.0,
              storm_track=(-0.2, 0.5, 6.0, 1.0)),
    BasinSpec("boca-grande", ny=12, nx=10, nz=4, length_x=10_000.0,
              length_y=12_000.0, tide_scale=1.4, storm_wind=38.0,
              weight=2.0, storm_track=(-0.3, 0.3, 8.0, 2.0)),
    BasinSpec("san-carlos", ny=10, nx=12, nz=5, length_x=12_000.0,
              length_y=10_000.0, tide_scale=0.8, storm_wind=24.0,
              weight=1.5, storm_track=(-0.1, 0.7, 4.0, -1.0)),
    BasinSpec("matlacha", ny=8, nx=8, nz=3, length_x=8_000.0,
              length_y=8_000.0, tide_scale=0.6, storm_wind=18.0,
              weight=1.0, storm_track=(-0.4, 0.4, 10.0, 0.0)),
)


class Basin:
    """One realised basin: grid, bathymetry, tides, storm, and the
    closed-form window synthesiser.

    Built by :class:`ScenarioFactory`; all randomness is drawn at
    construction from the factory seed and the basin's index, after
    which :meth:`window` is a deterministic function of time.
    """

    def __init__(self, spec: BasinSpec, seed: int, index: int,
                 time_steps: int, wire_mesh: Tuple[int, int, int],
                 dt_seconds: float):
        self.spec = spec
        self.time_steps = time_steps
        self.wire_mesh = wire_mesh
        self.dt_seconds = dt_seconds
        rng = np.random.default_rng((seed, index))

        self.grid = make_charlotte_grid(spec.nx, spec.ny,
                                        spec.length_x, spec.length_y)
        bathy = replace(BathymetryConfig(),
                        seed=int(rng.integers(2 ** 31 - 1)),
                        shelf_depth=float(rng.uniform(12.0, 24.0)))
        self.h = synth_estuary_bathymetry(self.grid, bathy)
        self.wet = wet_mask(self.h)
        self.layers = SigmaLayers(spec.nz)
        self.vertical = VerticalStructure(self.grid, self.layers)

        # per-basin tidal regime: jittered constituent amplitudes and
        # phases around the Gulf set, scaled by the spec
        constituents = tuple(
            TidalConstituent(
                c.name, c.period_s,
                c.amplitude_m * spec.tide_scale
                * float(rng.uniform(0.85, 1.15)),
                c.phase_rad + float(rng.uniform(-0.5, 0.5)))
            for c in GULF_CONSTITUENTS)
        self.tides = TidalForcing(constituents)

        x0f, y0f, vx, vy = spec.storm_track
        self.storm = ParametricCyclone(
            x0=x0f * spec.length_x, y0=y0f * spec.length_y,
            vx=vx, vy=vy, max_wind=spec.storm_wind,
            radius_max_wind=0.4 * max(spec.length_x, spec.length_y))

        # fixed positive reference depth for the log-layer profile
        self._depth_floor = np.maximum(self.h, 0.5)

    @property
    def native_mesh(self) -> Tuple[int, int, int]:
        """(ny, nx, nz) — the basin's own resolution."""
        return (self.spec.ny, self.spec.nx, self.spec.nz)

    # ------------------------------------------------------------------
    def _snapshot(self, t: float):
        """Closed-form native fields at one instant.

        Returns ``(u3, v3, w3, zeta)`` with the 3-D fields shaped
        ``(nz, ny, nx)`` (bottom layer first) and ``zeta`` ``(ny, nx)``.
        """
        grid = self.grid
        tide = self.tides.elevation(t, grid.y_axis.centers)[:, None]
        surge = (P_AMBIENT - self.storm.pressure(grid, t)) \
            / (RHO_WATER * GRAVITY)
        zeta = (tide + surge) * self.wet

        wu, wv = self.storm.wind(grid, t)
        ubar = WIND_DRIFT_FRACTION * wu * self.wet
        vbar = WIND_DRIFT_FRACTION * wv * self.wet
        depth = np.maximum(self._depth_floor + zeta, 0.1)
        u3, v3 = self.vertical.horizontal(ubar, vbar, depth)
        w3 = self.vertical.vertical(u3, v3, depth)
        return u3, v3, w3, zeta

    def window(self, t0: float) -> FieldWindow:
        """Synthesise the ``time_steps``-long episode starting at
        ``t0`` [s], staged onto the wire mesh (zero beyond the basin's
        native extent)."""
        T = self.time_steps
        H, W, D = self.wire_mesh
        ny, nx, nz = self.native_mesh
        u = np.zeros((T, H, W, D))
        v = np.zeros((T, H, W, D))
        w = np.zeros((T, H, W, D))
        z = np.zeros((T, H, W))
        for k in range(T):
            u3, v3, w3, zeta = self._snapshot(t0 + k * self.dt_seconds)
            u[k, :ny, :nx, :nz] = np.transpose(u3, (1, 2, 0))
            v[k, :ny, :nx, :nz] = np.transpose(v3, (1, 2, 0))
            w[k, :ny, :nx, :nz] = np.transpose(w3, (1, 2, 0))
            z[k, :ny, :nx] = zeta
        return FieldWindow(u, v, w, z)


class RollingForecast:
    """A basin episode advancing with streaming observations.

    ``current`` stays content-identical between :meth:`advance` calls —
    repeated submissions of it are exact duplicates, which is what
    gives the serving stack its cache/dedup hits and (keyed by the
    basin name) its router affinity.  ``advance`` slides the episode
    one model step; when given the previous forecast it warm-starts by
    nudging the new first snapshot halfway toward the forecast tail —
    a deterministic blend, so replays stay bitwise.
    """

    def __init__(self, basin: Basin, start_t: float = 0.0):
        self.basin = basin
        self.t = float(start_t)
        self.steps = 0
        self._window = basin.window(self.t)

    @property
    def current(self) -> FieldWindow:
        """The episode's current request window (stable between
        advances; do not mutate)."""
        return self._window

    def advance(self, forecast: Optional[object] = None) -> FieldWindow:
        """Slide one model step (``basin.dt_seconds``) and return the
        new current window.

        ``forecast`` may be the previous window's
        :class:`~repro.workflow.engine.ForecastResult` (or bare
        :class:`~repro.workflow.engine.FieldWindow`); its last snapshot
        is blended 50/50 into the fresh observation at the new start
        time.  ``None`` means pure observations (open-loop replay).
        """
        self.t += self.basin.dt_seconds
        self.steps += 1
        nxt = self.basin.window(self.t)
        if forecast is not None:
            fields = forecast.fields if isinstance(forecast, ForecastResult) \
                else forecast
            for name in ("u3", "v3", "w3", "zeta"):
                obs = getattr(nxt, name)
                obs[0] = 0.5 * (obs[0] + getattr(fields, name)[-1])
        self._window = nxt
        return nxt


class ScenarioFactory:
    """Generate the named-basin set from a single seed.

    Parameters
    ----------
    seed: master seed; every basin derives its randomness from
        ``(seed, basin_index)``, so one integer pins the whole
        scenario set bitwise.
    basins: the :class:`BasinSpec` set (default :data:`DEFAULT_BASINS`).
    time_steps: episode length — must match the serving engine's
        ``time_steps``.
    wire_mesh: the common serving mesh ``(H, W, D)`` every basin's
        windows are staged onto; each native mesh must fit inside it.
    dt_seconds: model step between episode snapshots.
    """

    def __init__(self, seed: int = 0,
                 basins: Sequence[BasinSpec] = DEFAULT_BASINS,
                 time_steps: int = 4,
                 wire_mesh: Tuple[int, int, int] = (15, 14, 6),
                 dt_seconds: float = 600.0):
        names = [s.name for s in basins]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate basin names: {names}")
        H, W, D = wire_mesh
        for s in basins:
            if s.ny > H or s.nx > W or s.nz > D:
                raise ValueError(
                    f"basin {s.name!r} native mesh {(s.ny, s.nx, s.nz)} "
                    f"exceeds wire mesh {wire_mesh}")
        self.seed = seed
        self.time_steps = time_steps
        self.wire_mesh = tuple(wire_mesh)
        self.dt_seconds = dt_seconds
        self.specs = tuple(basins)
        self.basins: Dict[str, Basin] = {
            s.name: Basin(s, seed, i, time_steps, self.wire_mesh,
                          dt_seconds)
            for i, s in enumerate(basins)}

    @property
    def basin_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def basin(self, name: str) -> Basin:
        return self.basins[name]

    def rolling(self, name: str, start_t: float = 0.0) -> RollingForecast:
        """Open a rolling-forecast episode for one basin."""
        return RollingForecast(self.basins[name], start_t)
