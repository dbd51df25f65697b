#!/usr/bin/env python
"""Storm-parameter assimilation through the served gradient endpoint.

A twin experiment: a "true" parametric cyclone forces the surrogate and
its surge field becomes the synthetic observation; a mis-specified
first-guess cyclone is then calibrated against that observation by
gradient descent, with every gradient evaluated by the serving tier
(``ForecastServer.submit_sensitivity`` — the adjoint runs inside the
same micro-batching/caching machinery that serves forecasts, see
``docs/differentiation.md``).

Each iteration submits one ``GradientRequest`` with
``diagnostic="surge_mse"`` and ``wrt=("storm",)``: the response carries
d(mse)/d(parameter) for all six cyclone parameters, chained through
the storm overlay, the input normalisation, and the full surrogate
forward.  Descent runs in a scaled parameter space (metres and pascals
need very different step sizes) and recovers the storm centre and
intensity from the surge signal alone.

Run:  python examples/assimilation_demo.py
"""

import numpy as np

import _bootstrap  # noqa: F401  (src-checkout path setup)

from repro.data import Normalizer
from repro.serve import ForecastServer
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.workflow import (
    FieldWindow,
    ForecastEngine,
    GradientRequest,
    StormOverlay,
)

T, H, W, D = 4, 15, 14, 6
VARS = ("u3", "v3", "w3", "zeta")

#: parameters being assimilated and the characteristic scale of each
#: (descent steps are taken in units of these scales)
FREE = ("x0", "y0", "max_wind")
SCALES = {"x0": 1000.0, "y0": 1000.0, "max_wind": 5.0}


def build_engine(seed: int = 1) -> ForecastEngine:
    cfg = SurrogateConfig(
        mesh=(16, 16, D), time_steps=T,
        patch3d=(4, 4, 2), patch2d=(4, 4),
        embed_dim=8, num_heads=(2, 4, 8), depths=(2, 2, 2),
        window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2),
    )
    model = CoastalSurrogate(cfg)
    rng = np.random.default_rng(seed)
    state = {k: (v + rng.normal(scale=0.02, size=v.shape)).astype(v.dtype)
             for k, v in model.state_dict().items()}
    model.load_state_dict(state)
    norm = Normalizer({v: 0.1 for v in VARS}, {v: 1.5 for v in VARS})
    return ForecastEngine(model, norm)


def make_window(seed: int = 7) -> FieldWindow:
    rng = np.random.default_rng(seed)
    return FieldWindow(
        rng.normal(size=(T, H, W, D)), rng.normal(size=(T, H, W, D)),
        rng.normal(size=(T, H, W, D)), rng.normal(size=(T, H, W)))


def main() -> None:
    engine = build_engine()
    window = make_window()

    # -- the truth and its synthetic observation ------------------------
    truth = StormOverlay(x0=6000.0, y0=7000.0, vx=500.0, vy=300.0,
                         max_wind=60.0, radius_max_wind=8000.0,
                         central_pressure_drop=20000.0, dt=3.0)
    observation = engine.forecast_batch([truth.apply(window)])[0].fields.zeta

    # -- mis-specified first guess: centre off by kilometres, winds weak
    guess = truth.replace(x0=2500.0, y0=10000.0, max_wind=45.0)

    print("twin-experiment assimilation over the served gradient endpoint")
    print(f"  truth : x0={truth.x0:7.0f}m  y0={truth.y0:7.0f}m  "
          f"max_wind={truth.max_wind:4.1f}m/s")
    print(f"  guess : x0={guess.x0:7.0f}m  y0={guess.y0:7.0f}m  "
          f"max_wind={guess.max_wind:4.1f}m/s\n")

    # Adam in scaled space: the mse responds orders of magnitude more
    # strongly to the storm centre than to peak wind, so a global step
    # would freeze max_wind — per-parameter moment normalisation keeps
    # every component moving
    iters, lr, b1, b2 = 40, 0.35, 0.9, 0.999
    m = {p: 0.0 for p in FREE}
    v = {p: 0.0 for p in FREE}
    with ForecastServer(engine) as server:
        for it in range(iters):
            request = GradientRequest(
                window, diagnostic="surge_mse", wrt=("storm",),
                observation=observation, storm=guess)
            result = server.submit_sensitivity(request).result(timeout=300)

            g = {p: result.d_storm[p] * SCALES[p] for p in FREE}
            decay = lr * (1.0 - it / iters)   # linear cooldown
            updates = {}
            for p in FREE:
                m[p] = b1 * m[p] + (1 - b1) * g[p]
                v[p] = b2 * v[p] + (1 - b2) * g[p] * g[p]
                mh = m[p] / (1 - b1 ** (it + 1))
                vh = v[p] / (1 - b2 ** (it + 1))
                step = decay * mh / (np.sqrt(vh) + 1e-12)
                updates[p] = getattr(guess, p) - step * SCALES[p]
            guess = guess.replace(**updates)

            if it % 5 == 0 or it == iters - 1:
                gnorm = float(np.sqrt(sum(x * x for x in g.values())))
                print(f"  iter {it:2d}: mse={result.value:10.3e}  "
                      f"x0={guess.x0:7.0f}  y0={guess.y0:7.0f}  "
                      f"max_wind={guess.max_wind:4.1f}  "
                      f"|grad|={gnorm:.2e}")

        final = server.submit_sensitivity(GradientRequest(
            window, diagnostic="surge_mse", wrt=("storm",),
            observation=observation, storm=guess)).result(timeout=300)
        grad_batches = server.metrics()["grad_batches"]

    print(f"\n  recovered: x0={guess.x0:7.0f}m (truth {truth.x0:.0f})  "
          f"y0={guess.y0:7.0f}m (truth {truth.y0:.0f})  "
          f"max_wind={guess.max_wind:4.1f}m/s (truth {truth.max_wind:.1f})")
    print(f"  final mse: {final.value:.3e}  "
          f"({grad_batches} gradient micro-batches served)")

    err_km = np.hypot(guess.x0 - truth.x0, guess.y0 - truth.y0) / 1000.0
    print(f"  centre error: {err_km:.2f} km")
    assert final.value < 1e-4, "assimilation failed to reduce the misfit"
    print("OK")


if __name__ == "__main__":
    main()
