#!/usr/bin/env python
"""One SHA-256 per line over the bits a refactor must not move.

    python tools/bits_digest.py [ROOT] > digests.txt

imports ``ROOT/src`` and ``ROOT/benchmarks/e2e/workloads.py`` (default:
this checkout), so the same file run against a ``git clone`` of the
parent and against the change gives two texts to ``diff``:

* replay and eager model forward, and ``forecast_batch``, on
  ``SERVING_CFG`` b1 / b8 and ``ESTUARY_CFG`` b1, with the compiled
  plan's step list (names, kinds, slots, const keys), arena bytes and
  constant count, plus ``forecast_batch`` alone on ``ESTUARY_CFG`` b8
  (the batch that replays as row shards);
* ``sensitivity_batch`` values, storm and field gradients for every
  diagnostic (``wrt=("fields", "storm")``, b4);
* the losses and every parameter / buffer after three Adam steps in
  training mode (BatchNorm batch statistics, ``**``, ``abs``).
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else __file__ + "/../..").resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import workloads as wl  # noqa: E402 — needs the two path entries above
from repro.tensor import PlanExecutor, Tensor, no_grad  # noqa: E402
from repro.train.loss import mse  # noqa: E402
from repro.train.optim import Adam  # noqa: E402
from repro.workflow import ForecastEngine  # noqa: E402


def sha(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(str((a.shape, a.dtype)).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def forward_lines():
    for cfg, window, tag, batches in (
            (wl.SERVING_CFG, wl.SERVING_WINDOW, "serving", (1, 8)),
            (wl.ESTUARY_CFG, wl.ESTUARY_WINDOW, "estuary", (1,))):
        model = wl.build_model(cfg, seed=3)
        model.eval()
        engine = ForecastEngine(model, wl.unit_normalizer())
        for b in batches:
            plan = engine.compile(b).plan
            rng = np.random.default_rng([b, 7])
            ins = [rng.normal(size=plan.slots[s].shape)
                   .astype(plan.slots[s].dtype) for s in plan.inputs]
            replay = [o.copy() for o in PlanExecutor(plan).run(ins)]
            with no_grad():
                eager = [t.data for t in model(*map(Tensor, ins))]
            steps = [(s.name, s.kind, s.out, s.ins, sorted(s.consts))
                     for s in plan.steps]
            yield (f"{tag} b{b} replay {sha(replay)} eager {sha(eager)} plan "
                   f"{hashlib.sha256(repr(steps).encode()).hexdigest()[:16]} "
                   f"steps {len(steps)} arena {plan.arena_total} "
                   f"consts {len(plan.const_arrays)}")
            yield forecast_line(engine, tag, b, window)
    # the estuary b8 batch replays as row shards where the host has
    # several CPUs: only what forecast_batch returns is comparable
    engine.compile(8)
    yield forecast_line(engine, "estuary", 8, wl.ESTUARY_WINDOW)


def forecast_line(engine, tag, b, window):
    windows = wl.make_windows(np.random.default_rng([b, 9]), b, window)
    fields = [getattr(r.fields, v)
              for r in engine.forecast_batch(windows) for v in wl.VARS]
    return f"{tag} b{b} forecast_batch {sha(fields)}"


def adjoint_lines():
    engine = ForecastEngine(wl.build_model(wl.SERVING_CFG, seed=3),
                            wl.unit_normalizer())
    windows = wl.make_windows(np.random.default_rng(11), 4, wl.SERVING_WINDOW)
    observed = [np.random.default_rng(12 + i).normal(
        size=wl.SERVING_WINDOW[:3]) for i in range(4)]
    for name in ("peak_surge", "mean_surge", "surge_mse"):
        results = engine.sensitivity_batch(
            windows, wrt=("fields", "storm"), diagnostic=name,
            observations=observed if name == "surge_mse" else None,
            storms=[wl.STORM] * 4)
        yield f"adjoint {name} " + sha(
            [np.array([r.value for r in results]),
             np.array([r.d_storm[k] for r in results
                       for k in sorted(r.d_storm)])]
            + [getattr(r.d_fields, v) for r in results for v in wl.VARS])


def training_line():
    model = wl.build_model(wl.SERVING_CFG, seed=5)
    model.train()
    optimiser = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(21)
    (H, W, D), T = wl.SERVING_CFG.mesh, wl.SERVING_CFG.time_steps
    losses = []
    for _ in range(3):
        x3 = Tensor(rng.normal(size=(2, 3, H, W, D, T)).astype(np.float32))
        x2 = Tensor(rng.normal(size=(2, 1, H, W, T)).astype(np.float32))
        y3, y2 = model(x3, x2)
        loss = mse(y3, x3) + ((y2 - x2) ** 2).mean() \
            + (y2.abs() ** 1.5).mean() * 0.1
        optimiser.zero_grad()
        loss.backward()
        optimiser.step()
        losses.append(loss.data)
    state = [value for _, value in sorted(model.state_dict().items())]
    return f"train 3 adam steps {sha(losses + state)}"


if __name__ == "__main__":
    for line in (*forward_lines(), *adjoint_lines(), training_line()):
        print(line)
