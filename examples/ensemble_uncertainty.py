#!/usr/bin/env python
"""Ensemble uncertainty quantification (the paper's §V future work).

The surrogate's 450× speedup is motivated by "an ensemble of tens of
thousands of models for uncertainty quantification" (§I).  This example
runs an initial-condition-perturbation ensemble through a trained
surrogate and produces the early-warning products: forecast mean,
spread, and water-level exceedance probabilities.

Run:  python examples/ensemble_uncertainty.py
"""

from pathlib import Path
import tempfile
import time

import numpy as np

import _bootstrap  # noqa: F401  (src-checkout path setup)

from repro.data import DataLoader, SlidingWindowDataset, build_archives
from repro.eval import format_table
from repro.ocean import OceanConfig, RomsLikeModel
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.train import Trainer, TrainerConfig
from repro.workflow import EnsembleForecaster, FieldWindow, SurrogateForecaster

T = 4
N_MEMBERS = 8


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_ensemble_"))
    ocean_cfg = OceanConfig(nx=14, ny=15, nz=6,
                            length_x=14_000.0, length_y=15_000.0)
    bundle = build_archives(workdir, ocean_cfg, train_days=0.5,
                            test_days=0.25, spinup_days=0.25)
    norm = bundle.open_normalizer()

    print("training surrogate...")
    cfg = SurrogateConfig(
        mesh=(16, 16, 6), time_steps=T,
        patch3d=(4, 4, 2), patch2d=(4, 4),
        embed_dim=8, num_heads=(2, 4, 8),
        window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2))
    model = CoastalSurrogate(cfg)
    ds = SlidingWindowDataset(bundle.open_train(), norm, window=T, stride=2)
    Trainer(model, TrainerConfig(lr=2e-3)).fit(
        DataLoader(ds, batch_size=2, shuffle=True, seed=0), epochs=8)

    w = bundle.open_test().read_window(0, T)
    reference = FieldWindow(
        w["u3"].astype(np.float64), w["v3"].astype(np.float64),
        w["w3"].astype(np.float64), w["zeta"].astype(np.float64))

    ocean = RomsLikeModel(ocean_cfg)
    forecaster = SurrogateForecaster(model, norm)
    ensemble = EnsembleForecaster(
        forecaster,
        n_members=N_MEMBERS, zeta_sigma=0.03)
    print(f"running {N_MEMBERS}-member ensemble (one batched forward)...")
    t0 = time.perf_counter()
    out = ensemble.forecast(reference, wet=ocean.solver.wet)
    batched_seconds = time.perf_counter() - t0
    print(f"  batched: {batched_seconds:.2f} s "
          f"({batched_seconds / N_MEMBERS:.3f} s/member, model forward "
          f"{out.inference_seconds:.2f} s)")

    # the same members one at a time — the pre-batching cost
    t0 = time.perf_counter()
    for m in range(N_MEMBERS):
        forecaster.forecast_episode(
            ensemble._perturbed(reference, m, ocean.solver.wet))
    serial_seconds = time.perf_counter() - t0
    print(f"  serial loop for comparison: {serial_seconds:.2f} s "
          f"({serial_seconds / batched_seconds:.1f}x slower)")

    wet = ocean.solver.wet
    rows = []
    for t in range(1, T):
        spread = out.spread.zeta[t][wet]
        err = np.abs(out.mean.zeta[t] - reference.zeta[t])[wet]
        rows.append([t, f"{spread.mean():.4f}", f"{spread.max():.4f}",
                     f"{err.mean():.4f}"])
    print()
    print(format_table(
        ["Step", "Mean spread [m]", "Max spread [m]", "Mean |err| [m]"],
        rows, title="Ensemble ζ spread vs forecast error by lead time"))

    level = float(np.quantile(reference.zeta[-1][wet], 0.9))
    p = out.exceedance_probability(level)[-1]
    frac = (p[wet] > 0.5).mean()
    print(f"\nP(ζ > {level:.3f} m) at final step: "
          f"{frac * 100:.1f}% of wet cells exceed with p > 0.5")


if __name__ == "__main__":
    main()
