#!/usr/bin/env python
"""Configurable surrogate training driver.

The example-scale equivalent of the paper's offline training stage
(§III-D): generate (or reuse) solver archives, build the augmented
sliding-window dataset, train with Adam + cosine warmup + gradient
clipping, validate each epoch, and checkpoint the best model.

Run:  python examples/train_surrogate.py --epochs 8 --batch-size 2
      python examples/train_surrogate.py --use-checkpoint   # SW-MSA ckpt
"""

import argparse
from pathlib import Path

import numpy as np

import _bootstrap  # noqa: F401  (src-checkout path setup)

from repro.data import DataLoader, SlidingWindowDataset, build_archives
from repro.ocean import OceanConfig
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.train import (
    Adam,
    CosineWarmup,
    Trainer,
    TrainerConfig,
    save_checkpoint,
)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workdir", type=Path,
                   default=Path(".train_example"),
                   help="archive + checkpoint directory")
    p.add_argument("--train-days", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=2)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--window", type=int, default=4,
                   help="episode length T")
    p.add_argument("--stride", type=int, default=2,
                   help="sliding-window stride (paper uses 6)")
    p.add_argument("--workers", type=int, default=1,
                   help="prefetch workers (paper uses 6)")
    p.add_argument("--use-checkpoint", action="store_true",
                   help="activation checkpointing on SW-MSA paths")
    return p.parse_args()


def main() -> None:
    args = parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)

    ocean_cfg = OceanConfig(nx=14, ny=15, nz=6,
                            length_x=14_000.0, length_y=15_000.0)
    print("preparing archives...")
    bundle = build_archives(args.workdir / "archives", ocean_cfg,
                            train_days=args.train_days, test_days=0.25,
                            spinup_days=0.25)
    store = bundle.open_train()
    norm = bundle.open_normalizer()

    model_cfg = SurrogateConfig(
        mesh=(16, 16, 6), time_steps=args.window,
        patch3d=(4, 4, 2), patch2d=(4, 4),
        embed_dim=8, num_heads=(2, 4, 8),
        window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2),
        use_checkpoint=args.use_checkpoint)
    model = CoastalSurrogate(model_cfg)
    print(f"model: {model.parameter_breakdown()} "
          f"(checkpointing={'on' if args.use_checkpoint else 'off'})")

    dataset = SlidingWindowDataset(store, norm, window=args.window,
                                   stride=args.stride)
    train_ds, val_ds = dataset.split(0.9, seed=0)   # the paper's 9:1
    train_loader = DataLoader(train_ds, batch_size=args.batch_size,
                              shuffle=True, num_workers=args.workers,
                              seed=0)
    val_loader = DataLoader(val_ds, batch_size=1, shuffle=False) \
        if len(val_ds) else None

    optimizer = Adam(model.parameters(), lr=args.lr)
    total_steps = max(2, args.epochs * len(train_loader))
    schedule = CosineWarmup(optimizer, warmup_steps=total_steps // 10 + 1,
                            total_steps=total_steps)
    trainer = Trainer(model, TrainerConfig(lr=args.lr),
                      optimizer=optimizer, schedule=schedule)

    best = np.inf
    ckpt = args.workdir / "best_model.npz"

    def on_epoch(stats):
        nonlocal best
        val = stats.val_loss if stats.val_loss is not None \
            else stats.train_loss
        marker = ""
        if val < best:
            best = val
            save_checkpoint(ckpt, model, optimizer,
                            extra={"epoch": stats.epoch, "val": val})
            marker = "  * saved"
        print(f"epoch {stats.epoch:2d}: train {stats.train_loss:.4f} "
              f"val {val:.4f}  {stats.throughput:.2f} inst/s{marker}")

    trainer.fit(train_loader, val_loader, epochs=args.epochs,
                on_epoch=on_epoch)
    print(f"best checkpoint: {ckpt} (val loss {best:.4f})")


if __name__ == "__main__":
    main()
