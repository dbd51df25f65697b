"""Dataset generation: run the ocean substrate, archive the snapshots.

The paper trains on the 2011 ROMS year and tests on 2012.  At our
scale, :func:`build_archives` runs the tidal model once through a
spin-up, a "training year" segment, and a "test year" segment, writing
one :class:`SnapshotStore` per segment plus the fitted normaliser.
:func:`resample_store` builds the coarse-interval archive for the
12-day model by subsampling the fine archive (every 24th half-hour
snapshot = 12-hourly), exactly like the paper's resampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..ocean.model import OceanConfig, RomsLikeModel
from .preprocess import Normalizer
from .store import SnapshotStore, VARIABLES

DAY = 86400.0


@dataclass(frozen=True)
class ArchiveBundle:
    """Paths and metadata of a generated dataset."""

    root: Path
    train: Path
    test: Path
    normalizer: Path
    ocean_config: OceanConfig

    def open_train(self) -> SnapshotStore:
        return SnapshotStore(self.train)

    def open_test(self) -> SnapshotStore:
        return SnapshotStore(self.test)

    def open_normalizer(self) -> Normalizer:
        return Normalizer.load(self.normalizer)


def build_archives(out_dir: Path | str,
                   ocean_config: Optional[OceanConfig] = None,
                   train_days: float = 8.0,
                   test_days: float = 4.0,
                   spinup_days: float = 1.0) -> ArchiveBundle:
    """Generate (or reuse) the train/test snapshot archives.

    The solver runs continuously — spin-up, then the training segment,
    then the test segment — so the test data is a genuinely later
    period of the same dynamical system, mirroring the 2011/2012 split.

    Parameters
    ----------
    out_dir: directory to hold ``train/``, ``test/``, ``normalizer.json``.
    train_days, test_days: segment lengths (paper: one year each; the
        default 8+4 days keeps CPU runtime modest while spanning many
        tidal cycles).

    Archives already under ``out_dir`` are reused as they are.
    """
    out = Path(out_dir)
    bundle = ArchiveBundle(
        root=out,
        train=out / "train",
        test=out / "test",
        normalizer=out / "normalizer.json",
        ocean_config=ocean_config or OceanConfig(),
    )
    marker = out / "archives.json"
    if marker.exists():
        return bundle

    cfg = bundle.ocean_config
    model = RomsLikeModel(cfg)
    interval = cfg.snapshot_interval

    state = model.spinup(spinup_days * DAY)

    n_train = int(round(train_days * DAY / interval))
    snaps, state = model.simulate(state, n_train)
    train_store = SnapshotStore(bundle.train)
    train_store.write(snaps, interval)

    normalizer = Normalizer.fit_from_store(train_store)
    normalizer.save(bundle.normalizer)

    n_test = int(round(test_days * DAY / interval))
    snaps, state = model.simulate(state, n_test)
    test_store = SnapshotStore(bundle.test)
    test_store.write(snaps, interval)

    marker.write_text(json.dumps({
        "train_days": train_days,
        "test_days": test_days,
        "spinup_days": spinup_days,
        "interval_s": interval,
        "mesh": [cfg.ny, cfg.nx, cfg.nz],
    }))
    return bundle


def resample_store(src: SnapshotStore, dst_root: Path | str,
                   every: int = 24) -> SnapshotStore:
    """Subsample an archive to a coarser interval (12-day model data).

    Copies every ``every``-th snapshot into a new store whose manifest
    interval is scaled accordingly.
    """
    meta = src.meta
    dst = SnapshotStore(dst_root)
    dst.root.mkdir(parents=True, exist_ok=True)
    indices = list(range(0, meta.n_snapshots, every))
    for new_idx, old_idx in enumerate(indices):
        for var in VARIABLES:
            arr = src.read_var(var, old_idx)
            np.save(dst.root / f"{var}_{new_idx:06d}.npy", arr)
    new_meta = {
        "n_snapshots": len(indices),
        "interval_s": meta.interval_s * every,
        "mesh": list(meta.mesh),
        "dtype": meta.dtype,
        "t0": meta.t0,
    }
    (dst.root / "manifest.json").write_text(json.dumps(new_meta))
    return dst
