"""On-disk snapshot archive.

The paper's training corpus is a decade of half-hourly ROMS snapshots
(2.5–2.6 TB as FP16 shards on SSD).  :class:`SnapshotStore` reproduces
that layout at our scale: one ``.npy`` shard per snapshot per variable
plus a JSON manifest, with byte-level read accounting so the HPC
pipeline model (Table II / Fig. 9) can be driven by *measured* I/O
volumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..ocean.model import Snapshot

VARIABLES = ("u3", "v3", "w3", "zeta")


@dataclass(frozen=True)
class StoreMeta:
    """Manifest of one archive."""

    n_snapshots: int
    interval_s: float
    mesh: Tuple[int, int, int]       # (H, W, D)
    dtype: str
    t0: float

    def to_json(self) -> Dict:
        return {
            "n_snapshots": self.n_snapshots,
            "interval_s": self.interval_s,
            "mesh": list(self.mesh),
            "dtype": self.dtype,
            "t0": self.t0,
        }

    @staticmethod
    def from_json(d: Dict) -> "StoreMeta":
        return StoreMeta(
            n_snapshots=int(d["n_snapshots"]),
            interval_s=float(d["interval_s"]),
            mesh=tuple(d["mesh"]),
            dtype=str(d["dtype"]),
            t0=float(d.get("t0", 0.0)),
        )


class SnapshotStore:
    """Directory of per-snapshot ``.npy`` shards plus a manifest.

    Layout::

        root/
          manifest.json
          u3_000000.npy   v3_000000.npy   w3_000000.npy   zeta_000000.npy
          u3_000001.npy   ...
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._meta: Optional[StoreMeta] = None

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def write(self, snapshots: Sequence[Snapshot],
              interval_s: float) -> StoreMeta:
        """Persist a snapshot sequence in float16, the paper's storage
        precision."""
        self.root.mkdir(parents=True, exist_ok=True)
        np_dtype = np.dtype(np.float16)
        for idx, snap in enumerate(snapshots):
            for var in VARIABLES:
                arr = getattr(snap, var).astype(np_dtype)
                path = self.root / f"{var}_{idx:06d}.npy"
                np.save(path, arr)
        first = snapshots[0]
        meta = StoreMeta(
            n_snapshots=len(snapshots),
            interval_s=float(interval_s),
            mesh=first.u3.shape,
            dtype=np_dtype.name,
            t0=float(first.t),
        )
        (self.root / "manifest.json").write_text(json.dumps(meta.to_json()))
        self._meta = meta
        return meta

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def meta(self) -> StoreMeta:
        if self._meta is None:
            manifest = self.root / "manifest.json"
            if not manifest.exists():
                raise FileNotFoundError(f"no manifest at {manifest}")
            self._meta = StoreMeta.from_json(json.loads(manifest.read_text()))
        return self._meta

    def __len__(self) -> int:
        return self.meta.n_snapshots

    def read_var(self, var: str, idx: int) -> np.ndarray:
        if var not in VARIABLES:
            raise KeyError(f"unknown variable {var!r}; expected {VARIABLES}")
        return np.load(self.root / f"{var}_{idx:06d}.npy")

    def read_snapshot(self, idx: int) -> Dict[str, np.ndarray]:
        """All four variables of snapshot ``idx``."""
        return {var: self.read_var(var, idx) for var in VARIABLES}

    def read_window(self, start: int, length: int
                    ) -> Dict[str, np.ndarray]:
        """Stacked window: u3/v3/w3 → (T, H, W, D); zeta → (T, H, W)."""
        if start < 0 or start + length > len(self):
            raise IndexError(
                f"window [{start}, {start + length}) out of range "
                f"for store of {len(self)} snapshots")
        out: Dict[str, np.ndarray] = {}
        for var in VARIABLES:
            out[var] = np.stack(
                [self.read_var(var, start + k) for k in range(length)], axis=0)
        return out
