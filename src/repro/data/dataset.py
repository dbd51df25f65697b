"""Sliding-window episode dataset (paper §III-B).

An *episode* is ``T`` consecutive snapshots whose first slot is the
initial condition: the surrogate input carries the full IC in slot 0
and only the lateral boundary rims in slots 1..T−1; the target carries
the full fields in every slot.  The training year is augmented with a
sliding window (stride 6, as in the paper); test windows do not
overlap.

Conventions (see DESIGN.md): with ``T = 24`` and a 0.5-h interval an
episode spans 11.5 h of forecast — the scaled analogue of the paper's
12-hour fine model; with a 12-h interval it spans 11.5 days (coarse
model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .preprocess import Normalizer, pad_mesh, padded_shape
from .store import SnapshotStore


@dataclass
class EpisodeSample:
    """One training/evaluation episode.

    Attributes
    ----------
    x3d: (3, H', W', D, T) input — IC in slot 0, boundary rims after.
    x2d: (1, H', W', T) input for ζ, same convention.
    y3d: (3, H', W', D, T) full-field target.
    y2d: (1, H', W', T) full-field target.
    start: index of the first snapshot in the source store.
    """

    x3d: np.ndarray
    x2d: np.ndarray
    y3d: np.ndarray
    y2d: np.ndarray
    start: int


#: rim width, in cells, of the boundary-condition slots 1..T−1
BOUNDARY_WIDTH = 1


def _rim_mask(h: int, w: int, width: int, dtype) -> np.ndarray:
    """(H, W) mask that is 1 on a boundary rim of ``width`` cells."""
    mask = np.zeros((h, w), dtype=dtype)
    mask[:width, :] = 1
    mask[-width:, :] = 1
    mask[:, :width] = 1
    mask[:, -width:] = 1
    return mask


def assemble_episode_input_batch(u3: np.ndarray, v3: np.ndarray,
                                 w3: np.ndarray, zeta: np.ndarray,
                                 boundary_width: int = BOUNDARY_WIDTH
                                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Build batched (x3d, x2d) surrogate inputs, vectorised over N.

    Parameters
    ----------
    u3, v3, w3: (N, T, H, W, D) full fields; zeta: (N, T, H, W).
    boundary_width: rim width preserved in slots 1..T−1.

    Returns
    -------
    x3d: (N, 3, H, W, D, T); x2d: (N, 1, H, W, T).
    """
    vol = np.stack([u3, v3, w3], axis=1)       # (N, 3, T, H, W, D)
    H, W = vol.shape[3:5]
    mask = _rim_mask(H, W, boundary_width, vol.dtype)
    x3d = vol * mask[:, :, None]               # rims only, all slots
    x3d[:, :, 0] = vol[:, :, 0]                # slot 0: full IC
    zeta = np.asarray(zeta)
    x2d = zeta[:, None] * mask                 # (N, 1, T, H, W)
    x2d[:, 0, 0] = zeta[:, 0]
    # time axis last: (N, 3, H, W, D, T) / (N, 1, H, W, T)
    return np.moveaxis(x3d, 2, -1), np.moveaxis(x2d, 2, -1)


def assemble_episode_input(u3: np.ndarray, v3: np.ndarray, w3: np.ndarray,
                           zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Build (x3d, x2d) surrogate inputs from full-field windows.

    Batch-1 special case of :func:`assemble_episode_input_batch`.

    Parameters
    ----------
    u3, v3, w3: (T, H, W, D) full fields; zeta: (T, H, W).

    Returns
    -------
    x3d: (3, H, W, D, T); x2d: (1, H, W, T).
    """
    x3d, x2d = assemble_episode_input_batch(
        np.asarray(u3)[None], np.asarray(v3)[None], np.asarray(w3)[None],
        np.asarray(zeta)[None])
    return x3d[0], x2d[0]


class SlidingWindowDataset:
    """Episodes cut from a :class:`SnapshotStore` with optional overlap.

    Parameters
    ----------
    store: source archive.
    normalizer: fitted z-score statistics (from the *training* archive).
    window: episode length T.
    stride: window start spacing (6 for training augmentation, use
        ``window`` for non-overlapping test windows).
    pad_to: explicit padded (H', W') target — use the surrogate's
        ``config.mesh`` when the mesh must also satisfy patch-merging
        divisibility, not just the patch size.  Without it snapshots
        are zero-padded so H, W divide by 4 (paper's 900×600 trick).

    Samples are float16, mirroring the paper's storage.
    """

    VAR3D = ("u3", "v3", "w3")

    def __init__(self, store: SnapshotStore, normalizer: Normalizer,
                 window: int = 24, stride: int = 6,
                 pad_to: Optional[Tuple[int, int]] = None):
        self.store = store
        self.normalizer = normalizer
        self.window = int(window)
        self.stride = int(stride)
        self.dtype = np.dtype(np.float16)
        H, W, _ = store.meta.mesh
        self.padded_hw = tuple(pad_to) if pad_to is not None \
            else padded_shape(H, W, 4, 4)
        n = len(store)
        if n < self.window:
            raise ValueError(
                f"store has {n} snapshots < window {self.window}")
        self.starts: List[int] = list(
            range(0, n - self.window + 1, self.stride))

    def __len__(self) -> int:
        return len(self.starts)

    # ------------------------------------------------------------------
    def _load_window(self, start: int) -> Dict[str, np.ndarray]:
        raw = self.store.read_window(start, self.window)
        out: Dict[str, np.ndarray] = {}
        ph, pw = self.padded_hw
        for var, arr in raw.items():
            a = self.normalizer.normalize(var, arr.astype(np.float32))
            # pad the (H, W) axes, which are axes 1, 2 of (T, H, W[, D])
            a = np.moveaxis(a, 0, -1)            # (H, W[, D], T)
            a = pad_mesh(a, ph, pw)
            out[var] = np.moveaxis(a, -1, 0)     # back to (T, H', W'[, D])
        return out

    def __getitem__(self, i: int) -> EpisodeSample:
        if not 0 <= i < len(self):
            raise IndexError(i)
        start = self.starts[i]
        w = self._load_window(start)
        x3d, x2d = assemble_episode_input(
            w["u3"], w["v3"], w["w3"], w["zeta"])
        y3d = np.moveaxis(
            np.stack([w[v] for v in self.VAR3D], axis=0), 1, -1)
        y2d = np.moveaxis(w["zeta"][None], 1, -1)
        x3d, x2d, y3d, y2d = (np.ascontiguousarray(a, dtype=self.dtype)
                              for a in (x3d, x2d, y3d, y2d))
        return EpisodeSample(x3d, x2d, y3d, y2d, start)

    # ------------------------------------------------------------------
    def split(self, fraction: float, seed: int = 0
              ) -> Tuple["SlidingWindowDataset", "SlidingWindowDataset"]:
        """Random train/validation split of the window starts (9:1 in
        the paper)."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.starts))
        n_first = int(round(fraction * len(order)))
        first = _SubsetDataset(self, [self.starts[k] for k in order[:n_first]])
        second = _SubsetDataset(self, [self.starts[k] for k in order[n_first:]])
        return first, second


class _SubsetDataset(SlidingWindowDataset):
    """View over a parent dataset restricted to specific window starts."""

    def __init__(self, parent: SlidingWindowDataset, starts: List[int]):
        # share configuration without re-validating the store
        self.store = parent.store
        self.normalizer = parent.normalizer
        self.window = parent.window
        self.stride = parent.stride
        self.dtype = parent.dtype
        self.padded_hw = parent.padded_hw
        self.starts = list(starts)
