"""Data pipeline: archives, preprocessing, episodes, loading.

Reproduces the paper's §III-B/§III-D data path: solver snapshots →
FP16 shards on disk → centre interpolation + padding + z-score →
sliding-window episodes → prefetching batched loader.
"""

from .store import SnapshotStore
from .preprocess import Normalizer, pad_mesh
from .dataset import SlidingWindowDataset, assemble_episode_input_batch
from .loader import Batch, DataLoader
from .builder import build_archives, resample_store

__all__ = [
    "SnapshotStore",
    "Normalizer",
    "pad_mesh",
    "SlidingWindowDataset",
    "assemble_episode_input_batch",
    "Batch",
    "DataLoader",
    "build_archives",
    "resample_store",
]
