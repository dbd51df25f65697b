"""Data pipeline: archives, preprocessing, episodes, loading.

Reproduces the paper's §III-B/§III-D data path: solver snapshots →
FP16 shards on disk → centre interpolation + padding + z-score →
sliding-window episodes → prefetching batched loader.
"""

from .store import SnapshotStore, StoreMeta, VARIABLES
from .preprocess import (
    Normalizer,
    faces_to_centers_u,
    faces_to_centers_v,
    pad_mesh,
    padded_shape,
    unpad_mesh,
)
from .dataset import (
    EpisodeSample,
    SlidingWindowDataset,
    assemble_episode_input,
    assemble_episode_input_batch,
)
from .loader import Batch, DataLoader
from .builder import ArchiveBundle, build_archives, resample_store
from .cache import LruBytes

__all__ = [
    "SnapshotStore",
    "StoreMeta",
    "VARIABLES",
    "Normalizer",
    "faces_to_centers_u",
    "faces_to_centers_v",
    "pad_mesh",
    "unpad_mesh",
    "padded_shape",
    "EpisodeSample",
    "SlidingWindowDataset",
    "assemble_episode_input",
    "assemble_episode_input_batch",
    "Batch",
    "DataLoader",
    "ArchiveBundle",
    "build_archives",
    "resample_store",
    "LruBytes",
]
