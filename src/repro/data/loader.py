"""Batching data loader with worker prefetch (paper §III-D).

The paper hides SSD→RAM latency behind computation using PyTorch
DataLoader workers with a prefetch factor, pinned host memory and
non-blocking device copies.  This loader reproduces the *mechanism*:
thread workers prefetching batches ahead of consumption.  Pinned memory
has no meaning in this NumPy engine; its effect on Fig. 9's ablation is
modelled by :class:`repro.hpc.pipeline.PipelineConfig`.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from .dataset import EpisodeSample, SlidingWindowDataset


@dataclass
class Batch:
    """A stacked mini-batch of episodes."""

    x3d: np.ndarray   # (B, 3, H, W, D, T)
    x2d: np.ndarray   # (B, 1, H, W, T)
    y3d: np.ndarray
    y2d: np.ndarray
    starts: List[int]

    @property
    def batch_size(self) -> int:
        return self.x3d.shape[0]


def _collate(samples: Sequence[EpisodeSample]) -> Batch:
    return Batch(
        x3d=np.stack([s.x3d for s in samples]),
        x2d=np.stack([s.x2d for s in samples]),
        y3d=np.stack([s.y3d for s in samples]),
        y2d=np.stack([s.y2d for s in samples]),
        starts=[s.start for s in samples],
    )


class DataLoader:
    """Iterate a dataset in shuffled mini-batches with prefetching.

    Parameters
    ----------
    dataset: episode source.
    batch_size: episodes per batch (the paper trains at 2/GPU with
        activation checkpointing).
    shuffle: reshuffle each epoch (seeded, reproducible).
    num_workers: prefetch worker threads; 0 = synchronous.  Each
        stages ``PREFETCH_FACTOR`` batches ahead.

    The final batch may be ragged.
    """

    PREFETCH_FACTOR = 2

    def __init__(self, dataset: SlidingWindowDataset, batch_size: int = 1,
                 shuffle: bool = True, num_workers: int = 0,
                 seed: int = 0):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.num_workers = num_workers
        self.seed = seed
        self._epoch = 0

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def _index_batches(self) -> List[List[int]]:
        idx = np.arange(len(self.dataset))
        if self.shuffle:
            rng = np.random.default_rng(self.seed + self._epoch)
            rng.shuffle(idx)
        return [idx[i:i + self.batch_size].tolist()
                for i in range(0, len(idx), self.batch_size)]

    def __iter__(self) -> Iterator[Batch]:
        batches = self._index_batches()
        self._epoch += 1
        if self.num_workers == 0:
            for b in batches:
                yield _collate([self.dataset[i] for i in b])
            return
        yield from self._prefetch_iter(batches)

    # ------------------------------------------------------------------
    def _prefetch_iter(self, batches: List[List[int]]) -> Iterator[Batch]:
        """Thread-backed producer/consumer with bounded lookahead."""
        depth = max(1, self.num_workers * self.PREFETCH_FACTOR)
        q: "queue.Queue" = queue.Queue(maxsize=depth)
        stop = threading.Event()

        def producer() -> None:
            try:
                for b in batches:
                    if stop.is_set():
                        return
                    q.put(_collate([self.dataset[i] for i in b]))
            except Exception as exc:  # surface worker errors to consumer
                q.put(exc)
            finally:
                q.put(None)

        worker = threading.Thread(target=producer, daemon=True)
        worker.start()
        try:
            while True:
                item = q.get()
                if item is None:
                    break
                if isinstance(item, Exception):
                    raise item
                yield item
        finally:
            stop.set()
            # drain so the producer can observe the stop flag promptly
            while not q.empty():
                try:
                    q.get_nowait()
                except queue.Empty:
                    break
            worker.join(timeout=5.0)
