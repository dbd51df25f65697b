"""Weight initialisation schemes.

Swin Transformers initialise linear/attention weights with truncated
normal (std 0.02) and norms with ones/zeros; convolutions use Kaiming
fan-in scaling.  All functions take an explicit ``rng`` so that model
construction is fully deterministic and reproducible across runs — a
hard requirement for the paper-reproduction benchmarks.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def default_rng(seed: int = 0) -> np.random.Generator:
    """Library-wide RNG constructor (PCG64, explicit seed)."""
    return np.random.default_rng(seed)


def trunc_normal(shape: Sequence[int], rng: np.random.Generator
                 ) -> np.ndarray:
    """Normal(0, 0.02) truncated to ±2·std, via resampling."""
    std = 0.02
    out = rng.normal(0.0, std, size=tuple(shape))
    lim = 2.0 * std
    bad = np.abs(out) > lim
    # Resample outliers; for std=0.02 this converges in a couple rounds.
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > lim
    return out.astype(np.float32)


def _fans(shape: Sequence[int]) -> Tuple[int, int]:
    """(fan_in, fan_out) for linear or conv kernels."""
    shape = tuple(shape)
    if len(shape) == 2:
        return shape[1], shape[0]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def kaiming_uniform(shape: Sequence[int], rng: np.random.Generator
                    ) -> np.ndarray:
    """PyTorch's default conv/linear init (LeakyReLU gain, slope √5)."""
    fan_in, _ = _fans(shape)
    a = np.sqrt(5.0)
    gain = np.sqrt(2.0 / (1.0 + a * a))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=tuple(shape)).astype(np.float32)


def zeros(shape: Sequence[int]) -> np.ndarray:
    return np.zeros(tuple(shape), dtype=np.float32)


def ones(shape: Sequence[int]) -> np.ndarray:
    return np.ones(tuple(shape), dtype=np.float32)
