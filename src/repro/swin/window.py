"""4-D window partitioning, reversal, cyclic shift and attention masks.

Implements the geometric machinery of the 4-D Swin Transformer
(paper §III-C, Fig. 3): tokens laid out on an ``(H, W, D, T)`` lattice
are grouped into non-overlapping windows of size
``(MH, MW, MD, MT)`` for W-MSA; SW-MSA cyclically shifts the lattice by
half a window before grouping, and an additive mask blocks attention
between tokens that wrapped around different seams.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..tensor import Tensor

__all__ = [
    "window_partition",
    "window_reverse",
    "effective_window",
    "compute_shift_sizes",
    "compute_attention_mask",
]

NEG_INF = -1e4  # large-negative mask value (fp16-safe, cf. paper's FP16 path)


def effective_window(dims: Sequence[int], window: Sequence[int]) -> Tuple[int, ...]:
    """Clamp window sizes to the lattice dims (window ≥ dim ⇒ global attn)."""
    return tuple(min(w, d) for w, d in zip(window, dims))


def compute_shift_sizes(dims: Sequence[int], window: Sequence[int]) -> Tuple[int, ...]:
    """Half-window shifts; zero along axes where the window spans the dim."""
    eff = effective_window(dims, window)
    return tuple(0 if w >= d else w // 2 for w, d in zip(eff, dims))


def window_partition(x: Tensor, window: Sequence[int]) -> Tensor:
    """Group a token lattice into windows.

    Parameters
    ----------
    x: ``(B, H, W, D, T, C)`` tensor.
    window: ``(MH, MW, MD, MT)``; each must divide the matching dim.

    Returns
    -------
    ``(B * num_windows, MH*MW*MD*MT, C)`` tensor of per-window tokens.
    """
    B, H, W, D, T, C = x.shape
    mh, mw, md, mt = effective_window((H, W, D, T), window)
    x = x.reshape(B, H // mh, mh, W // mw, mw, D // md, md, T // mt, mt, C)
    # bring window-index axes together, window-content axes together
    x = x.transpose(0, 1, 3, 5, 7, 2, 4, 6, 8, 9)
    return x.reshape(-1, mh * mw * md * mt, C)


def window_reverse(windows: Tensor, window: Sequence[int],
                   dims: Sequence[int]) -> Tensor:
    """Inverse of :func:`window_partition`.

    Parameters
    ----------
    windows: ``(B * num_windows, N, C)``.
    window: the window shape used to partition.
    dims: original ``(H, W, D, T)``.
    """
    H, W, D, T = dims
    mh, mw, md, mt = effective_window(dims, window)
    C = windows.shape[-1]
    B = windows.shape[0] // ((H // mh) * (W // mw) * (D // md) * (T // mt))
    x = windows.reshape(B, H // mh, W // mw, D // md, T // mt,
                        mh, mw, md, mt, C)
    x = x.transpose(0, 1, 5, 2, 6, 3, 7, 4, 8, 9)
    return x.reshape(B, H, W, D, T, C)


@lru_cache(maxsize=64)
def compute_attention_mask(dims: Tuple[int, ...], window: Tuple[int, ...],
                           shift: Tuple[int, ...]) -> np.ndarray:
    """Additive attention mask for SW-MSA.

    After a cyclic shift, tokens from opposite edges of the domain land in
    the same window; they must not attend to each other.  Following Liu et
    al., every lattice site is labelled by which shift region it falls in;
    pairs with different labels get ``NEG_INF``.

    Returns
    -------
    ``(num_windows, N, N)`` float32 array (N = window volume), broadcast
    over batch and heads by the caller.
    """
    eff = effective_window(dims, window)
    label = np.zeros(dims, dtype=np.int64)
    cnt = 0
    # iterate the cartesian product of per-axis slice triples
    def axis_slices(d: int, w: int, s: int):
        if s == 0:
            return [slice(0, d)]
        return [slice(0, d - w), slice(d - w, d - s), slice(d - s, d)]

    import itertools
    all_slices = [axis_slices(d, w, s) for d, w, s in zip(dims, eff, shift)]
    for combo in itertools.product(*all_slices):
        label[combo] = cnt
        cnt += 1

    lab = window_partition(
        Tensor(label[None, ..., None].astype(np.float32)), eff
    ).data[..., 0]  # (nW, N)
    diff = lab[:, :, None] - lab[:, None, :]
    mask = np.where(diff != 0, np.float32(NEG_INF), np.float32(0.0))
    return mask.astype(np.float32)
