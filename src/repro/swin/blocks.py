"""4-D Swin Transformer blocks (paper Eq. 3, Fig. 3b) and their window
geometry.

Tokens laid out on an ``(H, W, D, T)`` lattice are grouped into
non-overlapping windows of size ``(MH, MW, MD, MT)`` for W-MSA (paper
§III-C, Fig. 3); SW-MSA cyclically shifts the lattice by half a window
before grouping, and an additive mask blocks attention between tokens
that wrapped around different seams.

A :class:`SwinBlock4d` is one LN → (S)W-MSA → residual → LN → MLP →
residual unit; blocks come in W-MSA / SW-MSA pairs inside a
:class:`SwinStage4d`, optionally followed by patch merging.  Activation
checkpointing (paper §III-D) can wrap the attention sub-path: the paper
cuts peak GPU memory by storing only the activations at SW-MSA block
boundaries and recomputing everything else in the backward pass;
:func:`checkpoint` runs a module's forward under ``no_grad`` (so no
interior graph is retained) and splices a recompute-on-backward node
into the surrounding graph.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..tensor import Tensor, is_grad_enabled, no_grad
from ..nn import LayerNorm, MLP, Module, ModuleList, MultiHeadSelfAttention
from ..nn import init
from .patch import PatchMerging4d

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


def checkpoint(fn: Callable[[Tensor], Tensor], x: Tensor) -> Tensor:
    """Apply ``fn`` to ``x`` without storing interior activations.

    The forward pass runs in inference mode; only ``x`` (the boundary
    activation) is retained.  On backward, ``fn`` is re-executed with
    gradients enabled to rebuild the interior graph, which is then
    differentiated with the incoming gradient.  Parameters referenced
    inside ``fn`` receive their gradients through the recomputed graph.

    Notes
    -----
    ``fn`` must be deterministic between the two executions.  The
    surrogate has no stochastic layer: like the paper's, it trains
    without dropout.
    """
    if not (is_grad_enabled() and x.requires_grad):
        return fn(x)        # nothing to recompute for: tape as usual

    with no_grad():
        out_data = fn(x).data

    out = Tensor(out_data)
    out.requires_grad = True
    out._parents = (x,)

    def _bw(g: np.ndarray) -> None:
        x_live = Tensor(x.data, requires_grad=True)
        recomputed = fn(x_live)
        recomputed.backward(g)
        if x.requires_grad and x_live.grad is not None:
            x._accum(x_live.grad)

    out._backward = _bw
    return out


class SwinBlock4d(Module):
    """One 4-D Swin block operating on ``(B, H, W, D, T, C)`` tokens.

    Parameters
    ----------
    dim: channel width ``C``.
    num_heads: attention heads.
    window: ``(MH, MW, MD, MT)`` window shape.
    shifted: apply the half-window cyclic shift (SW-MSA) before
        partitioning, enabling cross-window information flow.
    use_checkpoint: recompute the attention path on backward instead of
        storing its activations.
    """

    def __init__(self, dim: int, num_heads: int, window: Sequence[int],
                 shifted: bool = False, use_checkpoint: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.dim = dim
        self.window = tuple(window)
        self.shifted = shifted
        self.use_checkpoint = use_checkpoint
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = MLP(dim, rng=rng)

    # ------------------------------------------------------------------
    def _attention_path(self, x: Tensor) -> Tensor:
        """LN → window partition → MSA (masked if shifted) → reverse."""
        B, H, W, D, T, C = x.shape
        dims = (H, W, D, T)
        win = effective_window(dims, self.window)
        shift = compute_shift_sizes(dims, self.window) if self.shifted \
            else (0, 0, 0, 0)

        h = self.norm1(x)
        if any(shift):
            h = h.roll(tuple(-s for s in shift), axis=(1, 2, 3, 4))
        tokens = window_partition(h, win)

        mask = None
        if any(shift):
            # (nW, 1, N, N): the attention layer broadcasts it over the
            # batch (window_partition lays tokens out batch-slowest), so
            # no tiled copy is ever materialised.
            mask = compute_attention_mask(dims, win, shift)[:, None, :, :]

        tokens = self.attn(tokens, mask=mask)
        h = window_reverse(tokens, win, dims)
        if any(shift):
            h = h.roll(shift, axis=(1, 2, 3, 4))
        return h

    def forward(self, x: Tensor) -> Tensor:
        if self.use_checkpoint:
            x = x + checkpoint(self._attention_path, x)
        else:
            x = x + self._attention_path(x)
        return x + self.mlp(self.norm2(x))


class SwinStage4d(Module):
    """A W-MSA/SW-MSA block pair, optionally followed by patch merging.

    Returns ``(out, pre_merge)`` where ``pre_merge`` is the feature map
    before downsampling — consumed by the decoder skip connections
    (paper Fig. 2).
    """

    def __init__(self, dim: int, num_heads: int, window: Sequence[int],
                 depth: int = 2, downsample: bool = True,
                 use_checkpoint: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        blocks = []
        for i in range(depth):
            blocks.append(SwinBlock4d(
                dim, num_heads, window, shifted=(i % 2 == 1),
                use_checkpoint=use_checkpoint, rng=rng,
            ))
        self.blocks = ModuleList(blocks)
        self.downsample = PatchMerging4d(dim, rng=rng) if downsample else None
        self.out_dim = 2 * dim if downsample else dim

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        for block in self.blocks:
            x = block(x)
        pre_merge = x
        if self.downsample is not None:
            x = self.downsample(x)
        return x, pre_merge
