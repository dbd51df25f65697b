"""N-dimensional convolution primitives with explicit adjoints.

The surrogate's decoder (paper §III-C) is built from 2-D/3-D transposed
convolutions plus 1×1 convolutions.  Rather than an im2col matmul (which
materialises a huge column matrix for 3-D volumes), the kernels here loop
over the *kernel offsets* — a tiny loop (≤ 5³ iterations) — with every
other dimension fully vectorised.  This follows the hpc-parallel guide's
advice: vectorise the big axes, keep the strides contiguous, and avoid
gratuitous copies.

Layouts
-------
* ``conv_nd``:            x ``(N, C_in, *S)``,  w ``(C_out, C_in, *K)``
* ``conv_transpose_nd``:  x ``(N, C_in, *S)``,  w ``(C_in, C_out, *K)``

which matches the PyTorch convention so the surrogate's weights keep the
same shapes as the paper's reference implementation.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from . import plan as _plan
from .tensor import Tensor, apply, astensor

__all__ = ["conv_nd", "conv_transpose_nd", "conv_output_shape",
           "conv_transpose_output_shape"]


def _as_tuple(v, n: int) -> Tuple[int, ...]:
    if isinstance(v, (tuple, list)):
        if len(v) != n:
            raise ValueError(f"expected length-{n} tuple, got {v}")
        return tuple(int(x) for x in v)
    return (int(v),) * n


def conv_output_shape(spatial: Sequence[int], kernel: Sequence[int],
                      stride: Sequence[int], padding: Sequence[int]) -> Tuple[int, ...]:
    """Spatial output shape of a strided, padded correlation."""
    return tuple(
        (s + 2 * p - k) // st + 1
        for s, k, st, p in zip(spatial, kernel, stride, padding)
    )


def conv_transpose_output_shape(spatial: Sequence[int], kernel: Sequence[int],
                                stride: Sequence[int],
                                output_padding: Sequence[int]) -> Tuple[int, ...]:
    """Spatial output shape of a transposed convolution."""
    return tuple(
        (s - 1) * st + k + op
        for s, k, st, op in zip(spatial, kernel, stride, output_padding)
    )


def _wide(a: np.ndarray) -> np.ndarray:
    """``a`` with its (unit-stride) last axis folded into the element.

    The patch interleaves below permute every axis but the last kernel
    axis, which is a contiguous run in source and destination alike;
    viewed as one opaque element of that many bytes, NumPy's copy loop
    moves a whole run per inner step instead of one scalar — the same
    bytes to the same places, for any dtype and kernel size.
    """
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize)))[..., 0]


def _fwd_patch(x: np.ndarray, w: np.ndarray, out_sp: Tuple[int, ...],
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """stride == kernel special case: non-overlapping patches.

    Every output site reads one disjoint input patch, so the whole
    correlation collapses to a single GEMM over flattened patches —
    one pass over the input instead of one strided pass per kernel
    offset.  This is the hot path of patch embedding (and, through
    :func:`_grad_input`, patch recovery), where batched inference
    spends most of its time.  With ``out`` (the compiled plan's arena
    buffer) the final interleaving copy lands there instead of a fresh
    allocation — a copy of the same GEMM values either way, so eager
    and replay stay bitwise identical.
    """
    kshape = w.shape[2:]
    N, Ci = x.shape[:2]
    Co = w.shape[0]
    crop = tuple(slice(0, o * k) for o, k in zip(out_sp, kshape))
    xv = x[(slice(None), slice(None)) + crop]
    split = (N, Ci) + tuple(v for ok in zip(out_sp, kshape) for v in ok)
    xv = xv.reshape(split)                      # (N, Ci, o1, k1, …, od, kd)
    nd = len(kshape)
    o_axes = tuple(2 + 2 * i for i in range(nd))
    k_axes = tuple(3 + 2 * i for i in range(nd))
    xv = xv.transpose((0,) + o_axes + (1,) + k_axes)   # (N, o…, Ci, k…)
    if kshape[-1] > 1 and xv.strides[-1] == xv.itemsize:
        # gather the patches run by run; a pointwise kernel has none,
        # and the reshape below is then a free view
        packed = np.empty(xv.shape, xv.dtype)
        np.copyto(_wide(packed), _wide(xv))
        xv = packed
    xmat = xv.reshape(N, int(np.prod(out_sp)), Ci * int(np.prod(kshape)))
    gemm = xmat @ w.reshape(Co, -1).T           # (N, O, Co)
    if out is None:
        return np.ascontiguousarray(np.moveaxis(gemm, -1, 1)).reshape(
            (N, Co) + tuple(out_sp))
    np.copyto(out.reshape(N, Co, -1), np.moveaxis(gemm, -1, 1))
    return out


def _fwd(x: np.ndarray, w: np.ndarray, stride: Tuple[int, ...]) -> np.ndarray:
    """Correlation: out[n,co,o] = sum_{ci,k} w[co,ci,k] x[n,ci,o*s+k]."""
    nd = x.ndim - 2
    kshape = w.shape[2:]
    out_sp = conv_output_shape(x.shape[2:], kshape, stride, (0,) * nd)
    if tuple(stride) == tuple(kshape):
        return _fwd_patch(x, w, out_sp)
    out = np.zeros((x.shape[0], w.shape[0]) + out_sp, dtype=np.result_type(x, w))
    for koff in itertools.product(*[range(k) for k in kshape]):
        sl = tuple(
            slice(k0, k0 + st * o, st) for k0, st, o in zip(koff, stride, out_sp)
        )
        xs = x[(slice(None), slice(None)) + sl]
        wk = w[(slice(None), slice(None)) + koff]  # (Co, Ci)
        out += np.einsum("nc...,oc->no...", xs, wk, optimize=True)
    return out


def _grad_input_patch(gout: np.ndarray, w: np.ndarray,
                      in_spatial: Tuple[int, ...],
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """stride == kernel adjoint: one GEMM + one interleaving copy.

    Each input patch receives gradient from exactly one output site, so
    the scatter collapses to ``gout @ w`` followed by reshaping the
    kernel axes back between the spatial axes — two passes over the
    (large, full-resolution) result instead of one per kernel offset.
    ``out`` as in :func:`_fwd_patch`: same values, arena-placed.
    """
    kshape = w.shape[2:]
    out_sp = gout.shape[2:]
    N, Co = gout.shape[:2]
    Ci = w.shape[1]
    nd = len(kshape)
    gmat = np.moveaxis(gout, 1, -1).reshape(N, int(np.prod(out_sp)), Co)
    gx = gmat @ w.reshape(Co, -1)               # (N, O, Ci·K)
    gx = gx.reshape((N,) + tuple(out_sp) + (Ci,) + tuple(kshape))
    o_axes = tuple(1 + i for i in range(nd))
    k_axes = tuple(2 + nd + i for i in range(nd))
    perm = (0, 1 + nd) + tuple(v for ok in zip(o_axes, k_axes) for v in ok)
    gx = gx.transpose(perm)                     # (N, Ci, o1, k1, …, od, kd)
    if out is None:
        out = np.empty((N, Ci) + tuple(o * k for o, k
                                       in zip(out_sp, kshape)), gx.dtype)
    np.copyto(_wide(out.reshape(gx.shape)), _wide(gx))
    return out


def _grad_input(gout: np.ndarray, w: np.ndarray, in_spatial: Tuple[int, ...],
                stride: Tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`_fwd` w.r.t. its input (also = transposed conv)."""
    kshape = w.shape[2:]
    out_sp = gout.shape[2:]
    if tuple(stride) == tuple(kshape) and tuple(in_spatial) == tuple(
            o * k for o, k in zip(out_sp, kshape)):
        return _grad_input_patch(gout, w, in_spatial)
    gx = np.zeros(
        (gout.shape[0], w.shape[1]) + tuple(in_spatial),
        dtype=np.result_type(gout, w),
    )
    for koff in itertools.product(*[range(k) for k in kshape]):
        sl = tuple(
            slice(k0, k0 + st * o, st) for k0, st, o in zip(koff, stride, out_sp)
        )
        wk = w[(slice(None), slice(None)) + koff]  # (Co, Ci)
        gx[(slice(None), slice(None)) + sl] += np.einsum(
            "no...,oc->nc...", gout, wk, optimize=True
        )
    return gx


def _grad_weight(gout: np.ndarray, x: np.ndarray, kshape: Tuple[int, ...],
                 stride: Tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`_fwd` w.r.t. the weight."""
    out_sp = gout.shape[2:]
    gw = np.zeros(
        (gout.shape[1], x.shape[1]) + tuple(kshape),
        dtype=np.result_type(gout, x),
    )
    for koff in itertools.product(*[range(k) for k in kshape]):
        sl = tuple(
            slice(k0, k0 + st * o, st) for k0, st, o in zip(koff, stride, out_sp)
        )
        xs = x[(slice(None), slice(None)) + sl]
        gw[(slice(None), slice(None)) + koff] = np.einsum(
            "no...,nc...->oc", gout, xs, optimize=True
        )
    return gw


def conv_nd(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
            stride=1, padding=0) -> Tensor:
    """N-d strided correlation (a "convolution" in NN parlance).

    Parameters
    ----------
    x: ``(N, C_in, *S)`` input.
    w: ``(C_out, C_in, *K)`` kernel.
    b: optional ``(C_out,)`` bias.
    stride, padding: ints or per-axis tuples over the spatial dims.
    """
    x, w = astensor(x), astensor(w)
    nd = x.data.ndim - 2
    stride = _as_tuple(stride, nd)
    padding = _as_tuple(padding, nd)
    b = None if b is None else astensor(b)
    out = apply("conv_nd", (x, w) if b is None else (x, w, b),
                {"stride": stride, "padding": padding})
    if out.requires_grad:
        xd_saved, wd_saved = x.data, w.data
        if any(padding):
            pw = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
            xd_saved = np.pad(xd_saved, pw)
        kshape = wd_saved.shape[2:]

        def _bw(g):
            g = np.asarray(g)
            if x.requires_grad:
                gx = _grad_input(g, wd_saved, xd_saved.shape[2:], stride)
                if any(padding):
                    sl = (slice(None), slice(None)) + tuple(
                        slice(p, s - p) for p, s in zip(padding, gx.shape[2:])
                    )
                    gx = gx[sl]
                x._accum(gx)
            if w.requires_grad:
                w._accum(_grad_weight(g, xd_saved, kshape, stride))
            if b is not None and b.requires_grad:
                b._accum(g.sum(axis=(0,) + tuple(range(2, g.ndim))))

        out._backward = _bw
    return out


def conv_transpose_nd(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
                      stride=1, output_padding=0) -> Tensor:
    """N-d transposed convolution (fractionally-strided upsampling).

    Parameters
    ----------
    x: ``(N, C_in, *S)`` input.
    w: ``(C_in, C_out, *K)`` kernel (PyTorch ConvTranspose layout).
    b: optional ``(C_out,)`` bias.
    stride: upsampling factor per axis.
    output_padding: extra trailing zeros per axis, to hit exact sizes.
    """
    x, w = astensor(x), astensor(w)
    nd = x.data.ndim - 2
    stride = _as_tuple(stride, nd)
    output_padding = _as_tuple(output_padding, nd)
    b = None if b is None else astensor(b)
    out = apply("conv_transpose_nd", (x, w) if b is None else (x, w, b),
                {"stride": stride, "output_padding": output_padding})
    if out.requires_grad:
        xd_saved, wd_saved = x.data, w.data
        kshape = wd_saved.shape[2:]

        def _bw(g):
            g = np.asarray(g)
            if any(output_padding):
                sl = (slice(None), slice(None)) + tuple(
                    slice(0, s - p) for s, p in zip(g.shape[2:], output_padding)
                )
                g_core = g[sl]
            else:
                g_core = g
            if x.requires_grad:
                # adjoint of _grad_input w.r.t. gout is the forward conv
                x._accum(_fwd(g_core, wd_saved, stride))
            if w.requires_grad:
                # gw[ci, co, k] = sum_{n,o} x[n,ci,o] * g[n,co,o*s+k]
                w._accum(_grad_weight(xd_saved, g_core, kshape, stride))
            if b is not None and b.requires_grad:
                b._accum(g.sum(axis=(0,) + tuple(range(2, g.ndim))))

        out._backward = _bw
    return out


# ----------------------------------------------------------------------
# plan kernels — the forwards of the two public functions above.  With
# ``out=None`` (eager, tape, trace) they allocate; with a preallocated
# ``out`` (replay) the final interleaving copy of the patch GEMM lands
# directly in the arena buffer — a copy of the same GEMM values either way.
# ----------------------------------------------------------------------
@_plan.register_kernel("conv_nd", "compute")
def _k_conv_nd(out, ins, consts):
    x, w = ins[0], ins[1]
    stride, padding = consts["stride"], consts["padding"]
    nd = x.ndim - 2
    if any(padding):
        pw = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
        x = np.pad(x, pw)
    kshape = w.shape[2:]
    out_sp = conv_output_shape(x.shape[2:], kshape, stride, (0,) * nd)
    if out is None:
        r = _fwd(x, w, stride)
        if len(ins) > 2:
            r = r + ins[2].reshape((1, -1) + (1,) * nd)
        return r
    if tuple(stride) == tuple(kshape):
        _fwd_patch(x, w, out_sp, out)
    else:
        np.copyto(out, _fwd(x, w, stride))
    if len(ins) > 2:
        out += ins[2].reshape((1, -1) + (1,) * nd)
    return out


@_plan.register_kernel("conv_transpose_nd", "compute")
def _k_conv_transpose_nd(out, ins, consts):
    x, w = ins[0], ins[1]
    stride = consts["stride"]
    output_padding = consts["output_padding"]
    nd = x.ndim - 2
    kshape = w.shape[2:]
    out_sp = conv_transpose_output_shape(x.shape[2:], kshape, stride,
                                         output_padding)
    # Forward of transposed conv == input-gradient of the forward conv,
    # with x playing the role of the output gradient.
    core_sp = tuple(o - op for o, op in zip(out_sp, output_padding))
    if out is None or any(output_padding):
        r = _grad_input(x, w, core_sp, stride)
        if any(output_padding):
            pw = ((0, 0), (0, 0)) + tuple((0, p) for p in output_padding)
            r = np.pad(r, pw)
        if len(ins) > 2:
            r = r + ins[2].reshape((1, -1) + (1,) * nd)
        if out is not None:
            np.copyto(out, r)
            return out
        return r
    if tuple(stride) == tuple(kshape) and tuple(core_sp) == tuple(
            o * k for o, k in zip(x.shape[2:], kshape)):
        _grad_input_patch(x, w, core_sp, out)
    else:
        np.copyto(out, _grad_input(x, w, core_sp, stride))
    if len(ins) > 2:
        out += ins[2].reshape((1, -1) + (1,) * nd)
    return out
