"""Patch maps: the surrogate's two convolutions, with explicit adjoints.

The surrogate convolves only to embed patches and to recover them
(paper §III-C): kernel = stride = patch, plus the 1×1 convolutions of
the decoder, whose patch is one site.  Every output site of such a
correlation reads one disjoint input patch, so each map is a single
GEMM over flattened patches plus one interleaving copy that moves the
kernel axes between the spatial ones — one pass over the large,
full-resolution side instead of one strided pass per kernel offset.

Layouts
-------
* ``conv_nd``:            x ``(N, C_in, *S)``,  w ``(C_out, C_in, *K)``
* ``conv_transpose_nd``:  x ``(N, C_in, *S)``,  w ``(C_in, C_out, *K)``

which matches the PyTorch convention so the surrogate's weights keep the
same shapes as the paper's reference implementation.  ``conv_nd`` maps
``S`` to ``S / K`` and takes only whole patches; ``conv_transpose_nd``
maps ``S`` to ``S · K``.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from . import plan as _plan
from .tensor import Tensor, apply, astensor


def _wide(a: np.ndarray) -> np.ndarray:
    """``a`` with its (unit-stride) last axis folded into the element.

    The patch interleaves below permute every axis but the last kernel
    axis, which is a contiguous run in source and destination alike;
    viewed as one opaque element of that many bytes, NumPy's copy loop
    moves a whole run per inner step instead of one scalar — the same
    bytes to the same places, for any dtype and kernel size.
    """
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize)))[..., 0]


def _fwd_patch(x: np.ndarray, w: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Correlation over whole patches: one GEMM over flattened patches.

    ``out[n, co, o] = sum_{ci, k} w[co, ci, k] x[n, ci, o·K + k]``.  This
    is the forward of patch embedding and of every 1×1 convolution, and
    the input adjoint of a patch-recovery transposed convolution (whose
    own forward is :func:`_grad_input_patch`).  The final interleaving
    copy lands in ``out`` — the compiled plan's arena buffer, or a new
    array when ``None`` — a copy of the same GEMM values either way, so
    eager and replay stay bitwise identical.
    """
    kshape = w.shape[2:]
    N, Ci = x.shape[:2]
    Co, nd = w.shape[0], len(kshape)
    out_sp = tuple(s // k for s, k in zip(x.shape[2:], kshape))
    xv = x.reshape((N, Ci) + tuple(v for ok in zip(out_sp, kshape)
                                   for v in ok))   # (N, Ci, o1, k1, …, od, kd)
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
        out = np.empty((N, Co) + out_sp, gemm.dtype)
    np.copyto(out.reshape(N, Co, -1), np.moveaxis(gemm, -1, 1))
    return out


def _grad_input_patch(gout: np.ndarray, w: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint of :func:`_fwd_patch` w.r.t. its input, which is also the
    transposed convolution: one GEMM + one interleaving copy.

    Each input patch receives gradient from exactly one output site, so
    the scatter collapses to ``gout @ w`` followed by reshaping the
    kernel axes back between the spatial axes.  ``out`` as in
    :func:`_fwd_patch`: same values, arena-placed.
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


def _grad_weight(gout: np.ndarray, x: np.ndarray,
                 kshape: Tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`_fwd_patch` w.r.t. the weight: one contraction
    per kernel offset, over the sites that offset reads."""
    out_sp = gout.shape[2:]
    gw = np.zeros(
        (gout.shape[1], x.shape[1]) + tuple(kshape),
        dtype=np.result_type(gout, x),
    )
    for koff in itertools.product(*[range(k) for k in kshape]):
        sl = tuple(
            slice(k0, k0 + k * o, k) for k0, k, o in zip(koff, kshape, out_sp)
        )
        xs = x[(slice(None), slice(None)) + sl]
        gw[(slice(None), slice(None)) + koff] = np.einsum(
            "no...,nc...->oc", gout, xs, optimize=True
        )
    return gw


def conv_nd(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """N-d patch correlation (a "convolution" in NN parlance):
    kernel = stride, unpadded.

    Parameters
    ----------
    x: ``(N, C_in, *S)`` input, each of ``S`` a multiple of the kernel.
    w: ``(C_out, C_in, *K)`` kernel.
    b: optional ``(C_out,)`` bias.
    """
    x, w = astensor(x), astensor(w)
    if any(s % k for s, k in zip(x.shape[2:], w.shape[2:])):
        raise ValueError(
            f"conv_nd maps whole patches: spatial shape {x.shape[2:]} is "
            f"not a multiple of the kernel {w.shape[2:]}")
    return apply("conv_nd", (x, w) if b is None else (x, w, astensor(b)))


def conv_transpose_nd(x: Tensor, w: Tensor,
                      b: Optional[Tensor] = None) -> Tensor:
    """N-d transposed patch convolution: each input site becomes one
    ``K``-sized output patch (upsampling by the kernel).

    Parameters
    ----------
    x: ``(N, C_in, *S)`` input.
    w: ``(C_in, C_out, *K)`` kernel (PyTorch ConvTranspose layout).
    b: optional ``(C_out,)`` bias.
    """
    x, w = astensor(x), astensor(w)
    return apply("conv_transpose_nd",
                 (x, w) if b is None else (x, w, astensor(b)))


# ----------------------------------------------------------------------
# plan kernels — the forwards of the two public functions above, each
# with its VJP.  Both write ``out`` (allocated when ``None``), then add
# the bias there.
# ----------------------------------------------------------------------
def _add_bias(out: np.ndarray, ins) -> np.ndarray:
    if len(ins) > 2:
        out += ins[2].reshape((1, -1) + (1,) * (out.ndim - 2))
    return out


@_plan.register_kernel("conv_nd", "compute")
def _k_conv_nd(out, ins, consts):
    return _add_bias(_fwd_patch(ins[0], ins[1], out), ins)


@_plan.register_kernel("conv_transpose_nd", "compute")
def _k_conv_transpose_nd(out, ins, consts):
    return _add_bias(_grad_input_patch(ins[0], ins[1], out), ins)


def _bias_grad(g, ins, needs):
    """The bias cotangent of a conv, when the conv has a bias that asks."""
    if len(ins) > 2 and needs[2]:
        return g.sum(axis=(0,) + tuple(range(2, g.ndim)))
    return None


@_plan.register_vjp("conv_nd")
def _vjp_conv_nd(g, ins, out, consts, needs):
    x, w = ins[0], ins[1]
    gx = _grad_input_patch(g, w) if needs[0] else None
    gw = _grad_weight(g, x, w.shape[2:]) if needs[1] else None
    return (gx, gw, _bias_grad(g, ins, needs))[:len(ins)]


@_plan.register_vjp("conv_transpose_nd")
def _vjp_conv_transpose_nd(g, ins, out, consts, needs):
    x, w = ins[0], ins[1]
    # the adjoint of the transposed conv w.r.t. its input is the forward
    # conv, and gw[ci, co, k] = sum_{n,o} x[n,ci,o] * g[n,co,o·K+k]
    gx = _fwd_patch(g, w) if needs[0] else None
    gw = _grad_weight(x, g, w.shape[2:]) if needs[1] else None
    return (gx, gw, _bias_grad(g, ins, needs))[:len(ins)]
