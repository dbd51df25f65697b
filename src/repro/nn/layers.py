"""Core layers: Linear, LayerNorm, BatchNorm, activations, dropout, MLP.

These are the building blocks of the Swin encoder (LayerNorm + MLP with
GELU, Eq. 3 of the paper) and the decoder (BatchNorm + GELU after each
transposed convolution, §III-C).
"""

from __future__ import annotations

import math
import threading
from typing import Optional

import numpy as np
from scipy import special as _sp_special

from ..tensor import Tensor, astensor, is_grad_enabled
from ..tensor import plan as _plan
from ..tensor.tensor import apply
from . import init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "LayerNorm",
    "BatchNorm",
    "GELU",
    "ReLU",
    "Dropout",
    "Identity",
    "MLP",
    "gelu",
]


def gelu(x: Tensor) -> Tensor:
    """GELU: ``x * Phi(x)``.

    The one plan kernel runs (on a fresh buffer) with the tape on or
    off: for contiguous float32 a blocked SIMD-ufunc evaluation of
    ``Phi`` within 5·10⁻⁷ of ``x·(erf(x/√2) + 1)/2``, otherwise the
    in-place ``erf`` chain — GELU runs over full-resolution decoder
    activations, where ``erf``'s scalar loop was a third of a whole
    forward.  Under autograd the result is one tape node; its backward,
    ``g·(Phi(x) + x·phi(x))``, makes the same choice between the blocked
    sweep and the ``erf`` chain.
    """
    x = astensor(x)
    out = apply("gelu", (x,))
    if out.requires_grad:
        def _bw(g):
            x._accum(_gelu_grad(x.data, g))
        out._backward = _bw
    return out


class GELU(Module):
    """Gaussian Error Linear Unit activation (Hendrycks & Gimpel)."""

    def forward(self, x: Tensor) -> Tensor:
        return gelu(x)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine map over the trailing feature axis."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.trunc_normal((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = astensor(x)
        out = x.matmul(self.weight)
        if self.bias is not None:
            if out.requires_grad:
                out = out + self.bias
            else:
                # untaped matmul result, a fresh buffer: add in place
                out = apply("iadd", (out, self.bias))
        return out


class LayerNorm(Module):
    """Normalise over the trailing feature axis with learned affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        x = astensor(x)
        w, b, eps = self.weight, self.bias, self.eps
        # one working buffer, in-place updates — and one tape node
        out = apply("layernorm", (x, w, b), {"eps": eps})
        if out.requires_grad:
            a = x.data
            def _bw(g):
                xhat = a - a.mean(axis=-1, keepdims=True)
                sigma = np.mean(np.square(xhat), axis=-1, keepdims=True)
                sigma += eps
                np.sqrt(sigma, out=sigma)
                xhat /= sigma
                lead = tuple(range(g.ndim - 1))
                if b.requires_grad:
                    b._accum(g.sum(axis=lead))
                if w.requires_grad:
                    w._accum((g * xhat).sum(axis=lead))
                if x.requires_grad:
                    # dx = (ĝ − mean ĝ − x̂·mean(ĝ·x̂)) / σ,  ĝ = g·w
                    gh = g * w.data
                    dx = gh - gh.mean(axis=-1, keepdims=True)
                    gh *= xhat
                    xhat *= gh.mean(axis=-1, keepdims=True)
                    dx -= xhat
                    dx /= sigma
                    x._accum(dx)
            out._backward = _bw
        return out


class BatchNorm(Module):
    """Batch normalisation over channel axis 1 of ``(N, C, *spatial)``.

    Covers BatchNorm2d and BatchNorm3d by normalising over every axis
    except the channel axis; running statistics follow the standard
    exponential-moving-average update in training mode.
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, np.float32))
        self.register_buffer("running_var", np.ones(num_features, np.float32))

    def forward(self, x: Tensor) -> Tensor:
        x = astensor(x)
        axes = (0,) + tuple(range(2, x.ndim))
        bshape = (1, self.num_features) + (1,) * (x.ndim - 2)
        if self.training:
            if _plan.tracing():
                raise _plan.TraceError(
                    "BatchNorm in training mode mutates running stats; "
                    "call model.eval() before tracing")
            mu = x.mean(axis=axes, keepdims=True)
            var = ((x - mu) * (x - mu)).mean(axis=axes, keepdims=True)
            n = x.size // self.num_features
            unbiased = var.data.reshape(-1) * n / max(n - 1, 1)
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mu.data.reshape(-1)
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * unbiased
        else:
            # fold running stats into one scale + shift (two passes over
            # x instead of four; x is full-resolution in the decoder)
            inv = (1.0 / np.sqrt(self.running_var + self.eps)).reshape(bshape)
            if is_grad_enabled() and (x.requires_grad or
                                      self.weight.requires_grad):
                scale = self.weight.reshape(bshape) * Tensor(inv)
                shift = self.bias.reshape(bshape) \
                    - Tensor(self.running_mean.reshape(bshape)) * scale
                return x * scale + shift
            # running stats fold into per-channel scale/shift: constants
            # of a traced plan (recompile after loading new weights)
            scale = self.weight.data.reshape(bshape) * inv
            shift = self.bias.data.reshape(bshape) \
                - self.running_mean.reshape(bshape) * scale
            return apply("bn_affine", (x,), {"scale": scale, "shift": shift})
        norm = (x - mu) / (var + self.eps).sqrt()
        return norm * self.weight.reshape(bshape) + self.bias.reshape(bshape)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else init.default_rng(1234)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return astensor(x)
        if _plan.tracing():
            raise _plan.TraceError(
                "Dropout in training mode is stochastic; call "
                "model.eval() before tracing")
        x = astensor(x)
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * Tensor(mask)


class MLP(Module):
    """Two-layer feed-forward block used inside every Swin block (Eq. 3)."""

    def __init__(self, dim: int, hidden_ratio: float = 4.0,
                 drop: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        hidden = int(dim * hidden_ratio)
        rng = rng if rng is not None else init.default_rng()
        self.fc1 = Linear(dim, hidden, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(hidden, dim, rng=rng)
        self.drop = Dropout(drop, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.drop(self.fc2(self.act(self.fc1(x))))


# ----------------------------------------------------------------------
# plan kernels — the one forward of ``gelu``, ``LayerNorm`` and eval
# ``BatchNorm``: ``apply`` calls them with ``out=None`` (NumPy allocates
# the working buffer), plans replay them into an arena buffer
# ----------------------------------------------------------------------
#: Abramowitz & Stegun 7.1.26, erfc(z) ≈ (a₁t + … + a₅t⁵)·e^{−z²} with
#: t = 1/(1 + pz) and |ε| ≤ 1.5·10⁻⁷, rewritten for z = u/√2; the −½ of
#: Q(u) = ½·erfc(u/√2) is folded into the coefficients (exact in binary)
_PHI_P = np.float32(0.3275911 / np.sqrt(2.0))
_PHI_A = tuple(np.float32(-0.5 * a) for a in (
    0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429))
#: |x| is clamped here before it is squared: 13² / 2 keeps e^{−u²/2} a
#: normal float32, and u·Q(u) is already below 10⁻³⁷
_PHI_CLAMP = np.float32(13.0)
#: elements per sweep: the 21 passes below then run in L1/L2 instead
#: of streaming a decoder activation twenty times (measured, ns/element
#: on 2.36 M: 1 K 11.9, 8 K 3.9, 32 K 3.0, 64 K 3.1, 256 K 4.9,
#: unblocked 6.1; the erf chain 17)
_PHI_BLOCK = 1 << 15
#: φ(0) = 1/√(2π) — a Python float, so it is weak next to either dtype
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: two block-sized work vectors per thread — replicas call the kernel
#: concurrently, and a fresh 128 KiB ``np.empty`` per call sits exactly
#: on glibc's mmap threshold
_phi_scratch = threading.local()


def _phi_blocks(a, out):
    """Sweep contiguous float32 ``a`` / ``out`` in ``_PHI_BLOCK`` pieces.

    Yields ``(x, y, u, w)`` per block — the input and output slices and
    two work vectors — with the half GELU's value and its derivative
    share already evaluated: ``u = min(|x|, 13)``, ``y = −½·(a₁t + … +
    a₅t⁵)`` for ``t = 1/(1 + p·u/√2)``, and ``w = e^{−u²/2}``, so that
    ``y·w = −Q(u)``.
    """
    try:
        us, ws = _phi_scratch.vectors
    except AttributeError:
        us, ws = _phi_scratch.vectors = np.empty((2, _PHI_BLOCK), np.float32)
    xs, ys = a.reshape(-1), out.reshape(-1)
    a1, a2, a3, a4, a5 = _PHI_A
    for lo in range(0, xs.size, _PHI_BLOCK):
        x, y = xs[lo:lo + _PHI_BLOCK], ys[lo:lo + _PHI_BLOCK]
        u, w = us[:x.size], ws[:x.size]
        np.abs(x, out=u)
        np.minimum(u, _PHI_CLAMP, out=u)
        np.multiply(u, _PHI_P, out=w)           # t = 1 / (1 + p·u/√2)
        w += 1.0
        np.reciprocal(w, out=w)
        np.multiply(w, a5, out=y)               # −½·(a₁t + … + a₅t⁵)
        for coef in (a4, a3, a2, a1):
            y += coef
            y *= w
        np.multiply(u, u, out=w)                # e^{−u²/2}
        w *= -0.5
        np.exp(w, out=w)
        yield x, y, u, w


def _phi_kernel_applies(a, out=None) -> bool:
    """Contiguous float32 in and out: the blocked sweep's domain.
    float64 (gradcheck) and strided input take the exact-erf chain,
    which is also what the tests hold the sweep against."""
    return a.dtype == np.float32 and a.flags.c_contiguous \
        and (out is None or out.flags.c_contiguous)


@_plan.register_kernel("gelu", "compute")
def _k_gelu(out, ins, consts):
    a = ins[0]
    if not _phi_kernel_applies(a, out):
        y = np.multiply(a, np.float32(1.0 / np.sqrt(2.0)), out=out)
        _sp_special.erf(y, out=y)
        y += 1.0
        y *= a
        y *= 0.5
        return y
    # GELU(x) = x·Φ(x) = max(x, 0) − u·Q(u), u = |x|: no cancellation in
    # the negative tail, and only SIMD ufuncs (scipy's erf is a scalar
    # libm loop, ≈ 15 ns/element against ≈ 0.4 for each pass here)
    if out is None:
        out = np.empty_like(a)
    for x, y, u, w in _phi_blocks(a, out):
        y *= w
        y *= u                                  # −u·Q(u)
        np.maximum(x, 0.0, out=w)
        y += w
    return out


def _gelu_grad(a, g):
    """``g · dGELU/dx (a)`` with ``dGELU/dx = Φ(x) + x·φ(x)``."""
    if not _phi_kernel_applies(a):
        d = np.multiply(a, math.sqrt(0.5))
        _sp_special.erf(d, out=d)
        d += 1.0
        d *= 0.5                                # Φ(x)
        pdf = np.square(a)
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf *= a
        pdf *= _INV_SQRT_2PI                    # x·φ(x)
        d += pdf
        d *= g
        return d
    # Φ(x) + x·φ(x) = H(x) + sgn(x)·(u·φ(u) − Q(u)) with H(0) = ½: the
    # value sweep's polynomial and exponential, no cancellation in
    # either tail, and u is clamped so x·e^{−u²/2} cannot overflow
    d = np.empty_like(a)
    for x, y, u, w in _phi_blocks(a, d):
        y *= w                                  # −Q(u)
        w *= u
        w *= _INV_SQRT_2PI                      # u·φ(u)
        y += w
        np.sign(x, out=w)
        y *= w
        np.heaviside(x, 0.5, out=w)
        y += w
    d *= g
    return d


@_plan.register_kernel("layernorm", "compute")
def _k_layernorm(out, ins, consts):
    a, w, b = ins
    y = np.subtract(a, a.mean(axis=-1, keepdims=True), out=out)
    var = np.mean(np.square(y), axis=-1, keepdims=True)
    var += consts["eps"]
    np.sqrt(var, out=var)
    y /= var
    y *= w
    y += b
    return y


@_plan.register_kernel("bn_affine", "compute")
def _k_bn_affine(out, ins, consts):
    y = np.multiply(ins[0], consts["scale"], out=out)
    y += consts["shift"]
    return y
