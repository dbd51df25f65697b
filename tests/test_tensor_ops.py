"""Autograd engine: every adjoint verified against finite differences."""

import ast
import collections
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import BatchNorm, LayerNorm, Linear, MultiHeadSelfAttention
from repro.nn.layers import gelu
from repro.swin.patch import PatchRecover3d
from repro.tensor import (PlanExecutor, Tensor, concatenate, conv_nd,
                          conv_transpose_nd, gradcheck, no_grad, trace)
from repro.tensor import tensor as tensor_mod
from repro.tensor.tensor import unbroadcast
from repro.tensor import plan as plan_mod
from repro.tensor.gradcheck import numerical_grad, tape_nodes


def _arr(rng, *shape):
    return rng.normal(size=shape)


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
class TestArithmetic:
    def test_add(self, rng):
        gradcheck(lambda a, b: a + b, [_arr(rng, 3, 4), _arr(rng, 3, 4)])

    def test_add_broadcast(self, rng):
        gradcheck(lambda a, b: a + b, [_arr(rng, 3, 4), _arr(rng, 4)])

    def test_add_scalar(self, rng):
        gradcheck(lambda a: a + 2.5, [_arr(rng, 3)])

    def test_radd(self, rng):
        gradcheck(lambda a: 1.0 + a, [_arr(rng, 3)])

    def test_sub(self, rng):
        gradcheck(lambda a, b: a - b, [_arr(rng, 2, 3), _arr(rng, 1, 3)])

    def test_rsub(self, rng):
        gradcheck(lambda a: 1.0 - a, [_arr(rng, 4)])

    def test_neg(self, rng):
        gradcheck(lambda a: -a, [_arr(rng, 5)])

    def test_mul(self, rng):
        gradcheck(lambda a, b: a * b, [_arr(rng, 3, 4), _arr(rng, 3, 4)])

    def test_mul_broadcast_both(self, rng):
        gradcheck(lambda a, b: a * b, [_arr(rng, 3, 1), _arr(rng, 1, 4)])

    def test_div(self, rng):
        b = np.abs(_arr(rng, 3, 4)) + 1.0
        gradcheck(lambda a, b: a / b, [_arr(rng, 3, 4), b])

    def test_pow(self, rng):
        a = np.abs(_arr(rng, 3)) + 0.5
        gradcheck(lambda a: a ** 3, [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(3)) ** Tensor(np.ones(3))


#: tape expressions with a Python scalar operand: each must return the
#: tensor's own dtype on every NumPy (``np.asarray(0.5)`` is a float64
#: array, which NumPy 2 promotes float32 with and NumPy 1 did not)
SCALAR_EXPRESSIONS = {
    "x * 0.5": lambda x: x * 0.5,
    "2 * x": lambda x: 2 * x,
    "x + 1.0": lambda x: x + 1.0,
    "x - 1.0": lambda x: x - 1.0,
    "x / 2.0": lambda x: x / 2.0,
    "1.0 - x": lambda x: 1.0 - x,
    "x ** 2.0": lambda x: x ** 2.0,
    "x * np.sqrt(2.0)": lambda x: x * np.sqrt(2.0),   # a float subclass
    "x.mean()": lambda x: x.mean(),
}


class TestWeakPythonScalars:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("expr", sorted(SCALAR_EXPRESSIONS))
    def test_scalar_operand_adopts_tensor_dtype(self, rng, expr, dtype):
        data = (np.abs(_arr(rng, 3, 4)) + 0.5).astype(dtype)
        x = Tensor(data, requires_grad=True)
        out = SCALAR_EXPRESSIONS[expr](x)
        assert out.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype
        with no_grad():
            assert SCALAR_EXPRESSIONS[expr](Tensor(data)).dtype == dtype

    def test_arrays_and_tensors_promote_as_numpy_does(self, rng):
        x = Tensor(_arr(rng, 3).astype(np.float32))
        assert (x * np.ones(3)).dtype == np.float64
        assert (x + Tensor(np.ones(3))).dtype == np.float64
        assert (x * np.float32(0.5)).dtype == np.float32
        ints = Tensor(np.arange(3))
        assert (ints * 0.5).dtype == np.float64      # not a floating tensor


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------
class TestMatmul:
    def test_2d(self, rng):
        gradcheck(lambda a, b: a.matmul(b), [_arr(rng, 3, 4), _arr(rng, 4, 5)])

    def test_batched(self, rng):
        gradcheck(lambda a, b: a.matmul(b), [_arr(rng, 2, 3, 4), _arr(rng, 2, 4, 5)])

    def test_broadcast_batch(self, rng):
        gradcheck(lambda a, b: a.matmul(b), [_arr(rng, 2, 3, 4), _arr(rng, 4, 5)])

    def test_vector_vector(self, rng):
        gradcheck(lambda a, b: a.matmul(b), [_arr(rng, 4), _arr(rng, 4)])

    def test_value_matches_numpy(self, rng):
        a, b = _arr(rng, 3, 4), _arr(rng, 4, 2)
        out = Tensor(a).matmul(Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)


# ----------------------------------------------------------------------
# transcendental
# ----------------------------------------------------------------------
class TestTranscendental:
    def test_exp(self, rng):
        gradcheck(lambda a: a.exp(), [_arr(rng, 3, 4)])

    def test_sqrt(self, rng):
        gradcheck(lambda a: a.sqrt(), [np.abs(_arr(rng, 3)) + 0.5])

    def test_erf(self, rng):
        gradcheck(lambda a: a.erf(), [_arr(rng, 4)])

    def test_abs(self, rng):
        a = _arr(rng, 5)
        a[np.abs(a) < 0.2] += 0.5  # keep away from the kink
        gradcheck(lambda a: a.abs(), [a])


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
class TestReductions:
    def test_sum_all(self, rng):
        gradcheck(lambda a: a.sum(), [_arr(rng, 3, 4)])

    def test_sum_axis(self, rng):
        gradcheck(lambda a: a.sum(axis=1), [_arr(rng, 3, 4)])

    def test_sum_axis_keepdims(self, rng):
        gradcheck(lambda a: a.sum(axis=0, keepdims=True), [_arr(rng, 3, 4)])

    def test_sum_multi_axis(self, rng):
        gradcheck(lambda a: a.sum(axis=(0, 2)), [_arr(rng, 2, 3, 4)])

    def test_sum_negative_axis(self, rng):
        gradcheck(lambda a: a.sum(axis=-1), [_arr(rng, 3, 4)])

    def test_mean(self, rng):
        gradcheck(lambda a: a.mean(axis=1), [_arr(rng, 3, 4)])

    def test_mean_value(self, rng):
        a = _arr(rng, 6, 7)
        np.testing.assert_allclose(Tensor(a).mean().item(), a.mean())

    def test_max(self, rng):
        a = _arr(rng, 3, 5) * 10  # well-separated values
        gradcheck(lambda a: a.max(axis=1), [a])

    def test_max_value(self, rng):
        a = _arr(rng, 3, 5)
        np.testing.assert_allclose(Tensor(a).max(axis=1).data, a.max(axis=1))


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------
class TestShapes:
    def test_reshape(self, rng):
        gradcheck(lambda a: a.reshape(6, 2), [_arr(rng, 3, 4)])

    def test_reshape_tuple_arg(self, rng):
        gradcheck(lambda a: a.reshape((2, 6)) * 2.0, [_arr(rng, 3, 4)])

    def test_transpose_default(self, rng):
        gradcheck(lambda a: a.transpose() * 2.0, [_arr(rng, 3, 4)])

    def test_transpose_axes(self, rng):
        gradcheck(lambda a: a.transpose(2, 0, 1) * 2.0, [_arr(rng, 2, 3, 4)])

    def test_swapaxes(self, rng):
        gradcheck(lambda a: a.swapaxes(0, 2) * 2.0, [_arr(rng, 2, 3, 4)])

    def test_getitem_slice(self, rng):
        gradcheck(lambda a: a[1:3] * 2.0, [_arr(rng, 5, 4)])

    def test_getitem_int(self, rng):
        gradcheck(lambda a: a[2] * 2.0, [_arr(rng, 5, 3)])

    def test_getitem_fancy(self, rng):
        idx = np.array([0, 2, 2])
        gradcheck(lambda a: a[idx] * 2.0, [_arr(rng, 5)])

    @pytest.mark.parametrize("idx", [
        (slice(None, None, -1),), (slice(4, 0, -2), slice(1, 3)),
        (None, slice(1, 4)), (Ellipsis, 2), (Ellipsis, None, slice(0, 2)),
        (1, slice(None), slice(None, None, 2)), (-1,), 3,
        slice(1, None), (slice(None), -2, None, 0)],
        ids=repr)
    def test_getitem_basic_index_adjoint_is_a_store(self, rng, idx):
        """A basic index never repeats an element, so the plain store
        the backward uses equals the scatter-add it replaced."""
        a = Tensor(_arr(rng, 5, 4, 3), requires_grad=True)
        out = a[idx]
        g = _arr(rng, *out.shape)
        out.backward(g)
        want = np.zeros(a.shape)
        np.add.at(want, idx, g)
        np.testing.assert_array_equal(a.grad, want)

    @pytest.mark.parametrize("idx", [
        np.array([0, 2, 2, 2]), (np.array([1, 1]), slice(None)),
        (np.array([0, 0, 3]), np.array([1, 1, 2])), [4, 4]],
        ids=repr)
    def test_getitem_fancy_index_with_duplicates_accumulates(self, rng, idx):
        a = Tensor(_arr(rng, 5, 4), requires_grad=True)
        out = a[idx]
        g = _arr(rng, *out.shape)
        out.backward(g)
        want = np.zeros(a.shape)
        np.add.at(want, idx, g)
        np.testing.assert_array_equal(a.grad, want)
        assert a.grad.sum() == pytest.approx(g.sum())

    def test_roll_single(self, rng):
        gradcheck(lambda a: a.roll(2, 0) * 2.0, [_arr(rng, 5, 3)])

    def test_roll_multi(self, rng):
        gradcheck(lambda a: a.roll((1, -2), (0, 1)) * 2.0, [_arr(rng, 4, 5)])

    def test_concatenate(self, rng):
        gradcheck(lambda a, b: concatenate([a, b], axis=1) * 2.0,
                  [_arr(rng, 2, 3), _arr(rng, 2, 4)])


# ----------------------------------------------------------------------
# composite ops
# ----------------------------------------------------------------------
class TestComposite:
    def test_softmax_grad(self, rng):
        gradcheck(lambda a: a.softmax(), [_arr(rng, 3, 5)])

    def test_softmax_rows_sum_to_one(self, rng):
        p = Tensor(_arr(rng, 4, 7)).softmax().data
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_softmax_stability(self):
        # huge logits must not overflow
        p = Tensor(np.array([[1e4, 1e4 + 1.0]])).softmax().data
        assert np.isfinite(p).all()


# ----------------------------------------------------------------------
# graph mechanics
# ----------------------------------------------------------------------
class TestGraph:
    def test_backward_requires_scalar(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_grad_accumulates_over_reuse(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        (t * t + t).sum().backward()  # d/dt (t² + t) = 2t + 1
        np.testing.assert_allclose(t.grad, 2 * t.data + 1, rtol=1e-6)

    def test_diamond_graph(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        a = t * 2.0
        b = t * 3.0
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 5.0), rtol=1e-6)

    def test_no_grad_blocks_graph(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert out._backward is None

    def test_zero_grad(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_second_backward_accumulates(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 4.0))

    def test_leaves_fed_by_one_add_get_their_own_writable_grads(self, rng):
        """``add``'s VJP hands both sides the same cotangent array; each
        leaf copies it, so writing one ``.grad`` leaves the other alone."""
        a = Tensor(_arr(rng, 3), requires_grad=True)
        b = Tensor(_arr(rng, 3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.flags.writeable and b.grad.flags.writeable
        assert not np.shares_memory(a.grad, b.grad)
        a.grad *= 5.0
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_interior_grad_keeps_its_dtype_and_is_never_written(self, rng):
        """An interior float32 node keeps its first cotangent as given
        and sums a float64 second one into a new float32 array holding
        the bits the in-place ``+=`` gave; the first array is untouched."""
        node = Tensor(_arr(rng, 4).astype(np.float32), requires_grad=True) * 2
        first = _arr(rng, 4).astype(np.float32)
        second = _arr(rng, 4)
        kept = first.copy()
        node._accum(first)
        assert node.grad is first
        node._accum(second)
        want = first.copy()
        want += second
        assert node.grad.dtype == np.float32
        assert node.grad.tobytes() == want.tobytes()
        assert not np.shares_memory(node.grad, first)
        np.testing.assert_array_equal(first, kept)

    def test_astype_roundtrip_grad(self, rng):
        t = Tensor(_arr(rng, 3).astype(np.float32), requires_grad=True)
        t.astype(np.float16).astype(np.float32).sum().backward()
        assert t.grad.dtype == np.float32
        np.testing.assert_allclose(t.grad, np.ones(3))


# ----------------------------------------------------------------------
# unbroadcast (the most bug-prone helper) — property tests
# ----------------------------------------------------------------------
class TestUnbroadcast:
    @given(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    @settings(max_examples=50, deadline=None)
    def test_identity_when_shapes_match(self, shape):
        g = np.ones(shape)
        assert unbroadcast(g, shape).shape == shape

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_matches_broadcast_adjoint(self, a, b, c):
        # x of shape (1, b, 1) broadcast to (a, b, c): the adjoint of the
        # broadcast is a sum over the stretched axes.
        rng = np.random.default_rng(0)
        g = rng.normal(size=(a, b, c))
        out = unbroadcast(g, (1, b, 1))
        np.testing.assert_allclose(
            out, g.sum(axis=(0, 2), keepdims=True), rtol=1e-10)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                   max_side=3),
                      elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_broadcast_add_gradcheck(self, b):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2,) + b.shape)
        gradcheck(lambda x, y: x + y, [a, b])


# ----------------------------------------------------------------------
# hypothesis: algebraic identities must hold through the engine
# ----------------------------------------------------------------------
class TestAlgebraicProperties:
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
                      elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_exp_log_inverse(self, a):
        t = Tensor(a)
        np.testing.assert_allclose(np.log(t.exp().data), a, atol=1e-8)

    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                      elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_double_transpose_identity(self, a):
        t = Tensor(a, requires_grad=True)
        out = t.transpose().transpose()
        np.testing.assert_array_equal(out.data, a)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(a))

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_sum_linear_in_inputs(self, n, m):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(n, m)), rng.normal(size=(n, m))
        lhs = (Tensor(a) + Tensor(b)).sum().item()
        rhs = Tensor(a).sum().item() + Tensor(b).sum().item()
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))



# ----------------------------------------------------------------------
# the op table: every registered kernel, through its public op, against
# a reference written out here (eager is the kernel itself, so it is no
# longer a second derivation to compare a plan with)
# ----------------------------------------------------------------------
def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def _positive(rng, *shape):
    return (np.abs(rng.normal(size=shape)) + 0.5).astype(np.float32)


def _seeded_layers():
    rng = np.random.default_rng(7)
    lin, ln, bn = Linear(5, 3, rng=rng), LayerNorm(5), BatchNorm(4)
    # head_dim 4, so the scale 1/sqrt(4) is exact: the float32 reference
    # below and a composite that multiplies by a weak Python scalar
    # round it as the kernel's float64 scalar does
    msa = MultiHeadSelfAttention(8, 2, rng=rng)
    for p in (*lin.parameters(), *ln.parameters(), *bn.parameters(),
              *msa.parameters()):
        p.data[...] = rng.normal(scale=0.7, size=p.shape)
    bn.running_mean[...] = rng.normal(size=4)
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=4)
    bn.eval()
    return lin, ln, bn, msa


def _seeded_recover():
    rng = np.random.default_rng(13)
    head = PatchRecover3d(4, 3, (2, 2, 2), rng=rng)
    for p in head.parameters():
        p.data[...] = rng.normal(scale=0.7, size=p.shape)
    head.norm.running_mean[...] = rng.normal(size=4)
    head.norm.running_var[...] = rng.uniform(0.5, 2.0, size=4)
    return head.eval()


_LIN, _LN, _BN, _MSA = _seeded_layers()
_RECOVER = _seeded_recover()
_WINDOW_MASK = np.where(np.random.default_rng(9).random((2, 1, 6, 6)) < 0.3,
                        np.float32(-100.0), np.float32(0.0))
_CONV_W = Tensor(_f32(np.random.default_rng(10), 4, 3, 2, 2))
_CONV_T_W = Tensor(_f32(np.random.default_rng(11), 3, 4, 2, 2))
_CONV_B = Tensor(_f32(np.random.default_rng(12), 4))


def _softmax_ref(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _roll_ref(x):
    down = np.concatenate((x[-1:], x[:-1]), axis=0)           # +1 on axis 0
    return np.concatenate((down[..., 2:], down[..., :2]), axis=2)  # -2 on 2


def _cat_ref(a, b):
    out = np.empty((a.shape[0], a.shape[1] + b.shape[1]) + a.shape[2:],
                   a.dtype)
    out[:, :a.shape[1]], out[:, a.shape[1]:] = a, b
    return out


def _bn_ref(x):
    shape = (1, 4, 1, 1)
    norm = (x.astype(np.float64) - _BN.running_mean.reshape(shape)) / np.sqrt(
        _BN.running_var.reshape(shape).astype(np.float64) + _BN.eps)
    return norm * _BN.weight.data.reshape(shape) + _BN.bias.data.reshape(shape)


def _gelu_ref(x):
    """The erf definition, x·Φ(x), in float64."""
    x = x.astype(np.float64)
    return 0.5 * x * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def _ln_ref(x):
    x = x.astype(np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN.eps) * _LN.weight.data \
        + _LN.bias.data


def _conv_ref(x, w, b):
    """Dense loop: each output element is its bias plus the sum over
    its patch, in float64."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    kernel = w.shape[2:]
    out = np.empty((x.shape[0], w.shape[0]) + tuple(
        n // k for n, k in zip(x.shape[2:], kernel)))
    for n, o, *pos in np.ndindex(out.shape):
        window = tuple(slice(p * k, p * k + k) for p, k in zip(pos, kernel))
        out[(n, o, *pos)] = b[o] + (x[(n, slice(None)) + window]
                                    * w[o]).sum()
    return out


def _conv_transpose_ref(x, w, b):
    """Dense loop: each input element scatters its kernel-weighted copy
    into the output patch it owns, onto the bias, in float64."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    kernel = w.shape[2:]
    out = np.zeros((x.shape[0], w.shape[1]) + tuple(
        n * k for n, k in zip(x.shape[2:], kernel)))
    out += b.reshape((1, -1) + (1,) * len(kernel))
    for n, *pos in np.ndindex(x.shape[:1] + x.shape[2:]):
        window = tuple(slice(p * k, p * k + k) for p, k in zip(pos, kernel))
        out[(n, slice(None)) + window] += np.tensordot(
            x[(n, slice(None), *pos)], w, axes=1)
    return out


def _recover_ref(x):
    """The head's four layers on time-folded samples: transposed conv,
    eval BatchNorm, GELU, 1×1 conv, in float64."""
    r, (B, T) = _RECOVER, (x.shape[0], x.shape[-1])
    folded = np.moveaxis(x, -1, 1).reshape((B * T,) + x.shape[1:-1])
    up = _conv_transpose_ref(folded, r.up.weight.data, r.up.bias.data)
    shape = (1, -1) + (1,) * (up.ndim - 2)
    norm = (up - r.norm.running_mean.reshape(shape)) / np.sqrt(
        r.norm.running_var.reshape(shape).astype(np.float64) + r.norm.eps)
    act = _gelu_ref(norm * r.norm.weight.data.reshape(shape)
                    + r.norm.bias.data.reshape(shape))
    y = _conv_ref(act, r.head.weight.data, r.head.bias.data)
    return np.moveaxis(y.reshape((B, T) + y.shape[1:]), 1, -1)


def _attention_ref(x, mask=None):
    """Eq. 1-2 of the paper on arrays, the operations in model order."""
    m, (B, N, C) = _MSA, x.shape
    qkv = x @ m.qkv.weight.data + m.qkv.bias.data
    q, k, v = qkv.reshape(B, N, 3, m.num_heads, m.head_dim) \
        .transpose(2, 0, 3, 1, 4)
    attn = (q @ k.swapaxes(-1, -2)) * np.float32(m.scale)
    if mask is not None:
        nW = mask.shape[0]
        attn = (attn.reshape(B // nW, nW, m.num_heads, N, N)
                + mask[None]).reshape(B, m.num_heads, N, N)
    out = (_softmax_ref(attn) @ v).transpose(0, 2, 1, 3).reshape(B, N, C)
    return out @ m.proj.weight.data + m.proj.bias.data


class Row(NamedTuple):
    #: the public op, a function of Tensors
    call: Callable
    #: input shapes (standard normal float32) or ``rng -> [arrays]``
    inputs: object
    #: the value on arrays
    ref: Callable
    #: 0 — the reference is the same ufunc chain and matches exactly;
    #: else it is evaluated in float64 and
    #: ``|got - ref| <= ulps * spacing(float32(max |ref|))``
    ulps: int = 0


_A = [(3, 4, 5)]
OP_TABLE = {
    "add": Row(lambda a, b: a + b, 2 * _A, lambda a, b: a + b),
    "sub": Row(lambda a, b: a - b, 2 * _A, lambda a, b: a - b),
    "mul": Row(lambda a, b: a * b, 2 * _A, lambda a, b: a * b),
    "div": Row(lambda a, b: a / b,
               lambda rng: [_f32(rng, 3, 4, 5), _positive(rng, 3, 4, 5)],
               lambda a, b: a / b),
    "neg": Row(lambda a: -a, _A, lambda a: 0 - a),
    "sin": Row(lambda a: a.sin(), _A, np.sin),
    "cos": Row(lambda a: a.cos(), _A, np.cos),
    "exp": Row(lambda a: a.exp(), _A, np.exp),
    "sqrt": Row(lambda a: a.sqrt(), lambda rng: [_positive(rng, 3, 4, 5)],
                np.sqrt),
    "abs": Row(lambda a: a.abs(), _A, lambda a: np.where(a < 0, -a, a)),
    "pow": Row(lambda a: a ** 3, lambda rng: [_positive(rng, 3, 4, 5)],
               lambda a: a.astype(np.float64) ** 3, ulps=1),
    "matmul": Row(lambda a, b: a.matmul(b), [(3, 4, 5), (3, 5, 2)],
                  lambda a, b: a @ b),
    "erf": Row(lambda a: a.erf(), _A, np.vectorize(math.erf), ulps=1),
    "sum": Row(lambda a: a.sum(axis=(0, 2)), _A,
               lambda a: a.astype(np.float64).sum(axis=2).sum(axis=0),
               ulps=2),
    "max": Row(lambda a: a.max(axis=1), _A,
               lambda a: np.maximum.reduce(a, axis=1)),
    "softmax": Row(lambda a: a.softmax(), _A, _softmax_ref),
    "reshape": Row(lambda a: a.reshape(6, 10), _A,
                   lambda a: np.array(list(a.flat), a.dtype).reshape(6, 10)),
    "transpose": Row(lambda a: a.transpose(1, 0, 2), _A,
                     lambda a: np.moveaxis(a, 0, 1)),
    # a basic index (a view), then a fancy one, which gathers into new
    # storage and repeats an index, so its adjoint must accumulate
    "getitem": Row(lambda a: a[1:, ::2][:, [1, 0, 1]], _A,
                   lambda a: np.take(a[1:], [2, 0, 2], axis=1)),
    # a repeated axis: test_compiled_plan's
    # test_roll_repeated_axis_matches_numpy
    "roll": Row(lambda a: a.roll((1, -2), (0, 2)), _A, _roll_ref),
    "concatenate": Row(lambda a, b: concatenate([a, b], axis=1),
                       [(3, 4, 5), (3, 2, 5)], _cat_ref),
    "astype": Row(lambda a: a.astype(np.float16), _A,
                  lambda a: np.array(a, dtype=np.float16)),
    # the three in-place kernels, through the layers that call them
    "iadd": Row(lambda x: _LIN(x), _A,
                lambda x: x @ _LIN.weight.data + _LIN.bias.data),
    "imul_scalar": Row(lambda x: _MSA(x), [(4, 6, 8)], _attention_ref),
    "add_window_mask": Row(lambda x: _MSA(x, mask=_WINDOW_MASK), [(4, 6, 8)],
                           lambda x: _attention_ref(x, _WINDOW_MASK)),
    "bn_affine": Row(lambda x: _BN(x), [(2, 4, 3, 3)], _bn_ref, ulps=2),
    # float64 references of the fused kernels (worst measured on either
    # layout: 0.55, 0.72, 1.20, 0.94, 2.15 ulps, in row order)
    "gelu": Row(gelu, _A, _gelu_ref, ulps=1),
    "layernorm": Row(lambda x: _LN(x), _A, _ln_ref, ulps=2),
    "conv_nd": Row(lambda x: conv_nd(x, _CONV_W, _CONV_B), [(2, 3, 4, 6)],
                   lambda x: _conv_ref(x, _CONV_W.data, _CONV_B.data),
                   ulps=2),
    "conv_transpose_nd": Row(
        lambda x: conv_transpose_nd(x, _CONV_T_W, _CONV_B), [(2, 3, 2, 3)],
        lambda x: _conv_transpose_ref(x, _CONV_T_W.data, _CONV_B.data),
        ulps=2),
    "patch_recover": Row(lambda x: _RECOVER(x), [(2, 4, 2, 3, 2, 3)],
                         _recover_ref, ulps=3),
}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def _row_case(name, strided):
    """``(call, arrays, arrays as the op sees them)`` of one table row.

    A plan binds contiguous inputs, so the strided case hands over the
    first input transposed and transposes it back *inside* the call:
    the op then reads the same values through reversed strides."""
    row = OP_TABLE[name]
    rng = np.random.default_rng(sorted(OP_TABLE).index(name))
    arrays = row.inputs(rng) if callable(row.inputs) \
        else [_f32(rng, *shape) for shape in row.inputs]
    if not strided:
        return row.call, arrays, arrays
    arrays = [np.ascontiguousarray(arrays[0].T)] + arrays[1:]
    return (lambda x, *rest: row.call(x.transpose(), *rest), arrays,
            [arrays[0].T] + arrays[1:])


_layouts = pytest.mark.parametrize("strided", [False, True],
                                   ids=["contiguous", "strided"])
_rows = pytest.mark.parametrize("name", sorted(OP_TABLE))


#: the gradient column's central-difference step per input, where the
#: default 1e-6 does not fit: a float16 cast is piecewise constant, so
#: its step must stride over many rounding intervals
_FD_EPS = {"astype": (0.25,)}
#: the gates on ``|analytic − numeric| / |numeric|``, (max, median): the
#: worst row reads about 4e-7 / 6e-9 (``patch_recover``, ``gelu``); the
#: float16 cast rounds the incoming gradient to 11 bits on its way back
_FD_GATES = {"astype": (1e-2, 1e-3)}
_FD_DEFAULT_GATES = (1e-5, 1e-7)


class TestOpTable:
    def test_every_registered_kernel_has_a_row(self):
        assert set(OP_TABLE) == set(plan_mod.KERNELS)

    def test_every_registered_kernel_has_a_vjp(self):
        assert not [name for name, kernel in plan_mod.KERNELS.items()
                    if kernel.vjp is None]

    @_layouts
    @_rows
    def test_vjp_matches_float64_central_differences(self, name, strided):
        """The row's VJP — through its public op, in float64 — against
        central differences of ``sum(op · w)`` for a random ``w``, one
        step per input, with max and median gates on the relative
        deviation (the ``compare_grad_with_fd`` pattern).  A deviation
        is measured against ``|numeric|`` but never against less than
        a thousandth of its largest entry, so an exact zero (a masked or
        unselected element) is held to the same absolute bar."""
        call, arrays, _ = _row_case(name, strided)
        arrays = [a.astype(np.float64) for a in arrays]
        with no_grad():
            shape = call(*map(Tensor, arrays)).shape
        w = Tensor(np.random.default_rng(99).normal(size=shape))

        def weighted(*tensors):
            return call(*tensors) * w

        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        weighted(*tensors).sum().backward()
        for layer in (_LIN, _LN, _BN, _MSA, _RECOVER):
            layer.zero_grad()
        eps = _FD_EPS.get(name, (1e-6,) * len(arrays))
        max_gate, median_gate = _FD_GATES.get(name, _FD_DEFAULT_GATES)
        for i, t in enumerate(tensors):
            numeric = numerical_grad(weighted, arrays, i, eps=eps[i])
            dev = np.abs(t.grad - numeric) / np.maximum(
                np.abs(numeric), 1e-3 * np.abs(numeric).max())
            assert dev.max() < max_gate, (i, dev.max())
            assert np.median(dev) < median_gate, (i, np.median(dev))

    @_layouts
    @_rows
    def test_backward_never_writes_its_cotangent(self, name, strided,
                                                 monkeypatch):
        """An interior node keeps the cotangent it is handed, which may
        be another node's too, so no VJP may write its ``g``: from a
        read-only seed, with every node of the row's tape handed a
        read-only view, the backward gives the gradient bits of a
        writable run (a VJP that writes its ``g`` raises instead)."""
        call, arrays, _ = _row_case(name, strided)
        layers = (_LIN, _LN, _BN, _MSA, _RECOVER)

        def gradients(writeable):
            for layer in layers:
                layer.zero_grad()
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = call(*tensors)
            seed = np.random.default_rng(7).normal(size=out.shape) \
                .astype(out.dtype)
            seed.flags.writeable = writeable
            out.backward(seed)
            grads = [t.grad for t in tensors] + [
                p.grad for layer in layers for p in layer.parameters()
                if p.grad is not None]
            for layer in layers:
                layer.zero_grad()
            return grads

        writable = gradients(True)
        vjp = tensor_mod._Backward.__call__

        def read_only(node, g):
            g = g.view()
            g.flags.writeable = False
            vjp(node, g)

        monkeypatch.setattr(tensor_mod._Backward, "__call__", read_only)
        got = gradients(False)
        assert len(got) == len(writable)
        assert all(_same_bits(a, b) for a, b in zip(got, writable))

    @_layouts
    @_rows
    def test_eager_tape_and_replay_agree_bitwise(self, name, strided):
        call, arrays, _ = _row_case(name, strided)
        with no_grad():
            eager = call(*map(Tensor, arrays)).data
        taped = call(*[Tensor(a, requires_grad=True) for a in arrays])
        assert taped.requires_grad and _same_bits(taped.data, eager)
        plan, _ = trace(call, arrays)
        assert name in {s.name for s in plan.steps}
        (replayed,) = PlanExecutor(plan).run(arrays)
        assert _same_bits(replayed, eager)

    @_layouts
    @_rows
    def test_value_matches_reference(self, name, strided):
        row = OP_TABLE[name]
        call, arrays, seen = _row_case(name, strided)
        with no_grad():
            got = call(*map(Tensor, arrays)).data
        want = np.asarray(row.ref(*seen))
        assert got.shape == want.shape
        if row.ulps == 0:
            # values, not bytes: relu's x * (x > 0) yields -0.0
            assert got.dtype == want.dtype and np.array_equal(got, want)
        else:
            assert got.dtype == np.float32 and want.dtype == np.float64
            bound = row.ulps * np.spacing(np.float32(np.abs(want).max()))
            assert np.abs(got - want).max() <= bound

    @_layouts
    @_rows
    def test_out_buffer_branch_matches_allocating_branch(self, name, strided):
        """The one kernel contract: every step of the row's plan is a
        view of its first input, an in-place update of it, or a
        ``compute`` step whose ``fn(buffer, …)`` returns ``buffer``
        itself holding the bits ``fn(None, …)`` returns — the one
        duplication a kernel keeps."""
        call, arrays, _ = _row_case(name, strided)
        plan, _ = trace(call, arrays)
        env = dict(zip(plan.inputs, arrays))
        for step in plan.steps:
            ins = tuple(env[ref] if tag == "s" else plan.const_arrays[ref]
                        for tag, ref in step.ins)
            assert step.kind in ("compute", "view", "inplace"), step.name
            if step.kind == "compute":
                spec = plan.slots[step.out]
                buffer = np.full(spec.shape, 77, spec.dtype)
                written = step.fn(buffer, ins, step.consts)
                assert written is buffer, step.name
                assert _same_bits(written,
                                  step.fn(None, ins, step.consts)), step.name
            value = step.fn(None, ins, step.consts)
            if step.kind != "compute":
                assert np.shares_memory(value, ins[0]), step.name
            env[step.out] = value


class TestOneForwardPerPrimitive:
    def test_replacing_a_kernel_changes_eager_and_taped_values(
            self, rng, monkeypatch):
        """There is no second expression of a forward for eager to use."""
        a, b = _f32(rng, 3, 4), _f32(rng, 3, 4)
        monkeypatch.setitem(
            plan_mod.KERNELS, "add", plan_mod.Kernel(
                lambda out, ins, consts: np.subtract(*ins, out=out),
                "compute"))
        with no_grad():
            assert np.array_equal((Tensor(a) + Tensor(b)).data, a - b)
        taped = Tensor(a, requires_grad=True) + Tensor(b)
        assert taped.requires_grad and np.array_equal(taped.data, a - b)

    @pytest.mark.parametrize("layer, shape, mask, in_place", [
        (_LIN, (3, 4, 5), None, {"iadd": 1}),
        (_MSA, (4, 6, 8), None, {"iadd": 2, "imul_scalar": 1}),
        (_MSA, (4, 6, 8), _WINDOW_MASK,
         {"iadd": 2, "imul_scalar": 1, "add_window_mask": 1}),
        (_MSA, (4, 6, 8), np.tile(_WINDOW_MASK, (2, 1, 1, 1)),
         {"iadd": 3, "imul_scalar": 1})],
        ids=["linear", "attention", "window-mask", "plain-mask"])
    def test_taped_in_place_is_the_composite(
            self, rng, layer, shape, mask, in_place):
        """Under the tape the layers run their in-place kernels — the
        expression they run untaped — and every gradient, the input's
        and each parameter's, is bitwise what the out-of-place
        composite's tape gives."""
        array = _f32(rng, *shape)
        cotangent = _f32(rng, *shape[:-1], 3 if layer is _LIN else 8)
        grads, ops = [], []
        for fn in (layer, _composite_layer):
            layer.zero_grad()
            x = Tensor(array, requires_grad=True)
            out = fn(x) if mask is None else fn(x, mask=mask)
            ops.append(collections.Counter(
                n._backward.op for n in tape_nodes(out)
                if n._backward is not None))
            out.backward(cotangent)
            grads.append([x.grad] + [p.grad for p in layer.parameters()])
        layer.zero_grad()
        fused, composite = ops
        assert fused["matmul"] == composite["matmul"] \
            == (1 if layer is _LIN else 4)
        kinds = ("iadd", "imul_scalar", "add_window_mask")
        assert {k: fused[k] for k in kinds if fused[k]} == in_place
        assert not set(kinds) & set(composite)
        assert all(_same_bits(a, b) for a, b in zip(*grads))

    def test_only_apply_and_checkpoint_build_the_tape(self):
        """Scanned from source: a ``_backward`` is set to anything but
        ``None`` only in ``tensor.apply`` and in ``checkpoint``'s
        recompute node, and no ``nn`` / ``swin`` code reads
        ``is_grad_enabled()`` or ``.requires_grad`` — what a layer would
        fork on — except ``checkpoint``, which is not a primitive."""
        src = Path(plan_mod.__file__).resolve().parents[1]
        setters, forks = set(), set()
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        if isinstance(node, ast.Assign) and any(
                                isinstance(t, ast.Attribute)
                                and t.attr == "_backward"
                                for t in node.targets) and not (
                                isinstance(node.value, ast.Constant)
                                and node.value.value is None):
                            setters.add(f"{rel}:{fn.name}")
            if rel.startswith(("nn/", "swin/")):
                # a fork is keyed by the outermost def around it (walk
                # is breadth-first), or <module> outside any
                owner = {}
                for scope in ast.walk(tree):
                    if isinstance(scope, (ast.FunctionDef, ast.ClassDef)):
                        for node in ast.walk(scope):
                            owner.setdefault(id(node), scope.name)
                forks |= {f"{rel}:{owner.get(id(node), '<module>')}"
                          for node in ast.walk(tree)
                          if isinstance(node, ast.Name)
                          and node.id == "is_grad_enabled"
                          or isinstance(node, ast.Attribute) and node.attr
                          in ("requires_grad", "is_grad_enabled")}
        assert sorted(setters) == ["swin/blocks.py:checkpoint",
                                   "tensor/tensor.py:apply"]
        assert forks == {"swin/blocks.py:checkpoint"}


def _composite_layer(x, mask=None):
    """Linear or MSA as out-of-place Tensor ops: bias by ``+``, scale by
    ``*``, mask by ``+`` through the batch-grouped view."""
    if x.shape[-1] == _LIN.in_features:
        return x.matmul(_LIN.weight) + _LIN.bias
    m, (B, N, C) = _MSA, x.shape
    qkv = (x.matmul(m.qkv.weight) + m.qkv.bias) \
        .reshape(B, N, 3, m.num_heads, m.head_dim).transpose(2, 0, 3, 1, 4)
    attn = qkv[0].matmul(qkv[1].swapaxes(-1, -2)) * m.scale
    if mask is not None:
        nW = mask.shape[0]
        attn = (attn.reshape(B // nW, nW, m.num_heads, N, N)
                + Tensor(mask[None])).reshape(B, m.num_heads, N, N)
    out = attn.softmax().matmul(qkv[2])
    return out.transpose(0, 2, 1, 3).reshape(B, N, C).matmul(m.proj.weight) \
        + m.proj.bias
