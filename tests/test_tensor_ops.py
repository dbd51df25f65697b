"""Autograd engine: every adjoint verified against finite differences."""

import math
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (BatchNorm, LayerNorm, Linear, MultiHeadSelfAttention,
                      gelu)
from repro.tensor import (
    PlanExecutor,
    Tensor,
    concatenate,
    conv_nd,
    conv_transpose_nd,
    gradcheck,
    no_grad,
    stack,
    trace,
    unbroadcast,
    where,
)
from repro.tensor import plan as plan_mod
from repro.tensor.gradcheck import tape_nodes


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

    def test_rdiv(self, rng):
        a = np.abs(_arr(rng, 4)) + 1.0
        gradcheck(lambda a: 2.0 / a, [a])

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
    "1.0 / x": lambda x: 1.0 / x,
    "x ** 2.0": lambda x: x ** 2.0,
    "x.maximum(0.0)": lambda x: x.maximum(0.0),
    "x * np.sqrt(2.0)": lambda x: x * np.sqrt(2.0),   # a float subclass
    "x.mean()": lambda x: x.mean(),
    "x.var()": lambda x: x.var(axis=-1, ddof=1),
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
        gradcheck(lambda a, b: a @ b, [_arr(rng, 3, 4), _arr(rng, 4, 5)])

    def test_batched(self, rng):
        gradcheck(lambda a, b: a @ b, [_arr(rng, 2, 3, 4), _arr(rng, 2, 4, 5)])

    def test_broadcast_batch(self, rng):
        gradcheck(lambda a, b: a @ b, [_arr(rng, 2, 3, 4), _arr(rng, 4, 5)])

    def test_vector_vector(self, rng):
        gradcheck(lambda a, b: a @ b, [_arr(rng, 4), _arr(rng, 4)])

    def test_value_matches_numpy(self, rng):
        a, b = _arr(rng, 3, 4), _arr(rng, 4, 2)
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)


# ----------------------------------------------------------------------
# transcendental
# ----------------------------------------------------------------------
class TestTranscendental:
    def test_exp(self, rng):
        gradcheck(lambda a: a.exp(), [_arr(rng, 3, 4)])

    def test_log(self, rng):
        gradcheck(lambda a: a.log(), [np.abs(_arr(rng, 3)) + 0.5])

    def test_sqrt(self, rng):
        gradcheck(lambda a: a.sqrt(), [np.abs(_arr(rng, 3)) + 0.5])

    def test_tanh(self, rng):
        gradcheck(lambda a: a.tanh(), [_arr(rng, 4)])

    def test_sigmoid(self, rng):
        gradcheck(lambda a: a.sigmoid(), [_arr(rng, 4)])

    def test_erf(self, rng):
        gradcheck(lambda a: a.erf(), [_arr(rng, 4)])

    def test_abs(self, rng):
        a = _arr(rng, 5)
        a[np.abs(a) < 0.2] += 0.5  # keep away from the kink
        gradcheck(lambda a: a.abs(), [a])

    def test_relu(self, rng):
        a = _arr(rng, 5)
        a[np.abs(a) < 0.2] += 0.5
        gradcheck(lambda a: a.relu(), [a])

    def test_maximum(self, rng):
        a, b = _arr(rng, 4), _arr(rng, 4)
        b += np.where(np.abs(a - b) < 0.2, 0.5, 0.0)
        gradcheck(lambda a, b: a.maximum(b), [a, b])

    def test_clip(self, rng):
        a = _arr(rng, 20) * 3
        a = a[np.abs(np.abs(a) - 1.0) > 0.1]  # avoid the clip boundary
        gradcheck(lambda t: t.clip(-1.0, 1.0), [a])


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

    def test_var(self, rng):
        gradcheck(lambda a: a.var(axis=-1), [_arr(rng, 3, 5)])

    def test_var_value_matches_numpy(self, rng):
        a = _arr(rng, 4, 5)
        np.testing.assert_allclose(
            Tensor(a).var(axis=1).data, a.var(axis=1), rtol=1e-6)

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

    def test_pad(self, rng):
        gradcheck(lambda a: a.pad([(1, 2), (0, 3)]) * 2.0, [_arr(rng, 3, 4)])

    def test_pad_value_forward(self, rng):
        a = _arr(rng, 2, 2)
        out = Tensor(a).pad([(1, 1), (1, 1)], value=7.0)
        assert out.data[0, 0] == 7.0
        np.testing.assert_allclose(out.data[1:-1, 1:-1], a)

    def test_roll_single(self, rng):
        gradcheck(lambda a: a.roll(2, 0) * 2.0, [_arr(rng, 5, 3)])

    def test_roll_multi(self, rng):
        gradcheck(lambda a: a.roll((1, -2), (0, 1)) * 2.0, [_arr(rng, 4, 5)])

    def test_concatenate(self, rng):
        gradcheck(lambda a, b: concatenate([a, b], axis=1) * 2.0,
                  [_arr(rng, 2, 3), _arr(rng, 2, 4)])

    def test_stack(self, rng):
        gradcheck(lambda a, b: stack([a, b], axis=0) * 2.0,
                  [_arr(rng, 3), _arr(rng, 3)])

    def test_where(self, rng):
        cond = rng.random((3, 4)) > 0.5
        gradcheck(lambda a, b: where(cond, a, b),
                  [_arr(rng, 3, 4), _arr(rng, 3, 4)])


# ----------------------------------------------------------------------
# composite ops
# ----------------------------------------------------------------------
class TestComposite:
    def test_softmax_grad(self, rng):
        gradcheck(lambda a: a.softmax(-1), [_arr(rng, 3, 5)])

    def test_softmax_rows_sum_to_one(self, rng):
        p = Tensor(_arr(rng, 4, 7)).softmax(-1).data
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_softmax_stability(self):
        # huge logits must not overflow
        p = Tensor(np.array([[1e4, 1e4 + 1.0]])).softmax(-1).data
        assert np.isfinite(p).all()

    def test_log_softmax(self, rng):
        gradcheck(lambda a: a.log_softmax(-1), [_arr(rng, 3, 5)])

    def test_log_softmax_consistent(self, rng):
        a = _arr(rng, 2, 6)
        np.testing.assert_allclose(
            Tensor(a).log_softmax(-1).data,
            np.log(Tensor(a).softmax(-1).data), rtol=1e-6)


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

    def test_detach(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data  # shared memory view

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

    def test_astype_roundtrip_grad(self, rng):
        t = Tensor(_arr(rng, 3).astype(np.float32), requires_grad=True)
        t.half().float().sum().backward()
        assert t.grad.dtype == np.float32
        np.testing.assert_allclose(t.grad, np.ones(3))

    def test_clone_backward(self, rng):
        t = Tensor(_arr(rng, 3), requires_grad=True)
        c = t.clone()
        assert c.data is not t.data
        (c * 3).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 3.0))

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(np.ones(2), requires_grad=True))


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
        np.testing.assert_allclose(t.exp().log().data, a, atol=1e-8)

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
    # head_dim 4, so the scale 1/sqrt(4) is exact.  An inexact one
    # splits tape from no-grad by an ulp: the tape multiplies by the
    # scale rounded to float32 (a weak scalar), the in-place kernel by
    # the float64 scalar and rounds the product.
    msa = MultiHeadSelfAttention(8, 2, rng=rng)
    for p in (*lin.parameters(), *ln.parameters(), *bn.parameters(),
              *msa.parameters()):
        p.data[...] = rng.normal(scale=0.7, size=p.shape)
    bn.running_mean[...] = rng.normal(size=4)
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=4)
    bn.eval()
    return lin, ln, bn, msa


_LIN, _LN, _BN, _MSA = _seeded_layers()
_MASK = np.random.default_rng(8).random((3, 4, 5)) < 0.5
_WINDOW_MASK = np.where(np.random.default_rng(9).random((2, 1, 6, 6)) < 0.3,
                        np.float32(-100.0), np.float32(0.0))
_CONV_W = Tensor(_f32(np.random.default_rng(10), 4, 3, 2, 2))
_CONV_T_W = Tensor(_f32(np.random.default_rng(11), 3, 4, 2, 2))
_CONV_B = Tensor(_f32(np.random.default_rng(12), 4))


def _softmax_ref(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _pad_ref(x):
    out = np.full((x.shape[0] + 3, x.shape[1], x.shape[2] + 1), 0.5, x.dtype)
    out[1:-2, :, :-1] = x
    return out


def _roll_ref(x):
    down = np.concatenate((x[-1:], x[:-1]), axis=0)           # +1 on axis 0
    return np.concatenate((down[..., 2:], down[..., :2]), axis=2)  # -2 on 2


def _where_ref(a, b):
    out = b.copy()
    out[_MASK] = a[_MASK]
    return out


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
    #: the value on arrays; ``None`` where the named tests hold it
    ref: Optional[Callable]
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
    "maximum": Row(lambda a, b: a.maximum(b), 2 * _A,
                   lambda a, b: np.where(a >= b, a, b)),
    "neg": Row(lambda a: -a, _A, lambda a: 0 - a),
    "sin": Row(lambda a: a.sin(), _A, np.sin),
    "cos": Row(lambda a: a.cos(), _A, np.cos),
    "exp": Row(lambda a: a.exp(), _A, np.exp),
    "log": Row(lambda a: a.log(), lambda rng: [_positive(rng, 3, 4, 5)],
               np.log),
    "sqrt": Row(lambda a: a.sqrt(), lambda rng: [_positive(rng, 3, 4, 5)],
                np.sqrt),
    "tanh": Row(lambda a: a.tanh(), _A, np.tanh),
    "abs": Row(lambda a: a.abs(), _A, lambda a: np.where(a < 0, -a, a)),
    "pow": Row(lambda a: a ** 3, lambda rng: [_positive(rng, 3, 4, 5)],
               lambda a: a.astype(np.float64) ** 3, ulps=1),
    "matmul": Row(lambda a, b: a @ b, [(3, 4, 5), (3, 5, 2)],
                  lambda a, b: a @ b),
    "relu": Row(lambda a: a.relu(), _A, lambda a: np.where(a > 0, a, 0)),
    "clip": Row(lambda a: a.clip(-0.5, 0.75), _A,
                lambda a: np.minimum(np.maximum(a, -0.5), 0.75)),
    "sigmoid": Row(lambda a: a.sigmoid(), _A,
                   lambda a: 1.0 / (1.0 + np.exp(-a.astype(np.float64))),
                   ulps=2),
    "erf": Row(lambda a: a.erf(), _A, np.vectorize(math.erf), ulps=1),
    "sum": Row(lambda a: a.sum(axis=(0, 2)), _A,
               lambda a: a.astype(np.float64).sum(axis=2).sum(axis=0),
               ulps=2),
    "max": Row(lambda a: a.max(axis=1), _A,
               lambda a: np.maximum.reduce(a, axis=1)),
    "softmax": Row(lambda a: a.softmax(axis=-1), _A, _softmax_ref),
    "log_softmax": Row(lambda a: a.log_softmax(axis=-1), _A,
                       lambda a: np.log(_softmax_ref(a.astype(np.float64))),
                       ulps=2),
    "reshape": Row(lambda a: a.reshape(6, 10), _A,
                   lambda a: np.array(list(a.flat), a.dtype).reshape(6, 10)),
    "transpose": Row(lambda a: a.transpose(1, 0, 2), _A,
                     lambda a: np.moveaxis(a, 0, 1)),
    "getitem": Row(lambda a: a[1:, ::2], _A,
                   lambda a: np.take(a[1:], [0, 2], axis=1)),
    "pad": Row(lambda a: a.pad(((1, 2), (0, 0), (0, 1)), value=0.5), _A,
               _pad_ref),
    # a repeated axis: test_compiled_plan's
    # test_roll_repeated_axis_matches_numpy
    "roll": Row(lambda a: a.roll((1, -2), (0, 2)), _A, _roll_ref),
    "concatenate": Row(lambda a, b: concatenate([a, b], axis=1),
                       [(3, 4, 5), (3, 2, 5)], _cat_ref),
    "stack": Row(lambda a, b: stack([a, b], axis=1), 2 * _A,
                 lambda a, b: _cat_ref(a[:, None], b[:, None])),
    "where": Row(lambda a, b: where(_MASK, a, b), 2 * _A, _where_ref),
    "astype": Row(lambda a: a.astype(np.float16), _A,
                  lambda a: np.array(a, dtype=np.float16)),
    "copy": Row(lambda a: a.clone(), _A, np.array),
    # the three in-place kernels, through the layers that call them
    "iadd": Row(lambda x: _LIN(x), _A,
                lambda x: x @ _LIN.weight.data + _LIN.bias.data),
    "imul_scalar": Row(lambda x: _MSA(x), [(4, 6, 8)], _attention_ref),
    "add_window_mask": Row(lambda x: _MSA(x, mask=_WINDOW_MASK), [(4, 6, 8)],
                           lambda x: _attention_ref(x, _WINDOW_MASK)),
    "bn_affine": Row(lambda x: _BN(x), [(2, 4, 3, 3)], _bn_ref, ulps=2),
    # values held by test_nn_layers' TestGeluPhiKernel (the Φ sweep
    # against the erf chain) and TestFusedTapeNodes (LayerNorm against
    # its composite), and by test_tensor_conv (direct sums;
    # TestPatchInterleaveBitwise for the patch paths' out= branch)
    "gelu": Row(gelu, _A, None),
    "layernorm": Row(lambda x: _LN(x), _A, None),
    "conv_nd": Row(lambda x: conv_nd(x, _CONV_W, _CONV_B, stride=2),
                   [(2, 3, 4, 6)], None),
    "conv_transpose_nd": Row(
        lambda x: conv_transpose_nd(x, _CONV_T_W, _CONV_B, stride=2),
        [(2, 3, 2, 3)], None),
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


class TestOpTable:
    def test_every_registered_kernel_has_a_row(self):
        assert set(OP_TABLE) == set(plan_mod.KERNELS)

    @_layouts
    @_rows
    def test_eager_tape_and_replay_agree_bitwise(self, name, strided):
        call, arrays, _ = _row_case(name, strided)
        with no_grad():
            eager = call(*map(Tensor, arrays)).data
        taped = call(*[Tensor(a, requires_grad=True) for a in arrays])
        assert taped.requires_grad and _same_bits(taped.data, eager)
        plan, _ = trace(call, arrays)
        assert name in plan.kernel_counts()
        (replayed,) = PlanExecutor(plan).run(arrays)
        assert _same_bits(replayed, eager)

    @_layouts
    @pytest.mark.parametrize(
        "name", sorted(n for n, row in OP_TABLE.items() if row.ref))
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
        """The one duplication a kernel keeps: for every ``compute``
        step of the row's plan, ``fn(buffer, …)`` writes the bits
        ``fn(None, …)`` returns."""
        call, arrays, _ = _row_case(name, strided)
        plan, _ = trace(call, arrays)
        env = dict(zip(plan.inputs, arrays))
        for step in plan.steps:
            ins = tuple(env[ref] if tag == "s" else plan.const_arrays[ref]
                        for tag, ref in step.ins)
            if step.kind == "compute":
                spec = plan.slots[step.out]
                buffer = np.full(spec.shape, 77, spec.dtype)
                written = step.fn(buffer, ins, step.consts)
                assert np.shares_memory(written, buffer), step.name
                assert _same_bits(written,
                                  step.fn(None, ins, step.consts)), step.name
            env[step.out] = step.fn(None, ins, step.consts)


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

    @pytest.mark.parametrize("layer, shape, mask", [
        (_LIN, (3, 4, 5), None), (_MSA, (4, 6, 8), None),
        (_MSA, (4, 6, 8), _WINDOW_MASK),
        (_MSA, (4, 6, 8), np.tile(_WINDOW_MASK, (2, 1, 1, 1)))],
        ids=["linear", "attention", "window-mask", "plain-mask"])
    def test_in_place_kernels_never_run_under_a_tape(
            self, rng, monkeypatch, layer, shape, mask):
        """With a requires-grad input the layers take the composite
        branch: no in-place kernel is called, and every matmul node
        still holds the product of its parents."""
        for name in ("iadd", "imul_scalar", "add_window_mask"):
            def refuse(out, ins, consts, name=name):
                raise AssertionError(f"{name} ran under a tape")
            monkeypatch.setitem(plan_mod.KERNELS, name,
                                plan_mod.Kernel(refuse, "inplace"))
        x = Tensor(_f32(rng, *shape), requires_grad=True)
        out = layer(x) if mask is None else layer(x, mask=mask)
        products = [n for n in tape_nodes(out) if n._backward is not None
                    and "matmul" in n._backward.__qualname__]
        assert len(products) == (1 if layer is _LIN else 4)
        for node in products:
            left, right = node._parents
            assert _same_bits(node.data, left.data @ right.data)
