"""Autograd engine: every adjoint verified against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import (
    Tensor,
    concatenate,
    gradcheck,
    no_grad,
    stack,
    unbroadcast,
    where,
)


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
