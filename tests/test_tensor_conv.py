"""N-d patch maps (kernel = stride): shapes, values, adjoints, transpose
duality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import ops_conv
from repro.tensor import Tensor, conv_nd, conv_transpose_nd, gradcheck


def _arr(rng, *shape):
    return rng.normal(size=shape)


def _spatial(op, spatial, kernel):
    """The spatial output shape of ``op`` on zeros."""
    x, w = np.zeros((1, 1) + spatial), np.zeros((1, 1) + kernel)
    return op(Tensor(x), Tensor(w)).shape[2:]


class TestShapes:
    def test_conv_output_shape(self):
        assert _spatial(conv_nd, (8, 8), (1, 1)) == (8, 8)
        assert _spatial(conv_nd, (10, 12), (2, 3)) == (5, 4)
        assert _spatial(conv_nd, (9,), (3,)) == (3,)

    def test_transpose_output_shape(self):
        assert _spatial(conv_transpose_nd, (4, 4), (2, 2)) == (8, 8)
        assert _spatial(conv_transpose_nd, (4,), (3,)) == (12,)

    def test_conv_result_shape_2d(self, rng):
        x = Tensor(_arr(rng, 2, 3, 10, 8))
        w = Tensor(_arr(rng, 5, 3, 5, 2))
        assert conv_nd(x, w).shape == (2, 5, 2, 4)

    def test_conv_result_shape_3d(self, rng):
        x = Tensor(_arr(rng, 1, 2, 8, 8, 4))
        w = Tensor(_arr(rng, 6, 2, 2, 2, 2))
        assert conv_nd(x, w).shape == (1, 6, 4, 4, 2)

    def test_transpose_inverts_spatial_reduction(self, rng):
        x = Tensor(_arr(rng, 1, 4, 6, 6))
        w = Tensor(_arr(rng, 4, 2, 2, 2))
        y = conv_transpose_nd(x, w)
        assert y.shape == (1, 2, 12, 12)

    @pytest.mark.parametrize("spatial", [(5, 4), (4, 7), (3, 3)])
    def test_conv_rejects_partial_patches(self, rng, spatial):
        """A map over whole patches: no site is cropped away."""
        x = Tensor(_arr(rng, 1, 2, *spatial))
        w = Tensor(_arr(rng, 3, 2, 2, 2))
        with pytest.raises(ValueError, match="whole patches"):
            conv_nd(x, w)


class TestValues:
    def test_identity_kernel_1x1(self, rng):
        """1×1 identity kernel reproduces the input channel."""
        x = _arr(rng, 1, 1, 5, 5)
        w = np.ones((1, 1, 1, 1))
        out = conv_nd(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x)

    def test_averaging_kernel(self, rng):
        """A 2×2 kernel of quarters computes patch averages."""
        x = _arr(rng, 1, 1, 4, 6)
        w = np.full((1, 1, 2, 2), 0.25)
        out = conv_nd(Tensor(x), Tensor(w)).data[0, 0]
        expected = x[0, 0].reshape(2, 2, 3, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(_arr(rng, 1, 2, 4, 4))
        w = Tensor(np.zeros((3, 2, 1, 1)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = conv_nd(x, w, b).data
        for c, val in enumerate([1.0, 2.0, 3.0]):
            np.testing.assert_allclose(out[:, c], val)

    def test_nearest_upsampling_via_transpose(self, rng):
        """A transposed conv with a ones 2×2 kernel duplicates each site
        into its 2×2 patch."""
        x = _arr(rng, 1, 1, 3, 4)
        w = np.ones((1, 1, 2, 2))
        out = conv_transpose_nd(Tensor(x), Tensor(w)).data[0, 0]
        np.testing.assert_array_equal(
            out, x[0, 0].repeat(2, axis=0).repeat(2, axis=1))

    def test_transpose_is_conv_adjoint(self, rng):
        """<conv(x), y> == <x, conv_T(y)> — the defining duality."""
        x = _arr(rng, 1, 2, 6, 4)
        w = _arr(rng, 3, 2, 3, 2)
        y = _arr(rng, 1, 3, 2, 2)
        lhs = float((conv_nd(Tensor(x), Tensor(w)).data * y).sum())
        wt = Tensor(np.ascontiguousarray(w))  # (Co,Ci,k) reused as (Ci,Co,k)
        back = conv_transpose_nd(Tensor(y), wt).data
        rhs = float((back * x).sum())
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


class TestGradients:
    def test_conv1d_grad(self, rng):
        gradcheck(lambda x, w: conv_nd(x, w),
                  [_arr(rng, 2, 2, 9), _arr(rng, 3, 2, 3)])

    def test_conv2d_grad(self, rng):
        gradcheck(lambda x, w: conv_nd(x, w),
                  [_arr(rng, 1, 2, 6, 4), _arr(rng, 3, 2, 2, 2)])

    def test_conv3d_grad(self, rng):
        gradcheck(lambda x, w: conv_nd(x, w),
                  [_arr(rng, 1, 1, 4, 4, 2), _arr(rng, 2, 1, 2, 2, 2)])

    def test_conv_bias_grad(self, rng):
        gradcheck(lambda x, w, b: conv_nd(x, w, b),
                  [_arr(rng, 1, 2, 4, 4), _arr(rng, 2, 2, 2, 2),
                   _arr(rng, 2)])

    def test_transpose2d_grad(self, rng):
        gradcheck(lambda x, w: conv_transpose_nd(x, w),
                  [_arr(rng, 1, 2, 3, 4), _arr(rng, 2, 3, 2, 2)])

    def test_transpose3d_grad(self, rng):
        gradcheck(lambda x, w: conv_transpose_nd(x, w),
                  [_arr(rng, 1, 1, 3, 3, 2), _arr(rng, 1, 2, 2, 2, 2)])

    def test_transpose_bias_grad(self, rng):
        gradcheck(lambda x, w, b: conv_transpose_nd(x, w, b),
                  [_arr(rng, 1, 2, 3, 3), _arr(rng, 2, 2, 2, 2),
                   _arr(rng, 2)])


class TestProperties:
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_conv_linear_in_input(self, cin, cout, n, k):
        """conv(a·x) == a·conv(x) for any configuration."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, cin, n * k, 2 * k))
        w = rng.normal(size=(cout, cin, k, k))
        y1 = conv_nd(Tensor(3.0 * x), Tensor(w)).data
        y2 = 3.0 * conv_nd(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(y1, y2, rtol=1e-8)

    @given(st.integers(2, 5), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_transpose_then_crop_identity_for_delta(self, n, cin):
        """A corner-delta kernel makes conv_transpose a pure
        zero-stuffing."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, cin, n, n))
        w = np.zeros((cin, cin, 2, 2))
        for c in range(cin):
            w[c, c, 0, 0] = 1.0
        out = conv_transpose_nd(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out[:, :, ::2, ::2], x, rtol=1e-10)
        assert np.all(out[:, :, 1::2, :] == 0)
        assert np.all(out[:, :, :, 1::2] == 0)


# ----------------------------------------------------------------------
# the patch interleaves: the wide-element interleave is a pure
# byte move, held bitwise against the scalar-element copy it replaced
# (kept here as the slow reference)
# ----------------------------------------------------------------------
def _ref_grad_input_patch(gout, w):
    kshape, out_sp = w.shape[2:], gout.shape[2:]
    N, Co = gout.shape[:2]
    Ci, nd = w.shape[1], len(kshape)
    gmat = np.moveaxis(gout, 1, -1).reshape(N, int(np.prod(out_sp)), Co)
    gx = (gmat @ w.reshape(Co, -1)).reshape(
        (N,) + tuple(out_sp) + (Ci,) + tuple(kshape))
    perm = (0, 1 + nd) + tuple(
        v for i in range(nd) for v in (1 + i, 2 + nd + i))
    return np.ascontiguousarray(gx.transpose(perm)).reshape(
        (N, Ci) + tuple(o * k for o, k in zip(out_sp, kshape)))


def _ref_fwd_patch(x, w):
    kshape = w.shape[2:]
    N, Ci = x.shape[:2]
    Co, nd = w.shape[0], len(kshape)
    out_sp = tuple(s // k for s, k in zip(x.shape[2:], kshape))
    xv = x.reshape((N, Ci) + tuple(
        v for ok in zip(out_sp, kshape) for v in ok))
    xv = xv.transpose((0,) + tuple(2 + 2 * i for i in range(nd)) + (1,)
                      + tuple(3 + 2 * i for i in range(nd)))
    xmat = xv.reshape(N, int(np.prod(out_sp)), Ci * int(np.prod(kshape)))
    gemm = xmat @ w.reshape(Co, -1).T
    return np.ascontiguousarray(np.moveaxis(gemm, -1, 1)).reshape(
        (N, Co) + out_sp)


def _arena_view(shape, dtype):
    """A plan-style output buffer: a typed view into a byte blob."""
    n = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.zeros(n + 64, np.uint8)[64:].view(dtype).reshape(shape)


KERNELS = [(4, 4, 2), (2, 2, 2), (4, 4), (1, 1, 1), (3, 3)]


@pytest.mark.parametrize("arena", [False, True], ids=["fresh", "arena"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kshape", KERNELS, ids=str)
class TestPatchInterleaveBitwise:
    def test_grad_input_patch_scatter(self, rng, kshape, dtype, arena):
        out_sp = (3, 2, 5)[:len(kshape)]
        gout = rng.normal(size=(2, 5) + out_sp).astype(dtype)
        w = rng.normal(size=(5, 3) + kshape).astype(dtype)
        full = (2, 3) + tuple(o * k for o, k in zip(out_sp, kshape))
        want = _ref_grad_input_patch(gout, w)
        got = ops_conv._grad_input_patch(
            gout, w, _arena_view(full, dtype) if arena else None)
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_fwd_patch_gather(self, rng, kshape, dtype, arena):
        out_sp = (3, 2, 5)[:len(kshape)]
        spatial = tuple(o * k for o, k in zip(out_sp, kshape))
        x = rng.normal(size=(2, 3) + spatial).astype(dtype)
        w = rng.normal(size=(4, 3) + kshape).astype(dtype)
        want = _ref_fwd_patch(x, w)
        got = ops_conv._fwd_patch(
            x, w, _arena_view((2, 4) + out_sp, dtype) if arena else None)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_fwd_patch_accepts_input_without_unit_stride_runs(rng):
    """A transposed input has no contiguous last-axis run to widen."""
    x = rng.normal(size=(2, 3, 4, 8)).astype(np.float32).transpose(0, 1, 3, 2)
    w = rng.normal(size=(4, 3, 4, 2)).astype(np.float32)
    np.testing.assert_array_equal(ops_conv._fwd_patch(x, w),
                                  _ref_fwd_patch(x, w))
