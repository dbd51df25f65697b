"""4-D window machinery: partition/reverse roundtrip, shifts, masks."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.swin.blocks import (NEG_INF, compute_attention_mask,
                               compute_shift_sizes, effective_window,
                               window_partition, window_reverse)
from repro.tensor import Tensor


class TestEffectiveWindow:
    def test_clamps_to_dims(self):
        assert effective_window((4, 4, 1, 8), (2, 2, 2, 2)) == (2, 2, 1, 2)

    def test_identity_when_smaller(self):
        assert effective_window((8, 8, 8, 8), (4, 2, 2, 2)) == (4, 2, 2, 2)


class TestShiftSizes:
    def test_half_window(self):
        assert compute_shift_sizes((8, 8, 4, 8), (4, 4, 2, 2)) == (2, 2, 1, 1)

    def test_zero_when_window_spans_dim(self):
        assert compute_shift_sizes((4, 8, 2, 8), (4, 4, 2, 2)) == (0, 2, 0, 1)


class TestPartitionReverse:
    def test_shapes(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 4, 2, 4, 3)).astype(np.float32))
        win = (2, 2, 2, 2)
        tokens = window_partition(x, win)
        assert tokens.shape == (2 * 2 * 2 * 1 * 2, 16, 3)

    def test_roundtrip_identity(self, rng):
        x = rng.normal(size=(2, 4, 4, 2, 4, 3)).astype(np.float32)
        win = (2, 2, 2, 2)
        t = window_partition(Tensor(x), win)
        back = window_reverse(t, win, (4, 4, 2, 4))
        np.testing.assert_array_equal(back.data, x)

    def test_roundtrip_gradient_is_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 4, 2, 2, 2)).astype(np.float32),
                   requires_grad=True)
        win = (2, 2, 2, 2)
        out = window_reverse(window_partition(x, win), win, (4, 4, 2, 2))
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(x.shape, 3.0))

    def test_window_contents_are_contiguous_blocks(self, rng):
        """The first window must contain exactly the first block."""
        H = W = D = T = 2
        x = np.arange(H * W * D * T, dtype=np.float32).reshape(
            1, H, W, D, T, 1)
        t = window_partition(Tensor(x), (2, 2, 2, 2))
        assert t.shape[0] == 1
        np.testing.assert_array_equal(np.sort(t.data[0, :, 0]),
                                      np.arange(16, dtype=np.float32))

    @given(st.sampled_from([(4, 4, 2, 2), (2, 2, 2, 2), (4, 2, 1, 2)]),
           st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, win, b):
        rng = np.random.default_rng(0)
        dims = (4, 4, 2, 4)
        eff = effective_window(dims, win)
        x = rng.normal(size=(b,) + dims + (3,)).astype(np.float32)
        t = window_partition(Tensor(x), eff)
        back = window_reverse(t, eff, dims)
        np.testing.assert_array_equal(back.data, x)


class TestAttentionMask:
    def test_no_shift_mask_is_zero(self):
        m = compute_attention_mask((4, 4, 2, 2), (2, 2, 2, 2), (0, 0, 0, 0))
        assert np.all(m == 0.0)
        assert m.shape == (2 * 2 * 1 * 1, 16, 16)

    def test_shifted_mask_blocks_wrapped_pairs(self):
        dims, win = (4, 4, 2, 2), (2, 2, 2, 2)
        shift = compute_shift_sizes(dims, win)
        m = compute_attention_mask(dims, win, shift)
        assert (m == NEG_INF).any()
        assert (m == 0.0).any()

    def test_mask_is_symmetric(self):
        dims, win = (4, 4, 2, 2), (2, 2, 2, 2)
        shift = compute_shift_sizes(dims, win)
        m = compute_attention_mask(dims, win, shift)
        np.testing.assert_array_equal(m, np.swapaxes(m, -1, -2))

    def test_mask_diagonal_open(self):
        """A token always attends to itself."""
        dims, win = (4, 4, 2, 4), (2, 2, 2, 2)
        shift = compute_shift_sizes(dims, win)
        m = compute_attention_mask(dims, win, shift)
        n = m.shape[-1]
        diag = m[:, np.arange(n), np.arange(n)]
        assert np.all(diag == 0.0)

    def test_mask_is_cached(self):
        a = compute_attention_mask((4, 4, 2, 2), (2, 2, 2, 2), (1, 1, 1, 1))
        b = compute_attention_mask((4, 4, 2, 2), (2, 2, 2, 2), (1, 1, 1, 1))
        assert a is b  # lru_cache returns the same object

    def test_interior_window_fully_open(self):
        """Windows not touching a wrap seam have an all-zero mask."""
        dims, win = (8, 8, 2, 2), (2, 2, 2, 2)
        shift = compute_shift_sizes(dims, win)
        m = compute_attention_mask(dims, win, shift)
        fully_open = (m == 0).all(axis=(1, 2))
        assert fully_open.any()
