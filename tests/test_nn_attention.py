"""Multi-head self-attention: shapes, masking, gradients, invariances."""

import numpy as np
import pytest

from repro.nn import MultiHeadSelfAttention
from repro.tensor import Tensor


@pytest.fixture()
def attn():
    return MultiHeadSelfAttention(dim=16, num_heads=4)


class TestAttention:
    def test_shape_preserved(self, attn, rng):
        x = Tensor(rng.normal(size=(3, 7, 16)).astype(np.float32))
        assert attn(x).shape == (3, 7, 16)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(dim=10, num_heads=3)

    def test_gradients_flow(self, attn, rng):
        x = Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32),
                   requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in attn.parameters())

    def test_full_negative_mask_blocks_offdiagonal(self, rng):
        """With everything but self-attention masked, each token's output
        depends only on itself."""
        attn = MultiHeadSelfAttention(dim=8, num_heads=2)
        n = 4
        mask = np.full((1, 1, n, n), -1e4, dtype=np.float32)
        mask[..., np.arange(n), np.arange(n)] = 0.0
        x = rng.normal(size=(1, n, 8)).astype(np.float32)
        base = attn(Tensor(x), mask=mask).data.copy()
        # perturb token 3 — tokens 0..2 must be unaffected
        x2 = x.copy()
        x2[0, 3] += 1.0
        out = attn(Tensor(x2), mask=mask).data
        np.testing.assert_allclose(out[0, :3], base[0, :3], atol=1e-5)
        assert np.abs(out[0, 3] - base[0, 3]).max() > 1e-4

    def test_permutation_equivariance(self, rng):
        """Unmasked MSA is equivariant to token permutations."""
        attn = MultiHeadSelfAttention(dim=8, num_heads=2)
        x = rng.normal(size=(1, 6, 8)).astype(np.float32)
        perm = np.random.default_rng(0).permutation(6)
        out = attn(Tensor(x)).data
        out_p = attn(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_p, atol=1e-5)

    def test_mask_broadcasts_over_heads(self, attn, rng):
        x = Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32))
        mask = np.zeros((1, 1, 5, 5), dtype=np.float32)
        out = attn(x, mask=mask)
        np.testing.assert_allclose(out.data, attn(x).data, atol=1e-6)

    def test_single_token_attends_to_itself(self, rng):
        attn = MultiHeadSelfAttention(dim=8, num_heads=1)
        x = Tensor(rng.normal(size=(1, 1, 8)).astype(np.float32))
        out = attn(x)
        assert out.shape == (1, 1, 8)
        assert np.isfinite(out.data).all()
