"""Swin blocks, stages, checkpointing, and the full surrogate model."""

import numpy as np
import pytest

from repro.swin.blocks import SwinBlock4d, SwinStage4d, checkpoint
from repro.swin import CoastalSurrogate, SurrogateConfig
from repro.tensor import Tensor, is_grad_enabled, no_grad


class TestSwinBlock:
    def test_shape_preserved(self, rng):
        blk = SwinBlock4d(8, 2, (2, 2, 2, 2))
        x = Tensor(rng.normal(size=(1, 4, 4, 2, 2, 8)).astype(np.float32))
        assert blk(x).shape == x.shape

    def test_shifted_block_shape(self, rng):
        blk = SwinBlock4d(8, 2, (2, 2, 2, 2), shifted=True)
        x = Tensor(rng.normal(size=(1, 4, 4, 2, 4, 8)).astype(np.float32))
        assert blk(x).shape == x.shape

    def test_shifted_differs_from_unshifted(self, rng):
        w = SwinBlock4d(8, 2, (2, 2, 2, 2), shifted=False, rng=rng)
        s = SwinBlock4d(8, 2, (2, 2, 2, 2), shifted=True, rng=rng)
        s.load_state_dict(w.state_dict())   # identical weights
        x = Tensor(rng.normal(size=(1, 4, 4, 2, 4, 8)).astype(np.float32))
        assert np.abs(w(x).data - s(x).data).max() > 1e-6

    def test_gradients_reach_all_params(self, rng):
        blk = SwinBlock4d(8, 2, (2, 2, 2, 2), shifted=True)
        x = Tensor(rng.normal(size=(1, 2, 2, 2, 2, 8)).astype(np.float32))
        blk(x).sum().backward()
        assert all(p.grad is not None for p in blk.parameters())

    def test_window_spanning_dim_ok(self, rng):
        """Window larger than a dim degrades to global attention there."""
        blk = SwinBlock4d(8, 2, (4, 4, 4, 4), shifted=True)
        x = Tensor(rng.normal(size=(1, 2, 2, 1, 2, 8)).astype(np.float32))
        assert blk(x).shape == x.shape


class TestSwinStage:
    def test_downsampling_stage(self, rng):
        st = SwinStage4d(8, 2, (2, 2, 2, 2), downsample=True)
        x = Tensor(rng.normal(size=(1, 4, 4, 2, 2, 8)).astype(np.float32))
        out, pre = st(x)
        assert pre.shape == x.shape
        assert out.shape == (1, 2, 2, 1, 2, 16)
        assert st.out_dim == 16

    def test_final_stage_no_downsample(self, rng):
        st = SwinStage4d(8, 2, (2, 2, 2, 2), downsample=False)
        x = Tensor(rng.normal(size=(1, 2, 2, 2, 2, 8)).astype(np.float32))
        out, pre = st(x)
        assert out.shape == x.shape
        assert st.out_dim == 8


class TestCheckpoint:
    def test_values_identical_with_checkpoint(self, rng):
        blk = SwinBlock4d(8, 2, (2, 2, 2, 2), rng=np.random.default_rng(3))
        blk_ck = SwinBlock4d(8, 2, (2, 2, 2, 2), use_checkpoint=True,
                             rng=np.random.default_rng(3))
        blk_ck.load_state_dict(blk.state_dict())
        x = rng.normal(size=(1, 2, 2, 2, 2, 8)).astype(np.float32)
        a = blk(Tensor(x)).data
        b = blk_ck(Tensor(x)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_gradients_identical_with_checkpoint(self, rng):
        blk = SwinBlock4d(8, 2, (2, 2, 2, 2), rng=np.random.default_rng(3))
        blk_ck = SwinBlock4d(8, 2, (2, 2, 2, 2), use_checkpoint=True,
                             rng=np.random.default_rng(3))
        blk_ck.load_state_dict(blk.state_dict())
        x = rng.normal(size=(1, 2, 2, 2, 2, 8)).astype(np.float32)

        xa = Tensor(x.copy(), requires_grad=True)
        blk(xa).sum().backward()
        xb = Tensor(x.copy(), requires_grad=True)
        blk_ck(xb).sum().backward()
        np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-5)
        for (na, pa), (nb, pb) in zip(blk.named_parameters(),
                                      blk_ck.named_parameters()):
            assert na == nb
            np.testing.assert_allclose(pa.grad, pb.grad, atol=1e-5,
                                       err_msg=na)

    def test_recompute_happens_on_backward(self, rng, monkeypatch):
        blk = SwinBlock4d(8, 2, (2, 2, 2, 2), use_checkpoint=True)
        path = blk._attention_path
        taping = []             # is_grad_enabled() at each path call

        def counted(x):
            taping.append(is_grad_enabled())
            return path(x)

        monkeypatch.setattr(blk, "_attention_path", counted)
        x = Tensor(rng.normal(size=(1, 2, 2, 2, 2, 8)).astype(np.float32),
                   requires_grad=True)
        out = blk(x)
        assert len(taping) == 1             # one forward ...
        assert taping == [False]            # ... untaped: nothing recomputed
        out.sum().backward()
        assert taping == [False, True]      # backward recomputes, taping

    def test_checkpoint_passthrough_in_no_grad(self, rng):
        blk = SwinBlock4d(8, 2, (2, 2, 2, 2), use_checkpoint=True)
        x = Tensor(rng.normal(size=(1, 2, 2, 2, 2, 8)).astype(np.float32))
        with no_grad():
            out = blk(x)
        assert not out.requires_grad

    def test_checkpoint_of_plain_function(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = checkpoint(lambda t: (t * t).sin(), x)
        out.sum().backward()
        expected = Tensor(x.data.copy(), requires_grad=True)
        (expected.data, )  # silence lint
        ref = Tensor(x.data.copy(), requires_grad=True)
        ((ref * ref).sin()).sum().backward()
        np.testing.assert_allclose(x.grad, ref.grad, atol=1e-7)


class TestSurrogateConfig:
    def test_default_validates(self):
        SurrogateConfig().validate()

    def test_paper_config_validates(self):
        cfg = SurrogateConfig.paper()
        cfg.validate()
        assert cfg.mesh == (900, 600, 12)
        assert cfg.patch3d == (5, 5, 4)
        assert cfg.latent_dims == (180, 120, 4, 24)

    def test_rejects_indivisible_mesh(self):
        with pytest.raises(ValueError, match="divisible"):
            SurrogateConfig(mesh=(30, 64, 6)).validate()

    def test_rejects_mismatched_patch2d(self):
        with pytest.raises(ValueError, match="patch2d"):
            SurrogateConfig(patch2d=(2, 2)).validate()

    def test_rejects_unmergeable_latent(self):
        # D/PD + 1 = 3 + 1 = 4 is OK; force a failure with D=4, PD=2 → 3
        with pytest.raises(ValueError):
            SurrogateConfig(mesh=(96, 64, 4), patch3d=(4, 4, 2)).validate()

    def test_heads_depths_mismatch(self):
        with pytest.raises(ValueError, match="num_heads"):
            SurrogateConfig(num_heads=(3, 6)).validate()


class TestCoastalSurrogate:
    def test_forward_shapes(self, tiny_surrogate, tiny_surrogate_config, rng):
        cfg = tiny_surrogate_config
        H, W, D = cfg.mesh
        T = cfg.time_steps
        x3 = Tensor(rng.normal(size=(1, 3, H, W, D, T)).astype(np.float32))
        x2 = Tensor(rng.normal(size=(1, 1, H, W, T)).astype(np.float32))
        y3, y2 = tiny_surrogate(x3, x2)
        assert y3.shape == (1, 3, H, W, D, T)
        assert y2.shape == (1, 1, H, W, T)

    def test_surface_is_the_zeta_head_of_forward_bitwise(
            self, tiny_surrogate_config, rng):
        cfg = tiny_surrogate_config
        H, W, D = cfg.mesh
        T = cfg.time_steps
        x3 = rng.normal(size=(2, 3, H, W, D, T)).astype(np.float32)
        x2 = rng.normal(size=(2, 1, H, W, T)).astype(np.float32)
        model = CoastalSurrogate(cfg).eval()
        with no_grad():
            _, want = model(Tensor(x3), Tensor(x2))
            got = model.surface(Tensor(x3), Tensor(x2))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.data.tobytes() == want.data.tobytes()

    def test_all_parameters_receive_gradients(self, tiny_surrogate_config,
                                              rng):
        model = CoastalSurrogate(tiny_surrogate_config)
        cfg = tiny_surrogate_config
        H, W, D = cfg.mesh
        T = cfg.time_steps
        x3 = Tensor(rng.normal(size=(1, 3, H, W, D, T)).astype(np.float32))
        x2 = Tensor(rng.normal(size=(1, 1, H, W, T)).astype(np.float32))
        y3, y2 = model(x3, x2)
        (y3.sum() + y2.sum()).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"parameters without gradients: {missing}"

    def test_parameter_breakdown_sums(self, tiny_surrogate):
        b = tiny_surrogate.parameter_breakdown()
        assert b["encoder"] + b["decoder"] == b["total"]
        assert b["total"] == tiny_surrogate.num_parameters()

    def test_deterministic_construction(self, tiny_surrogate_config):
        a = CoastalSurrogate(tiny_surrogate_config)
        b = CoastalSurrogate(tiny_surrogate_config)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_checkpoint_variant_matches(self, tiny_surrogate_config, rng):
        from dataclasses import replace
        base = CoastalSurrogate(tiny_surrogate_config)
        ck = CoastalSurrogate(replace(tiny_surrogate_config,
                                      use_checkpoint=True))
        ck.load_state_dict(base.state_dict())
        cfg = tiny_surrogate_config
        H, W, D = cfg.mesh
        T = cfg.time_steps
        x3 = Tensor(rng.normal(size=(1, 3, H, W, D, T)).astype(np.float32))
        x2 = Tensor(rng.normal(size=(1, 1, H, W, T)).astype(np.float32))
        base.eval()
        ck.eval()
        with no_grad():
            a3, a2 = base(x3, x2)
            b3, b2 = ck(x3, x2)
        np.testing.assert_allclose(a3.data, b3.data, atol=1e-5)
        np.testing.assert_allclose(a2.data, b2.data, atol=1e-5)

    def test_patch_size_changes_param_count(self):
        """Table IV: smaller horizontal patches → more encoder params is
        not guaranteed, but counts must differ and stay positive."""
        small = CoastalSurrogate(SurrogateConfig(
            mesh=(32, 32, 6), time_steps=4, patch3d=(4, 4, 2),
            patch2d=(4, 4), embed_dim=8, num_heads=(2, 4, 8),
            window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2)))
        big = CoastalSurrogate(SurrogateConfig(
            mesh=(32, 32, 6), time_steps=4, patch3d=(8, 8, 2),
            patch2d=(8, 8), embed_dim=8, num_heads=(2, 4, 8),
            window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2)))
        assert small.num_parameters() != big.num_parameters()


#: the serving and estuary meshes of benchmarks/e2e/workloads.py
#: (SERVING_CFG, ESTUARY_CFG): head_dim 4 everywhere on the first, 6 on
#: the second, where 1/sqrt(head_dim) is inexact in any precision
_MESHES = {
    "serving": SurrogateConfig(
        mesh=(16, 16, 6), time_steps=4, patch3d=(4, 4, 2), patch2d=(4, 4),
        embed_dim=8, num_heads=(2, 4, 8), depths=(2, 2, 2),
        window_first=(2, 2, 2, 2), window_rest=(2, 2, 2, 2)),
    "estuary": SurrogateConfig(
        mesh=(64, 64, 6), time_steps=8, patch3d=(4, 4, 2), patch2d=(4, 4),
        embed_dim=12, num_heads=(2, 4, 8), depths=(2, 2, 2),
        window_first=(4, 4, 2, 2), window_rest=(2, 2, 2, 2)),
}


class TestOneForward:
    @pytest.mark.parametrize("mesh", sorted(_MESHES))
    def test_taped_forward_is_the_untaped_forward_bitwise(self, mesh):
        """One network, one forward: with the tape on, every layer runs
        the expression it runs without grad, so a gradient is taken
        through exactly the forecast that was served."""
        cfg = _MESHES[mesh]
        model = CoastalSurrogate(cfg).eval()
        (H, W, D), T = cfg.mesh, cfg.time_steps
        rng = np.random.default_rng(31)
        x3 = rng.normal(size=(1, 3, H, W, D, T)).astype(np.float32)
        x2 = rng.normal(size=(1, 1, H, W, T)).astype(np.float32)
        with no_grad():
            untaped = model(Tensor(x3), Tensor(x2))
        taped = model(Tensor(x3, requires_grad=True),
                      Tensor(x2, requires_grad=True))
        for got, want in zip(taped, untaped):
            assert got.requires_grad
            assert got.data.tobytes() == want.data.tobytes()
