"""NN layers: modules, norms, activations, dropout, MLP, convolutions."""

import sys
import threading

import numpy as np
import pytest
import scipy.special

from repro.nn import (
    BatchNorm,
    Conv2d,
    Conv3d,
    ConvTranspose2d,
    ConvTranspose3d,
    Dropout,
    GELU,
    Identity,
    LayerNorm,
    Linear,
    MLP,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    gelu,
)
from repro.nn import init
from repro.nn import layers as layers_mod
from repro.tensor import Tensor, gradcheck, no_grad
from repro.tensor.gradcheck import tape_nodes


class TestModuleSystem:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.sub = Linear(2, 2)

        m = M()
        names = dict(m.named_parameters())
        assert "w" in names
        assert "sub.weight" in names and "sub.bias" in names

    def test_num_parameters(self):
        lin = Linear(4, 5)
        assert lin.num_parameters() == 4 * 5 + 5

    def test_train_eval_propagates(self):
        seq = Sequential(Linear(2, 2), Dropout(0.5))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_state_dict_roundtrip(self):
        a, b = Linear(3, 4), Linear(3, 4)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        np.testing.assert_array_equal(a.bias.data, b.bias.data)

    def test_load_state_dict_shape_mismatch(self):
        a, b = Linear(3, 4), Linear(3, 5)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_load_state_dict_missing_key_strict(self):
        a = Linear(3, 4)
        with pytest.raises(KeyError):
            a.load_state_dict({})

    def test_zero_grad_clears(self):
        lin = Linear(2, 2)
        out = lin(Tensor(np.ones((1, 2), np.float32)))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_module_list_iterates_in_order(self):
        mods = [Linear(1, 1) for _ in range(3)]
        ml = ModuleList(mods)
        assert list(ml) == mods
        assert len(ml) == 3
        assert ml[1] is mods[1]

    def test_sequential_applies_in_order(self, rng):
        seq = Sequential(Identity(), ReLU())
        x = rng.normal(size=(3,)).astype(np.float32)
        np.testing.assert_allclose(seq(Tensor(x)).data, np.maximum(x, 0))

    def test_buffers_in_state_dict(self):
        bn = BatchNorm(3)
        sd = bn.state_dict()
        assert "running_mean" in sd and "running_var" in sd


class TestLinear:
    def test_forward_value(self, rng):
        lin = Linear(3, 2)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        expected = x @ lin.weight.data + lin.bias.data
        np.testing.assert_allclose(lin(Tensor(x)).data, expected, rtol=1e-5)

    def test_no_bias(self):
        lin = Linear(3, 2, bias=False)
        assert lin.bias is None
        assert lin.num_parameters() == 6

    def test_batch_dims_broadcast(self, rng):
        lin = Linear(4, 3)
        x = Tensor(rng.normal(size=(2, 5, 4)).astype(np.float32))
        assert lin(x).shape == (2, 5, 3)

    def test_grad_flows_to_params(self, rng):
        lin = Linear(3, 2)
        lin(Tensor(rng.normal(size=(4, 3)).astype(np.float32))).sum().backward()
        assert lin.weight.grad is not None and lin.bias.grad is not None


class TestNorms:
    def test_layernorm_zero_mean_unit_var(self, rng):
        ln = LayerNorm(16)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 16)).astype(np.float32))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_gradcheck(self, rng):
        ln = LayerNorm(6)

        def f(x):
            return ln(x)

        gradcheck(f, [rng.normal(size=(3, 6))], atol=1e-3)

    def test_batchnorm_train_normalises(self, rng):
        bn = BatchNorm(4)
        x = Tensor(rng.normal(5.0, 2.0, size=(8, 4, 6)).astype(np.float32))
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-4)

    def test_batchnorm_updates_running_stats(self, rng):
        bn = BatchNorm(3)
        x = Tensor(rng.normal(10.0, 1.0, size=(16, 3, 4)).astype(np.float32))
        bn(x)
        assert np.all(bn.running_mean > 0.5)  # moved toward 10 by momentum

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = BatchNorm(3)
        x = Tensor(rng.normal(10.0, 1.0, size=(16, 3, 4)).astype(np.float32))
        for _ in range(50):
            bn(x)
        bn.eval()
        out = bn(x).data
        # with converged running stats, eval output ≈ normalised
        assert abs(out.mean()) < 0.2

    def test_batchnorm_5d_input(self, rng):
        bn = BatchNorm(2)
        x = Tensor(rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float32))
        assert bn(x).shape == x.shape


class TestActivations:
    def test_gelu_known_values(self):
        # GELU(0) = 0; GELU(x) → x for large x; GELU(-x) → 0
        out = gelu(Tensor(np.array([0.0, 10.0, -10.0]))).data
        np.testing.assert_allclose(out[0], 0.0, atol=1e-8)
        np.testing.assert_allclose(out[1], 10.0, rtol=1e-6)
        np.testing.assert_allclose(out[2], 0.0, atol=1e-6)

    def test_gelu_gradcheck(self, rng):
        gradcheck(lambda x: gelu(x), [rng.normal(size=(10,))])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tape_gelu_and_layernorm_keep_input_dtype(self, rng, dtype):
        x = Tensor(rng.normal(size=(6, 8)).astype(dtype), requires_grad=True)
        assert gelu(x).dtype == dtype
        ln = LayerNorm(8)
        for p in ln.parameters():
            p.data = p.data.astype(dtype)
        assert ln(x).dtype == dtype

    def test_tape_forward_bitwise_equals_inference_kernel(self, rng):
        """The forward a sensitivity differentiates is the served one:
        GELU and LayerNorm run the same kernel with the tape on or off."""
        data = (3.0 * rng.normal(size=(512, 8))).astype(np.float32)
        np.testing.assert_array_equal(
            gelu(Tensor(data, requires_grad=True)).data,
            gelu(Tensor(data)).data)
        ln = LayerNorm(8)
        ln.weight.data[...] = rng.normal(size=8)
        ln.bias.data[...] = rng.normal(size=8)
        taped = ln(Tensor(data, requires_grad=True))
        assert taped.requires_grad
        with no_grad():
            np.testing.assert_array_equal(taped.data, ln(Tensor(data)).data)

    def test_gelu_module_equals_function(self, rng):
        x = Tensor(rng.normal(size=(5,)))
        np.testing.assert_array_equal(GELU()(x).data, gelu(x).data)

    def test_dropout_eval_is_identity(self, rng):
        d = Dropout(0.5)
        d.eval()
        x = Tensor(rng.normal(size=(100,)).astype(np.float32))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_dropout_preserves_expectation(self, rng):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones(100_000, np.float32))
        out = d(x).data
        assert abs(out.mean() - 1.0) < 0.02

    def test_dropout_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


def _composite_layernorm(x, w, b, eps):
    """LayerNorm as the tape used to record it, op by op — the slow
    reference for the one-node version."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) * (x - mu)).mean(axis=-1, keepdims=True)
    return (x - mu) / (var + eps).sqrt() * w + b


def _composite_gelu(x):
    """The exact-erf composite GELU the tape used to record."""
    return x * ((x * (1.0 / np.sqrt(2.0))).erf() + 1.0) * 0.5


def _layernorm_of(x, w, b):
    ln = LayerNorm(w.shape[0])
    ln.weight, ln.bias = w, b       # plain Tensors: gradcheck's leaves
    return ln(x)


def _strided(a):
    """The same values behind a non-contiguous view."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    view = wide[..., ::2]
    assert not view.flags.c_contiguous
    return view


class TestFusedTapeNodes:
    """One tape node per LayerNorm / GELU: output and every gradient
    against the composite expressions, and against finite differences."""

    @pytest.mark.parametrize("width", [8, 12])
    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                            (np.float32, 2e-5)])
    def test_layernorm_matches_composite(self, rng, width, strided,
                                         dtype, tol):
        data = rng.normal(1.0, 2.0, size=(3, 5, width)).astype(dtype)
        data = _strided(data) if strided else data
        proj = rng.normal(size=data.shape).astype(dtype)
        affine = rng.normal(size=(2, width)).astype(dtype)
        grads = []
        for fn in (_layernorm_of,
                   lambda x, w, b: _composite_layernorm(x, w, b, 1e-5)):
            x = Tensor(data, requires_grad=True)
            w = Tensor(affine[0], requires_grad=True)
            b = Tensor(affine[1], requires_grad=True)
            out = fn(x, w, b)
            (out * proj).sum().backward()
            grads.append((out.data, x.grad, w.grad, b.grad))
        assert len(tape_nodes(_layernorm_of(x, w, b))) == 4   # + x, w, b
        for got, want in zip(*grads):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol,
                                       atol=tol * np.abs(want).max())

    @pytest.mark.parametrize("masked", [False, True])
    def test_layernorm_gradcheck_trained_and_masked(self, rng, masked):
        """float64 finite differences of x with the affine parameters
        on the tape (training) and masked off it (a sensitivity)."""
        ln = LayerNorm(6)
        ln.weight.data[...] = rng.normal(size=6)
        ln.bias.data[...] = rng.normal(size=6)
        for p in ln.parameters():
            p.requires_grad = not masked
        proj = Tensor(rng.normal(size=(3, 6)))
        assert gradcheck(lambda x: ln(x) * proj, [rng.normal(size=(3, 6))],
                         atol=1e-5)
        assert all((p.grad is None) == masked for p in ln.parameters())

    def test_layernorm_gradcheck_over_weight_and_bias(self, rng):
        proj = Tensor(rng.normal(size=(4, 8)))
        assert gradcheck(lambda x, w, b: _layernorm_of(x, w, b) * proj,
                         [rng.normal(size=(4, 8)), rng.normal(size=8),
                          rng.normal(size=8)], atol=1e-5)

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-7),
                                            (np.float32, 4e-6)])
    def test_gelu_matches_composite(self, rng, strided, dtype, tol):
        data = (2.0 * rng.normal(size=(7, 12))).astype(dtype)
        data = _strided(data) if strided else data
        proj = rng.normal(size=data.shape).astype(dtype)
        grads = []
        for fn in (gelu, _composite_gelu):
            x = Tensor(data, requires_grad=True)
            out = fn(x)
            (out * proj).sum().backward()
            grads.append((out.data, x.grad))
        assert len(tape_nodes(gelu(x))) == 2            # + x
        for got, want in zip(*grads):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_gelu_gradcheck_strided_float64(self, rng):
        wide = rng.normal(size=(5, 8))
        assert gradcheck(lambda x: gelu(x[:, ::2]), [wide], atol=1e-6)

    def test_float32_gelu_derivative_within_1e6_of_float64(self):
        """Φ(x) + x·φ(x) from the blocked sweep, over the whole clamp
        range, at zero and next to the denormals."""
        f = np.float32
        x = np.concatenate([
            np.linspace(-13.0, 13.0, 400_001),
            [0.0, -0.0, 1e-45, -1e-45, 1e-38, -1e-38, 1.2e-38, 13.0,
             -13.0]]).astype(f)
        t = Tensor(x, requires_grad=True)
        gelu(t).sum().backward()
        x64 = x.astype(np.float64)
        want = scipy.special.ndtr(x64) \
            + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
        assert t.grad.dtype == f
        assert np.abs(t.grad - want).max() <= 1e-6
        assert np.all(t.grad[x == 0] == 0.5)
        # beyond the clamp the derivative is 0 or 1 to 1e-36, never inf
        far = Tensor(np.array([14.0, 1e4, 3e38, -14.0, -1e4, -3e38], f),
                     requires_grad=True)
        with np.errstate(over="raise", invalid="raise"):
            gelu(far).sum().backward()
        np.testing.assert_allclose(far.grad, [1, 1, 1, 0, 0, 0], atol=1e-35)


def _erf_chain(a, out=None):
    """The exact-erf GELU chain the float32 Φ kernel replaced — still
    the kernel's own path for float64 / strided input, kept here as the
    slow reference."""
    y = np.multiply(a, np.float32(1.0 / np.sqrt(2.0)), out=out)
    scipy.special.erf(y, out=y)
    y += 1.0
    y *= a
    y *= 0.5
    return y


def _phi(x, out=None):
    return layers_mod._k_gelu(out, (x,), None)


class TestGeluPhiKernel:
    """Contiguous float32 GELU: SIMD ufuncs only, no ``erf``."""

    B = layers_mod._PHI_BLOCK

    def test_matches_float64_oracle_no_worse_than_erf_chain(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            np.linspace(-14.0, 14.0, 2_000_001),
            1.5 * rng.normal(size=1 << 20)]).astype(np.float32)
        x64 = x.astype(np.float64)
        oracle = x64 * 0.5 * (1.0 + scipy.special.erf(x64 / np.sqrt(2.0)))
        err = np.abs(_phi(x) - oracle)
        assert np.all(err <= 5e-7 * np.maximum(1.0, np.abs(x64)))
        assert err.max() <= 1.1 * np.abs(_erf_chain(x) - oracle).max()

    def test_limits_and_specials(self):
        f = np.float32
        assert np.all(_phi(np.array([0.0, -0.0], f)) == 0)
        big = np.array([6.0, 7.5, 13.0, 14.0, 1e4, 3e38], f)
        np.testing.assert_array_equal(_phi(big), big)
        tail = _phi(np.array([-14.0, -20.0, -1e4, -3e38], f))
        assert np.all((tail >= -1e-37) & (tail <= 0))
        got = _phi(np.array([np.nan, np.inf], f))
        assert np.isnan(got[0]) and got[1] == np.inf

    def test_no_fp_exception_on_any_finite_input(self):
        # every 4099th float32 bit pattern: all exponents, both signs,
        # denormals, and the largest finite magnitudes
        bits = np.arange(0, 1 << 32, 4099, dtype=np.uint64).astype(np.uint32)
        x = bits.view(np.float32)
        x = np.concatenate([x[np.isfinite(x)],
                            np.array([3e38, -3e38], np.float32)])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = _phi(x)
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0),
                                               (1, 1), (3, 7)])
    def test_result_is_independent_of_position(self, blocks, extra):
        """What bucket padding and served ≡ direct lean on: an element's
        bits do not depend on where in which array it sits."""
        n = blocks * self.B + extra
        x = (2.0 * np.random.default_rng(n).normal(size=n)).astype(np.float32)
        want = _phi(x)
        halves = np.concatenate([_phi(x[:n // 2]), _phi(x[n // 2:])])
        np.testing.assert_array_equal(halves, want)
        arena = np.zeros(4 * n + 192, np.uint8)
        out = arena[64:64 + 4 * n].view(np.float32)
        assert _phi(x, out) is out
        np.testing.assert_array_equal(out, want)

    def test_float64_and_strided_input_keep_the_erf_chain_bits(self, rng):
        x64 = rng.normal(size=(7, 33))
        np.testing.assert_array_equal(_phi(x64), _erf_chain(x64))
        strided = rng.normal(size=(33, 7)).astype(np.float32).T
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(_phi(strided), _erf_chain(strided))
        out = np.empty((7, 33), np.float32)
        np.testing.assert_array_equal(_phi(strided, out), _erf_chain(strided))

    def test_contiguous_float32_never_calls_erf(self, monkeypatch, rng):
        def boom(*args, **kwargs):
            raise AssertionError("scipy.special.erf called")
        monkeypatch.setattr(scipy.special, "erf", boom)
        monkeypatch.setattr(scipy.special, "ndtr", boom)
        x = rng.normal(size=(5, 40)).astype(np.float32)
        assert gelu(Tensor(x)).dtype == np.float32
        taped = Tensor(x, requires_grad=True)       # value and derivative
        gelu(taped).sum().backward()
        assert taped.grad.dtype == np.float32
        with pytest.raises(AssertionError, match="erf called"):
            gelu(Tensor(x.astype(np.float64)))

    def test_concurrent_threads_reproduce_serial_results(self):
        """The work vectors are per thread: replicas inside the kernel
        at once must not see each other's blocks."""
        rng = np.random.default_rng(7)
        xs = [rng.normal(size=2 * self.B + 11).astype(np.float32)
              for _ in range(3)]             # more threads than CI cores
        want = [_phi(x) for x in xs]
        start = threading.Barrier(len(xs))
        got = [[] for _ in xs]

        def work(i):
            start.wait(timeout=10)
            for _ in range(15):
                got[i].append(_phi(xs[i]))

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for ys, w in zip(got, want):
            assert len(ys) == 15
            for y in ys:
                np.testing.assert_array_equal(y, w)


class TestMLP:
    def test_hidden_expansion(self):
        mlp = MLP(8, hidden_ratio=4.0)
        assert mlp.fc1.out_features == 32
        assert mlp.fc2.out_features == 8

    def test_shape_preserved(self, rng):
        mlp = MLP(8)
        x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
        assert mlp(x).shape == (2, 5, 8)

    def test_backward(self, rng):
        mlp = MLP(6)
        x = Tensor(rng.normal(size=(3, 6)).astype(np.float32),
                   requires_grad=True)
        mlp(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in mlp.parameters())


class TestConvLayers:
    def test_conv2d_shape(self, rng):
        c = Conv2d(3, 8, 3, stride=2, padding=1)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        assert c(x).shape == (2, 8, 4, 4)

    def test_conv3d_shape(self, rng):
        c = Conv3d(2, 4, (2, 2, 1))
        x = Tensor(rng.normal(size=(1, 2, 6, 6, 3)).astype(np.float32))
        assert c(x).shape == (1, 4, 5, 5, 3)

    def test_convtranspose2d_shape(self, rng):
        c = ConvTranspose2d(4, 2, 2, stride=2)
        x = Tensor(rng.normal(size=(1, 4, 3, 5)).astype(np.float32))
        assert c(x).shape == (1, 2, 6, 10)

    def test_convtranspose3d_shape(self, rng):
        c = ConvTranspose3d(4, 2, (2, 2, 2), stride=(2, 2, 2))
        x = Tensor(rng.normal(size=(1, 4, 2, 2, 2)).astype(np.float32))
        assert c(x).shape == (1, 2, 4, 4, 4)

    def test_wrong_rank_raises(self, rng):
        c = Conv2d(1, 1, 1)
        with pytest.raises(ValueError):
            c(Tensor(rng.normal(size=(1, 1, 4)).astype(np.float32)))

    def test_conv_roundtrip_downsample_upsample(self, rng):
        """Patch embed then recover restores the spatial extent."""
        down = Conv2d(1, 4, 4, stride=4)
        up = ConvTranspose2d(4, 1, 4, stride=4)
        x = Tensor(rng.normal(size=(1, 1, 8, 8)).astype(np.float32))
        assert up(down(x)).shape == x.shape


class TestInit:
    def test_trunc_normal_bounded(self):
        r = init.default_rng(0)
        w = init.trunc_normal((1000,), r, std=0.02)
        assert np.abs(w).max() <= 2.0 * 0.02 + 1e-9

    def test_trunc_normal_deterministic(self):
        a = init.trunc_normal((50,), init.default_rng(7))
        b = init.trunc_normal((50,), init.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_xavier_scale(self):
        w = init.xavier_uniform((100, 100), init.default_rng(0))
        bound = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= bound + 1e-9

    def test_kaiming_fan_in(self):
        w = init.kaiming_uniform((64, 32, 3, 3), init.default_rng(0))
        assert w.shape == (64, 32, 3, 3)
        assert np.isfinite(w).all()

    def test_zeros_ones(self):
        assert init.zeros((2, 2)).sum() == 0.0
        assert init.ones((2, 2)).sum() == 4.0
