"""Patch embed / merge / recover: shape algebra and information flow."""

import sys
import threading

import numpy as np
import pytest

from repro.swin import CoastalSurrogate
from repro.swin.patch import (PatchEmbed2d, PatchEmbed3d, PatchMerging4d,
                              PatchRecover2d, PatchRecover3d)
from repro.swin import patch as patch_mod
from repro.swin.model import N_VARS_2D, N_VARS_3D
from repro.swin.patch import _fold_time, _unfold_time
from repro.tensor import PlanExecutor, Tensor, no_grad, trace
from repro.tensor.gradcheck import tape_nodes


class TestPatchEmbed3d:
    def test_shape(self, rng):
        pe = PatchEmbed3d(3, 16, (4, 4, 2))
        x = Tensor(rng.normal(size=(2, 3, 16, 8, 4, 5)).astype(np.float32))
        assert pe(x).shape == (2, 16, 4, 2, 2, 5)

    def test_indivisible_raises(self, rng):
        pe = PatchEmbed3d(3, 8, (4, 4, 2))
        x = Tensor(rng.normal(size=(1, 3, 15, 8, 4, 2)).astype(np.float32))
        with pytest.raises(ValueError, match="divisible"):
            pe(x)

    def test_time_slices_independent(self, rng):
        """Embedding is per-time-slice: changing slice 1 leaves slice 0."""
        pe = PatchEmbed3d(1, 4, (2, 2, 2))
        x = rng.normal(size=(1, 1, 4, 4, 2, 3)).astype(np.float32)
        base = pe(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[..., 1] += 1.0
        out = pe(Tensor(x2)).data
        np.testing.assert_allclose(out[..., 0], base[..., 0], atol=1e-6)
        assert np.abs(out[..., 1] - base[..., 1]).max() > 1e-4


class TestPatchEmbed2d:
    def test_adds_singleton_depth(self, rng):
        pe = PatchEmbed2d(1, 16, (4, 4))
        x = Tensor(rng.normal(size=(2, 1, 16, 8, 5)).astype(np.float32))
        assert pe(x).shape == (2, 16, 4, 2, 1, 5)

    def test_gradients(self, rng):
        pe = PatchEmbed2d(1, 4, (2, 2))
        x = Tensor(rng.normal(size=(1, 1, 4, 4, 2)).astype(np.float32),
                   requires_grad=True)
        pe(x).sum().backward()
        assert x.grad is not None


class TestPatchMerging4d:
    def test_shape_halves_space_doubles_channels(self, rng):
        pm = PatchMerging4d(8)
        x = Tensor(rng.normal(size=(1, 4, 4, 2, 3, 8)).astype(np.float32))
        assert pm(x).shape == (1, 2, 2, 1, 3, 16)

    def test_time_dim_untouched(self, rng):
        pm = PatchMerging4d(4)
        for T in (1, 2, 5):
            x = Tensor(rng.normal(size=(1, 2, 2, 2, T, 4)).astype(np.float32))
            assert pm(x).shape[4] == T

    def test_odd_dims_raise(self, rng):
        pm = PatchMerging4d(4)
        x = Tensor(rng.normal(size=(1, 3, 4, 2, 2, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="even"):
            pm(x)

    def test_merging_mixes_exactly_the_2x2x2_neighbourhood(self, rng):
        """Perturbing one cell affects only its merged output cell."""
        pm = PatchMerging4d(2)
        x = rng.normal(size=(1, 4, 4, 2, 1, 2)).astype(np.float32)
        base = pm(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 0, 0, 0, 0] += 1.0   # inside merged cell (0, 0, 0)
        out = pm(Tensor(x2)).data
        diff = np.abs(out - base).sum(axis=-1)[0, :, :, :, 0]
        assert diff[0, 0, 0] > 1e-5
        assert diff[1:, :, :].max() < 1e-7
        assert diff[0, 1:, :].max() < 1e-7


class TestPatchRecover:
    def test_3d_restores_full_mesh(self, rng):
        pr = PatchRecover3d(8, 3, (4, 4, 2))
        x = Tensor(rng.normal(size=(1, 8, 4, 2, 2, 3)).astype(np.float32))
        assert pr(x).shape == (1, 3, 16, 8, 4, 3)

    def test_2d_restores_full_mesh(self, rng):
        pr = PatchRecover2d(8, 1, (4, 4))
        x = Tensor(rng.normal(size=(1, 8, 4, 2, 3)).astype(np.float32))
        assert pr(x).shape == (1, 1, 16, 8, 3)

    def test_embed_recover_roundtrip_shapes(self, rng):
        """PatchEmbed3d ∘ PatchRecover3d preserves the mesh exactly."""
        pe = PatchEmbed3d(3, 8, (4, 4, 2))
        pr = PatchRecover3d(8, 3, (4, 4, 2))
        x = Tensor(rng.normal(size=(1, 3, 8, 8, 4, 2)).astype(np.float32))
        assert pr(pe(x)).shape == x.shape

    def test_gradients_flow_through_recover(self, rng):
        pr = PatchRecover2d(4, 1, (2, 2))
        x = Tensor(rng.normal(size=(1, 4, 3, 3, 2)).astype(np.float32),
                   requires_grad=True)
        pr(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in pr.parameters())


# ----------------------------------------------------------------------
# the fused head: one ``patch_recover`` kernel against the four modules
# ----------------------------------------------------------------------
def _seeded(head, seed=5):
    rng = np.random.default_rng(seed)
    for p in head.parameters():
        p.data[...] = rng.normal(scale=0.5, size=p.shape)
    C = head.norm.num_features
    head.norm.running_mean[...] = rng.normal(size=C)
    head.norm.running_var[...] = rng.uniform(0.5, 2.0, size=C)
    return head.eval()


def _four_modules(head, x):
    """ConvTranspose → BatchNorm → GELU → 1×1, one module at a time."""
    folded, B, T = _fold_time(x)
    return _unfold_time(head.head(head.act(head.norm(head.up(folded)))),
                        B, T)


def _composite(head, x):
    """The four modules' output, untaped."""
    with no_grad():
        return _four_modules(head, x).data


def _case(shape, layout, seed=6):
    """``(array, select)``: ``select(Tensor(array))`` is the head input
    of ``shape``, contiguous or as ``CoastalSurrogate`` hands it over —
    a slice (3-D head) or one index (ζ head) of a depth axis one longer."""
    rng = np.random.default_rng(seed)
    if layout == "contiguous":
        return rng.normal(size=shape).astype(np.float32), lambda t: t
    if len(shape) == 6:
        deeper = shape[:4] + (shape[4] + 1,) + shape[5:]
        depth = slice(0, shape[4])
    else:
        deeper, depth = shape[:4] + (4,) + shape[4:], 3
    return (rng.normal(size=deeper).astype(np.float32),
            lambda t: t[:, :, :, :, depth, :])


#: (head, input shape) on the serving mesh (C 8) and the estuary mesh
#: (C 12), patch 4×4×2 / 4×4 as in benchmarks/e2e/workloads.py
_HEADS = {
    "serving-3d": (lambda: PatchRecover3d(8, 3, (4, 4, 2)), (2, 8, 4, 4, 3, 4)),
    "serving-2d": (lambda: PatchRecover2d(8, 1, (4, 4)), (2, 8, 4, 4, 4)),
    "estuary-3d": (lambda: PatchRecover3d(12, 3, (4, 4, 2)),
                   (1, 12, 16, 16, 3, 8)),
    "estuary-2d": (lambda: PatchRecover2d(12, 1, (4, 4)), (1, 12, 16, 16, 8)),
}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


class TestFusedHead:
    @pytest.mark.parametrize("layout", ["contiguous", "depth-slot"])
    @pytest.mark.parametrize("name", sorted(_HEADS))
    def test_kernel_is_the_composite_bitwise(self, name, layout):
        """Eager and replayed, the one kernel writes the four modules'
        bits — the model's own input layout included."""
        make, shape = _HEADS[name]
        head = _seeded(make())
        array, select = _case(shape, layout)
        want = _composite(head, select(Tensor(array)))
        with no_grad():
            assert _same_bits(head(select(Tensor(array))).data, want)
        plan, _ = trace(lambda t: head(select(t)), [array])
        names = [s.name for s in plan.steps]
        assert names.count("patch_recover") == 1
        assert not {"conv_transpose_nd", "bn_affine", "gelu",
                    "conv_nd"} & set(names)
        (replayed,) = PlanExecutor(plan).run([array])
        assert _same_bits(replayed, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["serving-3d", "serving-2d"])
    def test_a_ragged_last_block(self, name, dtype, monkeypatch):
        """Eight samples in blocks of three: the last block holds two
        (and float64 tokens take GELU's erf chain in both paths)."""
        make, shape = _HEADS[name]
        head = _seeded(make())
        C, coarse = shape[1], shape[2:-1]
        per_sample = C * int(np.prod(coarse)) * int(np.prod(head.patch))
        monkeypatch.setattr(patch_mod, "_RECOVER_BLOCK", 3 * per_sample)
        array, select = _case(shape, "depth-slot")
        x = select(Tensor(array.astype(dtype)))
        assert shape[0] * shape[-1] == 8
        with no_grad():
            got = head(x).data
        assert got.dtype == dtype and _same_bits(got, _composite(head, x))

    def test_concurrent_threads_reproduce_serial_results(self):
        """The block buffers are per thread: replicas inside the kernel
        at once, on different shapes, must not see each other's blocks."""
        names = ("serving-3d", "serving-2d", "serving-3d")
        heads = [_seeded(_HEADS[name][0]()) for name in names]
        inputs = [Tensor(_case(_HEADS[name][1], "contiguous", seed)[0])
                  for seed, name in enumerate(names)]
        with no_grad():
            want = [head(x).data for head, x in zip(heads, inputs)]
        start = threading.Barrier(len(heads))    # more threads than CI cores
        got = [[] for _ in heads]

        def work(i):
            start.wait()
            with no_grad():
                for _ in range(10):
                    got[i].append(heads[i](inputs[i]).data)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(heads))]
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
            assert len(ys) == 10
            assert all(_same_bits(y, w) for y in ys)

    def test_training_forward_moves_the_running_statistics(self):
        make, shape = _HEADS["serving-3d"]
        head = _seeded(make()).train()
        array, _ = _case(shape, "contiguous")
        before = head.norm.running_mean.copy(), head.norm.running_var.copy()
        with no_grad():
            head(Tensor(array))
        assert not np.array_equal(head.norm.running_mean, before[0])
        assert not np.array_equal(head.norm.running_var, before[1])

    def test_taped_forward_builds_one_patch_recover_node(self):
        """With the tape on, eval mode runs the one kernel — its forward
        bits are the untaped ones — and its VJP reaches every parameter,
        BatchNorm's weight and bias through the folded scale and shift."""
        make, shape = _HEADS["serving-2d"]
        head = _seeded(make())
        array, _ = _case(shape, "contiguous")
        x = Tensor(array, requires_grad=True)
        out = head(x)
        ops = [n._backward.op for n in tape_nodes(out)
               if n._backward is not None]
        assert ops.count("patch_recover") == 1
        assert not {"conv_transpose_nd", "bn_affine", "gelu",
                    "conv_nd"} & set(ops)
        with no_grad():
            assert _same_bits(out.data, head(Tensor(array)).data)
        out.sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in head.parameters())
        assert head.norm.weight.grad is not None \
            and head.norm.bias.grad is not None

    @pytest.mark.parametrize("name", sorted(_HEADS))
    def test_fused_vjp_is_the_composites_tape(self, name):
        """The fast operator against the slow one, value and gradient
        (the ``test_autodiff`` pattern): taped, the kernel's output is
        the four modules' bit for bit, and so is the input gradient;
        the six parameter gradients — the two convolutions' weights and
        biases, BatchNorm's weight and bias — sum over blocks in another
        order and agree within 2e-5 of their largest entry (the worst
        of the four heads reads 4.5e-6)."""
        make, shape = _HEADS[name]
        head = _seeded(make())
        array, select = _case(shape, "depth-slot")
        grads, outs = [], []
        for forward in (head, lambda t: _four_modules(head, t)):
            head.zero_grad()
            x = Tensor(array, requires_grad=True)
            out = forward(select(x))
            if not outs:
                cotangent = np.random.default_rng(4).normal(
                    size=out.shape).astype(np.float32)
            out.backward(cotangent)
            outs.append(out.data)
            grads.append([x.grad] + [p.grad for p in head.parameters()])
        assert _same_bits(*outs)
        (dx, *fused), (want_dx, *composite) = grads
        assert _same_bits(dx, want_dx)
        assert len(fused) == 6
        for got, want in zip(fused, composite):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.abs(got - want).max() <= 2e-5 * np.abs(want).max()

    def test_surrogate_plan_runs_one_kernel_per_head(
            self, tiny_surrogate_config):
        """No step of the compiled model writes a C-channel array at full
        mesh resolution: what it writes there has the input's or the
        output's few channels."""
        cfg = tiny_surrogate_config
        model = CoastalSurrogate(cfg).eval()
        (H, W, D), T = cfg.mesh, cfg.time_steps
        shapes = [(2, N_VARS_3D, H, W, D, T), (2, N_VARS_2D, H, W, T)]
        plan, _ = trace(model, [np.zeros(s, np.float32) for s in shapes])
        assert [s.name for s in plan.steps].count("patch_recover") == 2
        full = [plan.slots[step.out].shape for step in plan.steps
                if step.kind == "compute"
                and plan.slots[step.out].shape[2:] in ((H, W, D), (H, W))]
        assert full and all(shape[1] < cfg.embed_dim for shape in full)
