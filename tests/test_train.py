"""Optimisers, schedules, losses, checkpointing, and the trainer."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.tensor import Tensor
from repro.train import (Adam, CosineWarmup, Trainer, TrainerConfig,
                         load_checkpoint, mse, save_checkpoint)
from repro.train.trainer import clip_grad_norm, episode_loss


def _quadratic_step(opt_cls, steps=200, **kw):
    """Minimise ||p - target||² and return the final parameter."""
    p = Parameter(np.array([5.0, -3.0], dtype=np.float32))
    target = np.array([1.0, 2.0], dtype=np.float32)
    opt = opt_cls([p], **kw)
    for _ in range(steps):
        opt.zero_grad()
        loss = ((p - Tensor(target)) * (p - Tensor(target))).sum()
        loss.backward()
        opt.step()
    return p.data, target


class TestOptimizers:
    def test_adam_converges(self):
        got, target = _quadratic_step(Adam, lr=0.1, steps=400)
        np.testing.assert_allclose(got, target, atol=1e-2)

    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_params_without_grad(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad — must not crash nor move
        np.testing.assert_array_equal(p.data, np.ones(2))


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.full(4, 0.1, dtype=np.float32)
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, 0.1)

    def test_empty_is_zero(self):
        assert clip_grad_norm([], 1.0) == 0.0


class TestSchedules:
    def _opt(self):
        return Adam([Parameter(np.zeros(1, dtype=np.float32))], lr=1.0)

    def test_cosine_warmup_ramps_then_decays(self):
        s = CosineWarmup(self._opt(), warmup_steps=5, total_steps=20)
        lrs = [s.step() for _ in range(20)]
        assert lrs[0] < lrs[4] <= 1.0          # warmup rising
        assert lrs[-1] < lrs[6]                # cosine falling
        assert lrs[-1] >= 0.0

    def test_cosine_validates(self):
        with pytest.raises(ValueError):
            CosineWarmup(self._opt(), warmup_steps=10, total_steps=5)


class TestLosses:
    def test_mse_zero_for_equal(self, rng):
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        assert mse(x, x).item() == 0.0

    def test_mse_value(self):
        a = Tensor(np.zeros(4, np.float32))
        b = Tensor(np.full(4, 2.0, np.float32))
        assert mse(a, b).item() == pytest.approx(4.0)

    def test_episode_loss_weights_2d(self, rng):
        """The free-surface term weighs as much as the velocity term."""
        p3 = Tensor(rng.normal(size=(1, 3, 4, 4, 2, 2)).astype(np.float32))
        t3 = Tensor(np.zeros_like(p3.data))
        p2 = Tensor(rng.normal(size=(1, 1, 4, 4, 2)).astype(np.float32))
        t2 = Tensor(np.zeros_like(p2.data))
        loss = episode_loss(p3, p2, t3, t2).item()
        assert loss - mse(p3, t3).item() == pytest.approx(
            mse(p2, t2).item(), rel=1e-5)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        a, b = Linear(3, 4), Linear(3, 4)
        b.weight.data[:] = 0.0
        opt = Adam(a.parameters(), lr=0.123)
        opt.t = 7
        save_checkpoint(tmp_path / "ck.npz", a, opt, extra={"note": "hi"})
        meta = load_checkpoint(tmp_path / "ck.npz", b)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        assert meta["optimizer"] == {"lr": pytest.approx(0.123), "t": 7}
        assert meta["extra"]["note"] == "hi"

    def test_load_without_optimizer(self, tmp_path):
        a, b = Linear(2, 2), Linear(2, 2)
        save_checkpoint(tmp_path / "ck.npz", a)
        load_checkpoint(tmp_path / "ck.npz", b)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestTrainer:
    @pytest.fixture()
    def loaders(self, tiny_dataset):
        from repro.data import DataLoader
        train = DataLoader(tiny_dataset, batch_size=1, shuffle=True, seed=0)
        val = DataLoader(tiny_dataset, batch_size=1, shuffle=False)
        return train, val

    def test_loss_decreases(self, tiny_surrogate_config, loaders):
        from repro.swin import CoastalSurrogate
        model = CoastalSurrogate(tiny_surrogate_config)
        trainer = Trainer(model, TrainerConfig(lr=2e-3))
        train, _ = loaders
        history = trainer.fit(train, epochs=2)
        assert len(history) == 2
        assert history[-1].train_loss < history[0].train_loss

    def test_evaluate_no_grads(self, tiny_surrogate, loaders):
        trainer = Trainer(tiny_surrogate, TrainerConfig())
        _, val = loaders
        loss = trainer.evaluate(val)
        assert np.isfinite(loss)
        assert all(p.grad is None for p in tiny_surrogate.parameters())

    def test_throughput_recorded(self, tiny_surrogate_config, loaders):
        from repro.swin import CoastalSurrogate
        model = CoastalSurrogate(tiny_surrogate_config)
        trainer = Trainer(model, TrainerConfig(lr=1e-3))
        train, _ = loaders
        stats = trainer.fit(train, epochs=1)[0]
        assert stats.throughput > 0
        assert stats.instances == len(train.dataset)

    def test_checkpoint_resume(self, tiny_surrogate_config, loaders,
                               tmp_path):
        from repro.swin import CoastalSurrogate
        model = CoastalSurrogate(tiny_surrogate_config)
        trainer = Trainer(model, TrainerConfig(lr=1e-3))
        train, _ = loaders
        trainer.fit(train, epochs=1)
        save_checkpoint(tmp_path / "state.npz", model, trainer.optimizer,
                        extra={"epochs_done": len(trainer.history)})

        model2 = CoastalSurrogate(tiny_surrogate_config)
        meta = load_checkpoint(tmp_path / "state.npz", model2)
        assert meta["extra"]["epochs_done"] == 1
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      model2.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
