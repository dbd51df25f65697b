"""Data pipeline: store, preprocessing, datasets, loader, builder."""

import numpy as np
import pytest

from repro.data import (DataLoader, Normalizer, SlidingWindowDataset,
                        assemble_episode_input_batch, build_archives, pad_mesh,
                        resample_store)
from repro.data.store import VARIABLES
from repro.data.dataset import assemble_episode_input
from repro.data.preprocess import padded_shape


class TestPreprocess:
    def test_padded_shape(self):
        assert padded_shape(898, 598, 5, 5) == (900, 600)  # the paper's case
        assert padded_shape(16, 16, 4, 4) == (16, 16)
        assert padded_shape(15, 14, 4, 4) == (16, 16)

    def test_pad_unpad_roundtrip(self, rng):
        f = rng.normal(size=(15, 14, 6))
        p = pad_mesh(f, 16, 16)
        assert p.shape == (16, 16, 6)
        np.testing.assert_array_equal(p[:15, :14], f)

    def test_pad_appends_zeros_high_side(self, rng):
        f = rng.normal(size=(3, 3))
        p = pad_mesh(f, 5, 4)
        assert np.all(p[3:, :] == 0) and np.all(p[:, 3:] == 0)
        np.testing.assert_array_equal(p[:3, :3], f)

    def test_pad_rejects_shrink(self, rng):
        with pytest.raises(ValueError):
            pad_mesh(rng.normal(size=(5, 5)), 4, 6)


class TestNormalizer:
    def test_fit_and_roundtrip(self, rng):
        x = rng.normal(3.0, 2.0, size=(100,))
        n = Normalizer.fit({"u3": x})
        z = n.normalize("u3", x)
        assert abs(z.mean()) < 1e-9
        np.testing.assert_allclose(n.denormalize("u3", z), x, rtol=1e-9)

    def test_save_load(self, tmp_path, rng):
        n = Normalizer.fit({"u3": rng.normal(size=10),
                            "zeta": rng.normal(size=10)})
        n.save(tmp_path / "norm.json")
        m = Normalizer.load(tmp_path / "norm.json")
        assert m.mean == n.mean and m.std == n.std

    def test_fit_from_store_matches_direct(self, tiny_bundle):
        store = tiny_bundle.open_train()
        n = Normalizer.fit_from_store(store)
        # recompute directly for one variable
        allz = np.stack([store.read_var("zeta", i).astype(np.float64)
                         for i in range(len(store))])
        assert abs(n.mean["zeta"] - allz.mean()) < 1e-4
        assert abs(n.std["zeta"] - allz.std()) < 1e-4

    def test_constant_field_safe(self):
        n = Normalizer.fit({"w3": np.zeros(10)})
        z = n.normalize("w3", np.zeros(5))
        assert np.isfinite(z).all()


class TestStore:
    def test_write_read_roundtrip(self, tiny_bundle):
        store = tiny_bundle.open_train()
        snap = store.read_snapshot(0)
        assert set(snap) == set(VARIABLES)
        assert snap["u3"].ndim == 3 and snap["zeta"].ndim == 2

    def test_meta_consistent(self, tiny_bundle, tiny_ocean_config):
        store = tiny_bundle.open_train()
        assert store.meta.mesh == (tiny_ocean_config.ny,
                                   tiny_ocean_config.nx,
                                   tiny_ocean_config.nz)
        assert store.meta.dtype == "float16"

    def test_read_window_stacks_time_first(self, tiny_bundle):
        store = tiny_bundle.open_train()
        w = store.read_window(0, 3)
        assert w["u3"].shape[0] == 3
        assert w["zeta"].shape[0] == 3

    def test_window_out_of_range(self, tiny_bundle):
        store = tiny_bundle.open_train()
        with pytest.raises(IndexError):
            store.read_window(len(store) - 1, 3)

    def test_unknown_variable(self, tiny_bundle):
        with pytest.raises(KeyError):
            tiny_bundle.open_train().read_var("salinity", 0)

    def test_times_monotone(self, tiny_bundle):
        meta = tiny_bundle.open_train().meta
        assert meta.interval_s > 0 and meta.n_snapshots > 1

    def test_resample_store(self, tiny_bundle, tmp_path):
        src = tiny_bundle.open_train()
        dst = resample_store(src, tmp_path / "coarse", every=4)
        assert len(dst) == (len(src) + 3) // 4
        assert dst.meta.interval_s == src.meta.interval_s * 4
        np.testing.assert_array_equal(dst.read_var("zeta", 1),
                                      src.read_var("zeta", 4))


class TestEpisodeAssembly:
    def test_slot0_full_rest_rims(self, rng):
        T, H, W, D = 3, 6, 5, 2
        u = rng.normal(size=(T, H, W, D)).astype(np.float32)
        z = rng.normal(size=(T, H, W)).astype(np.float32)
        x3d, x2d = assemble_episode_input(u, u, u, z)
        assert x3d.shape == (3, H, W, D, T)
        assert x2d.shape == (1, H, W, T)
        # slot 0 carries the full field
        np.testing.assert_array_equal(x3d[0, ..., 0], u[0])
        # later slots: interior zeroed
        assert np.all(x3d[0, 1:-1, 1:-1, :, 1] == 0.0)
        np.testing.assert_array_equal(x2d[0, 0, :, 1], z[1][0, :])

    def test_wider_boundary(self, rng):
        T, H, W, D = 2, 8, 8, 2
        u = rng.normal(size=(T, H, W, D)).astype(np.float32)
        z = rng.normal(size=(T, H, W)).astype(np.float32)
        x3d, _ = assemble_episode_input_batch(u[None], u[None], u[None],
                                              z[None], 2)
        x3d = x3d[0]
        assert np.all(x3d[0, 2:-2, 2:-2, :, 1] == 0.0)
        np.testing.assert_array_equal(x3d[0, :2, :, :, 1], u[1][:2])


class TestDataset:
    def test_length_from_stride(self, tiny_bundle):
        store = tiny_bundle.open_train()
        norm = tiny_bundle.open_normalizer()
        ds = SlidingWindowDataset(store, norm, window=4, stride=2)
        assert len(ds) == (len(store) - 4) // 2 + 1

    def test_sample_shapes_padded(self, tiny_dataset, tiny_ocean_config):
        s = tiny_dataset[0]
        H, W = tiny_dataset.padded_hw
        D = tiny_ocean_config.nz
        assert s.x3d.shape == (3, H, W, D, 4)
        assert s.x2d.shape == (1, H, W, 4)
        assert s.y3d.shape == s.x3d.shape
        assert s.y2d.shape == s.x2d.shape

    def test_sample_dtype_fp16(self, tiny_dataset):
        assert tiny_dataset[0].x3d.dtype == np.float16

    def test_target_is_normalised_full_field(self, tiny_dataset,
                                             tiny_bundle):
        s = tiny_dataset[0]
        norm = tiny_bundle.open_normalizer()
        raw = tiny_bundle.open_train().read_var("zeta", s.start)
        expected = norm.normalize("zeta", raw.astype(np.float32))
        H, W = raw.shape
        np.testing.assert_allclose(s.y2d[0, :H, :W, 0], expected, atol=2e-3)

    def test_index_out_of_range(self, tiny_dataset):
        with pytest.raises(IndexError):
            tiny_dataset[len(tiny_dataset)]

    def test_window_too_large(self, tiny_bundle):
        store = tiny_bundle.open_train()
        norm = tiny_bundle.open_normalizer()
        with pytest.raises(ValueError):
            SlidingWindowDataset(store, norm, window=10_000)

    def test_split_is_partition(self, tiny_dataset):
        a, b = tiny_dataset.split(0.75, seed=1)
        assert len(a) + len(b) == len(tiny_dataset)
        assert set(a.starts).isdisjoint(b.starts)


class TestLoader:
    def test_batches_cover_dataset(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=2, shuffle=False)
        seen = [s for b in loader for s in b.starts]
        assert sorted(seen) == sorted(tiny_dataset.starts)

    def test_batch_shapes(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=2, shuffle=False)
        b = next(iter(loader))
        assert b.x3d.shape[0] == 2
        assert b.batch_size == 2

    def test_shuffle_reproducible(self, tiny_dataset):
        l1 = DataLoader(tiny_dataset, batch_size=1, shuffle=True, seed=9)
        l2 = DataLoader(tiny_dataset, batch_size=1, shuffle=True, seed=9)
        s1 = [b.starts[0] for b in l1]
        s2 = [b.starts[0] for b in l2]
        assert s1 == s2

    def test_shuffle_changes_across_epochs(self, tiny_dataset):
        if len(tiny_dataset) < 4:
            pytest.skip("too few samples to detect shuffling")
        loader = DataLoader(tiny_dataset, batch_size=1, shuffle=True, seed=0)
        e1 = [b.starts[0] for b in loader]
        e2 = [b.starts[0] for b in loader]
        assert e1 != e2

    def test_prefetch_worker_delivers_same_data(self, tiny_dataset):
        sync = DataLoader(tiny_dataset, batch_size=1, shuffle=False)
        pre = DataLoader(tiny_dataset, batch_size=1, shuffle=False,
                         num_workers=1)
        for bs, bp in zip(sync, pre):
            np.testing.assert_array_equal(bs.x3d, bp.x3d)

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            DataLoader(tiny_dataset, batch_size=0)


class TestBuilder:
    def test_archives_created(self, tiny_bundle):
        assert tiny_bundle.train.exists()
        assert tiny_bundle.test.exists()
        assert tiny_bundle.normalizer.exists()

    def test_builder_is_idempotent(self, tiny_bundle, tiny_ocean_config):
        again = build_archives(tiny_bundle.root, tiny_ocean_config,
                               train_days=0.5, test_days=0.25,
                               spinup_days=0.25)
        assert len(again.open_train()) == len(tiny_bundle.open_train())

    def test_test_follows_train_in_time(self, tiny_bundle):
        train = tiny_bundle.open_train().meta
        test = tiny_bundle.open_test().meta
        # the manifest's t0 is the first snapshot's time
        last_train = train.t0 + train.interval_s * (train.n_snapshots - 1)
        assert test.t0 > last_train
