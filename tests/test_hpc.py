"""HPC substrate: simulated MPI, memory model, pipeline/scaling models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpc.mpi import BlockDecomposition
from repro.hpc.cluster import DGX_A100_CLUSTER
from repro.hpc import (DecomposedShallowWater, NodeSpec, PipelineParams,
                       RomsPerfModel, RomsWorkload, ScalingModel,
                       TrainingPipelineModel, activation_nbytes,
                       halo_exchange_bytes, pipeline_memory_table,
                       sample_nbytes)
from repro.hpc.pipeline import FIG9_CONFIGS, PipelineConfig
from repro.hpc.roms_perf import TABLE1_ROWS, best_process_grid
from repro.hpc.scaling import ring_allreduce_seconds
from repro.ocean import (
    SWEConfig,
    ShallowWaterSolver,
    TidalForcing,
    make_charlotte_grid,
    synth_estuary_bathymetry,
)
from repro.swin import SurrogateConfig


# ----------------------------------------------------------------------
# simulated MPI
# ----------------------------------------------------------------------
class TestBlockDecomposition:
    def test_blocks_partition_domain(self):
        d = BlockDecomposition(10, 7, 3, 2)
        covered = np.zeros((10, 7), dtype=int)
        for rank in range(d.n_ranks):
            rb, cb = d.rank_block(rank)
            covered[rb.start:rb.stop, cb.start:cb.stop] += 1
        assert np.all(covered == 1)

    def test_balanced_split(self):
        d = BlockDecomposition(10, 10, 3, 1)
        sizes = [r.size for r in d.rows]
        assert max(sizes) - min(sizes) <= 1

    def test_halo_clipped_at_edges(self):
        d = BlockDecomposition(10, 10, 2, 2)
        rows, cols = d.halo_slab(0)
        assert rows.start == 0 and cols.start == 0

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            BlockDecomposition(4, 4, 8, 1)

    def test_halo_bytes_scale_with_partitions(self):
        one = halo_exchange_bytes(64, 64, 1, 1)
        four = halo_exchange_bytes(64, 64, 2, 2)
        sixteen = halo_exchange_bytes(64, 64, 4, 4)
        assert one == 0
        assert 0 < four < sixteen

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_interior_maps_back_to_block(self, pr, pc):
        d = BlockDecomposition(16, 12, pr, pc)
        for rank in range(d.n_ranks):
            rb, cb = d.rank_block(rank)
            rs, cs = d.halo_slab(rank)
            ir, ic = d.interior_in_slab(rank)
            assert rs.start + ir.start == rb.start
            assert cs.start + ic.start == cb.start


class TestDecomposedSolver:
    @pytest.fixture(scope="class")
    def global_solver(self):
        g = make_charlotte_grid(24, 20, 24_000.0, 20_000.0)
        h = synth_estuary_bathymetry(g)
        return ShallowWaterSolver(g, h, TidalForcing(), SWEConfig())

    @pytest.fixture(scope="class")
    def evolved_state(self, global_solver):
        s = global_solver.initial_state()
        for _ in range(60):
            s = global_solver.step(s)
        return s

    @pytest.mark.parametrize("pr,pc", [(1, 1), (2, 2), (3, 2), (1, 4)])
    def test_bit_identical_to_global(self, global_solver, evolved_state,
                                     pr, pc):
        dec = DecomposedShallowWater(global_solver, pr, pc)
        sg, sd = evolved_state.copy(), evolved_state.copy()
        for _ in range(10):
            sg = global_solver.step(sg)
            sd = dec.step(sd)
        np.testing.assert_allclose(sd.zeta, sg.zeta, atol=1e-13)
        np.testing.assert_allclose(sd.u, sg.u, atol=1e-13)
        np.testing.assert_allclose(sd.v, sg.v, atol=1e-13)

    def test_step_and_forecast_leave_their_input_alone(
            self, global_solver, evolved_state, tiny_ocean):
        """Neither copies its input state, so each must only read it."""
        held = evolved_state.copy()
        DecomposedShallowWater(global_solver, 2, 2).step(evolved_state)
        solver = tiny_ocean.solver
        initial = solver.run(solver.initial_state(), 3600.0)
        held_initial = initial.copy()
        tiny_ocean.forecast(initial, 2)
        for state, before in ((evolved_state, held),
                              (initial, held_initial)):
            assert state.t == before.t
            for name in ("zeta", "u", "v"):
                assert getattr(state, name).tobytes() == \
                    getattr(before, name).tobytes(), name

    def test_single_rank_no_communication_volume(self, global_solver,
                                                 evolved_state):
        dec = DecomposedShallowWater(global_solver, 1, 1)
        dec.step(evolved_state.copy())
        assert dec.decomp.halo_bytes_per_exchange() == 0


# ----------------------------------------------------------------------
# memory model (Table II)
# ----------------------------------------------------------------------
class TestMemoryModel:
    def test_sample_bytes_scale_with_mesh(self):
        small = sample_nbytes(SurrogateConfig())
        big = sample_nbytes(SurrogateConfig.paper())
        assert big > 50 * small

    def test_checkpointing_reduces_activations(self):
        cfg = SurrogateConfig.paper()
        full = activation_nbytes(cfg, checkpointing=False)
        ckpt = activation_nbytes(cfg, checkpointing=True)
        assert ckpt < full

    def test_paper_table2_shape(self):
        """Activation footprint dominates, matching Table II's 42 GB row;
        batch 2 with checkpointing fits in an 80 GB A100."""
        cfg = SurrogateConfig.paper()
        rows = pipeline_memory_table(cfg, NodeSpec(), batch=1)
        by_stage = {r.stage: r for r in rows}
        acts = by_stage["Training Sample Processing"]
        assert 25 <= acts.gigabytes <= 60       # paper: 42 GB
        assert acts.gigabytes > by_stage["Training Sample Loading"].gigabytes
        ck = pipeline_memory_table(cfg, NodeSpec(), batch=2,
                                   checkpointing=True)
        ck_acts = {r.stage: r for r in ck}["Training Sample Processing"]
        assert ck_acts.gigabytes < 80           # fits on the A100

    def test_activation_scales_with_batch(self):
        cfg = SurrogateConfig()
        assert activation_nbytes(cfg, batch=2) == \
            2 * activation_nbytes(cfg, batch=1)


# ----------------------------------------------------------------------
# pipeline model (Fig. 9)
# ----------------------------------------------------------------------
class TestPipelineModel:
    @pytest.fixture()
    def model(self):
        return TrainingPipelineModel(PipelineParams())

    def test_reproduces_fig9_ordering(self, model):
        rows = {r["name"]: r["throughput"] for r in model.figure9()}
        assert rows["Our method"] > rows["w/o activation ckpt"]
        assert rows["Our method"] > rows["w/o pin memory"]
        assert rows["w/o pin memory"] > rows["w/o prefetch"]

    def test_matches_paper_within_tolerance(self, model):
        paper = {"Our method": 1.36, "w/o activation ckpt": 0.81,
                 "w/o pin memory": 0.74, "w/o prefetch": 0.45}
        for row in model.figure9():
            rel = abs(row["throughput"] - paper[row["name"]]) \
                / paper[row["name"]]
            assert rel < 0.15, f"{row['name']}: {row['throughput']:.2f}"

    def test_checkpointing_doubles_batch(self):
        assert PipelineConfig("a").batch_size == 2
        assert PipelineConfig("b",
                              activation_checkpointing=False).batch_size == 1

    def test_prefetch_hides_load(self, model):
        on = model.iteration_seconds(PipelineConfig("x"))
        off = model.iteration_seconds(PipelineConfig("x", prefetch=False))
        assert off > on

    def test_all_fig9_configs_present(self):
        names = {c.name for c in FIG9_CONFIGS}
        assert names == {"Our method", "w/o activation ckpt",
                         "w/o pin memory", "w/o prefetch"}


# ----------------------------------------------------------------------
# ROMS perf model (Table I)
# ----------------------------------------------------------------------
class TestRomsPerfModel:
    def test_calibration_exact_on_anchor_row(self):
        model = RomsPerfModel.calibrated_to_paper()
        row = TABLE1_ROWS[-1]
        wl = RomsWorkload(tuple(row["mesh"]), row["horizon_days"],
                          row["cores"])
        np.testing.assert_allclose(model.simulation_seconds(wl),
                                   row["paper_seconds"], rtol=1e-6)

    def test_time_scales_with_horizon(self):
        model = RomsPerfModel.calibrated_to_paper()
        wl3 = RomsWorkload((898, 598, 12), 3.0, 512)
        wl12 = RomsWorkload((898, 598, 12), 12.0, 512)
        ratio = model.simulation_seconds(wl12) / model.simulation_seconds(wl3)
        assert 3.5 < ratio < 4.5

    def test_more_cores_faster(self):
        model = RomsPerfModel.calibrated_to_paper()
        t256 = model.simulation_seconds(RomsWorkload((898, 598, 12), 12, 256))
        t512 = model.simulation_seconds(RomsWorkload((898, 598, 12), 12, 512))
        assert t512 < t256

    def test_efficiency_below_one_with_comm(self):
        model = RomsPerfModel.calibrated_to_paper()
        wl = RomsWorkload((898, 598, 12), 12.0, 512)
        assert 0.0 < model.parallel_efficiency(wl) <= 1.0

    def test_episode_cost_proportional(self):
        model = RomsPerfModel.calibrated_to_paper()
        wl = RomsWorkload((898, 598, 12), 12.0, 512)
        half_day = model.episode_seconds(wl, 0.5)
        np.testing.assert_allclose(half_day,
                                   model.simulation_seconds(wl) / 24,
                                   rtol=1e-9)

    def test_best_process_grid_fits(self):
        pr, pc = best_process_grid(512, 898, 598)
        assert pr * pc == 512
        assert pr <= 898 and pc <= 598

    def test_table1_reports_all_rows(self):
        model = RomsPerfModel.calibrated_to_paper()
        rows = model.table1()
        assert len(rows) == len(TABLE1_ROWS)
        assert all(r["model_seconds"] > 0 for r in rows)


# ----------------------------------------------------------------------
# scaling model (Fig. 10)
# ----------------------------------------------------------------------
class TestScalingModel:
    def test_ring_allreduce_zero_for_single(self):
        assert ring_allreduce_seconds(1 << 20, 1, 1e9, 1e-6) == 0.0

    def test_ring_allreduce_grows_with_payload(self):
        a = ring_allreduce_seconds(1 << 20, 4, 1e9, 1e-6)
        b = ring_allreduce_seconds(1 << 24, 4, 1e9, 1e-6)
        assert b > a

    def test_throughput_increases_with_gpus(self):
        m = ScalingModel()
        t = [m.throughput(n) for n in (1, 2, 4, 8, 16, 32)]
        assert all(b > a for a, b in zip(t, t[1:]))

    def test_ckpt_curve_above_no_ckpt(self):
        m = ScalingModel()
        for row in m.figure10():
            assert row["with_ckpt"] > row["without_ckpt"]

    def test_scaling_efficiency_high(self):
        """Gradients are tiny (3.4 M params) — weak scaling stays ≥90%."""
        m = ScalingModel()
        t1 = m.throughput(1)
        t32 = m.throughput(32)
        assert t32 / (32 * t1) > 0.9

    def test_internode_allreduce_slower(self):
        m = ScalingModel()
        assert m.allreduce_seconds(16) > m.allreduce_seconds(8)

    def test_gpu_packing(self):
        assert DGX_A100_CLUSTER.gpus(8) == (1, 8)
        assert DGX_A100_CLUSTER.gpus(32) == (4, 8)
        with pytest.raises(ValueError):
            DGX_A100_CLUSTER.gpus(12)
