#!/usr/bin/env python
"""HPC performance study: every systems result of the paper in one run.

Prints, with no training required:

* Table I    — the ROMS cost model vs. every published row;
* Table II   — memory per pipeline stage at the paper's full mesh;
* Figure 9   — the training-throughput ablation (analytic model);
* Figure 10  — multi-GPU weak scaling with/without checkpointing;
* the MPI-decomposition verification: the decomposed solver is
  bit-identical to the global solver while halo traffic is accounted.

Run:  python examples/scaling_study.py
"""

import numpy as np

import _bootstrap  # noqa: F401  (src-checkout path setup)

from repro.eval import format_table
from repro.hpc import (
    DecomposedShallowWater,
    NodeSpec,
    PipelineParams,
    RomsPerfModel,
    ScalingModel,
    TrainingPipelineModel,
    pipeline_memory_table,
)
from repro.ocean import (
    SWEConfig,
    ShallowWaterSolver,
    TidalForcing,
    make_charlotte_grid,
    synth_estuary_bathymetry,
)
from repro.swin import SurrogateConfig


def table1() -> None:
    model = RomsPerfModel.calibrated_to_paper()
    rows = [[r["solution"], f"{r['mesh'][0]}x{r['mesh'][1]}x{r['mesh'][2]}",
             f"{r['horizon_days']:g}", r["cores"],
             f"{r['paper_seconds']:,.0f}", f"{r['model_seconds']:,.0f}"]
            for r in model.table1()]
    print(format_table(
        ["Solution", "Mesh", "Days", "Cores", "Paper [s]", "Model [s]"],
        rows, title="TABLE I — ROMS cost model (calibrated on the paper's "
                    "512-core row; other rows ran on different hardware)"))
    print()


def table2() -> None:
    rows = [[f.stage, f"{f.gigabytes:.1f} GB", f.path,
             f"{f.bandwidth / 1e9:.0f} GB/s"]
            for f in pipeline_memory_table(SurrogateConfig.paper(),
                                           NodeSpec(), batch=1)]
    print(format_table(
        ["Stage", "Memory", "Data stores", "Throughput"],
        rows, title="TABLE II — pipeline memory at the paper's mesh "
                    "(paper: 4 / 42 / 12 GB)"))
    print()


def figure9() -> None:
    model = TrainingPipelineModel(PipelineParams())
    paper = {"Our method": 1.36, "w/o activation ckpt": 0.81,
             "w/o pin memory": 0.74, "w/o prefetch": 0.45}
    rows = [[r["name"], f"{r['throughput']:.2f}",
             f"{paper[r['name']]:.2f}", r["batch_size"]]
            for r in model.figure9()]
    print(format_table(
        ["Configuration", "Model [inst/s]", "Paper [inst/s]", "Batch"],
        rows, title="FIGURE 9 — training-throughput ablation"))
    print()


def figure10() -> None:
    model = ScalingModel()
    rows = [[r["gpus"], f"{r['with_ckpt']:.2f}", f"{r['without_ckpt']:.2f}",
             f"{r['allreduce_ms']:.3f}"]
            for r in model.figure10()]
    print(format_table(
        ["GPUs", "w/ ckpt [inst/s]", "w/o ckpt [inst/s]", "allreduce [ms]"],
        rows, title="FIGURE 10 — weak scaling of surrogate training"))
    print()


def mpi_verification() -> None:
    grid = make_charlotte_grid(24, 20, 24_000.0, 20_000.0)
    depth = synth_estuary_bathymetry(grid)
    solver = ShallowWaterSolver(grid, depth, TidalForcing(), SWEConfig())
    state = solver.initial_state()
    for _ in range(50):
        state = solver.step(state)

    dec = DecomposedShallowWater(solver, pr=2, pc=2)
    sg, sd = state.copy(), state.copy()
    for _ in range(20):
        sg = solver.step(sg)
        sd = dec.step(sd)
    err = max(np.abs(sg.zeta - sd.zeta).max(), np.abs(sg.u - sd.u).max())
    print("MPI domain decomposition (2x2 ranks, halo 2):")
    print(f"  max |global − decomposed| after 20 steps: {err:.2e}")
    print(f"  halo traffic: {dec.decomp.halo_bytes_per_exchange() / 1024:.1f} KiB/step")
    print()


def main() -> None:
    table1()
    table2()
    figure9()
    figure10()
    mpi_verification()


if __name__ == "__main__":
    main()
