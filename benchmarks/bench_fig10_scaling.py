"""Figure 10 — weak scaling of surrogate training, 1–32 GPUs.

Reproduces both curves (with/without activation checkpointing) from the
data-parallel scaling model: NVLink ring allreduce within a DGX node,
hierarchical InfiniBand across nodes at 16/32 GPUs.  Also reports the
communication math of the *solver-side* MPI decomposition (halo bytes
per step vs. process grid), the quantity behind ROMS's own scaling
limits discussed in §II-B.
"""

import pytest

from repro.eval import format_table
from repro.hpc import (
    DecomposedShallowWater,
    PAPER_GPU_COUNTS,
    ScalingModel,
    halo_exchange_bytes,
)

from conftest import OCEAN


def test_fig10_report(env, capsys):
    model = ScalingModel()
    rows = []
    for r in model.figure10():
        n = r["gpus"]
        ideal = r["with_ckpt"] / (n * model.throughput(1, True)) * 100
        rows.append([n, f"{r['with_ckpt']:.2f}", f"{r['without_ckpt']:.2f}",
                     f"{r['allreduce_ms']:.3f}", f"{ideal:.1f}%"])

    with capsys.disabled():
        print()
        print(format_table(
            ["GPUs", "w/ ckpt [inst/s]", "w/o ckpt [inst/s]",
             "allreduce [ms]", "weak-scaling eff"],
            rows,
            title="FIGURE 10 — training weak scaling (paper: near-linear "
                  "to 32 GPUs, ckpt curve ≈ 2× above no-ckpt)"))

    t = [model.throughput(n, True) for n in PAPER_GPU_COUNTS]
    # near-linear scaling with the ckpt curve dominating everywhere
    assert all(b > 1.8 * a for a, b in zip(t, t[1:]))
    for r in model.figure10():
        assert r["with_ckpt"] > 1.5 * r["without_ckpt"]


def test_fig10_solver_halo_scaling_report(env, capsys):
    """Communication volume of the decomposed solver vs. rank count."""
    ny, nx = OCEAN.ny, OCEAN.nx
    rows = []
    for pr, pc in [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)]:
        nb = halo_exchange_bytes(ny, nx, pr, pc, fields=3)
        rows.append([f"{pr}x{pc}", pr * pc, f"{nb/1024:.1f} KiB"])
    with capsys.disabled():
        print()
        print(format_table(
            ["Process grid", "Ranks", "Halo bytes/step"],
            rows,
            title="Solver-side MPI decomposition (halo traffic grows "
                  "with partition count — the ROMS scaling limit of "
                  "§II-B)"))
    vols = [halo_exchange_bytes(ny, nx, p, p) for p in (1, 2, 4)]
    assert vols[0] == 0 and vols[1] < vols[2]


@pytest.mark.benchmark(group="fig10")
@pytest.mark.parametrize("ranks", [(1, 1), (2, 2)])
def test_fig10_decomposed_step(env, benchmark, ranks):
    """Cost of one decomposed solver step (sequential rank execution —
    measures per-rank overhead, not parallel speedup)."""
    dec = DecomposedShallowWater(env.ocean.solver, *ranks)
    st = env.ocean.solver.initial_state()
    benchmark(lambda: dec.step(st))
