"""Analytic ROMS cost model (paper Table I, Fig. 8 fallback costs).

MPI ROMS cost is modelled as computation (cell-steps per core per
second) plus halo-exchange communication per step, with the halo volume
taken from the *actual* block decomposition
(:func:`repro.hpc.mpi.halo_exchange_bytes`).  The single computation
constant is calibrated on the paper's own benchmark row — 898×598×12,
12-day horizon, 512 cores, 9,908 s — and then *predicts* the other
Table I rows and the per-episode fallback costs of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .cluster import ClusterSpec, DGX_A100_CLUSTER
from .mpi import halo_exchange_bytes

DAY = 86400.0

#: Published rows of the paper's Table I (solution, mesh, horizon,
#: cores, measured seconds).
TABLE1_ROWS: Tuple[Dict, ...] = (
    {"solution": "[8] SGI Altix 3700", "mesh": (1520, 1088, 30),
     "horizon_days": 3.0, "cores": 256, "paper_seconds": 19_915.0},
    {"solution": "[23] Xeon 8124-M (small)", "mesh": (422, 412, 40),
     "horizon_days": 3.0, "cores": 36, "paper_seconds": 1_200.0},
    {"solution": "[23] Xeon 8124-M (large)", "mesh": (846, 826, 40),
     "horizon_days": 3.0, "cores": 36, "paper_seconds": 6_000.0},
    {"solution": "[24] Xeon E3-1220", "mesh": (360, 400, 20),
     "horizon_days": 10.0 / 24.0, "cores": 32, "paper_seconds": 1_082.0},
    {"solution": "[25] Xeon E5-2670", "mesh": (212, 222, 32),
     "horizon_days": 365.0, "cores": 128, "paper_seconds": 144_000.0},
    {"solution": "Traditional MPI ROMS", "mesh": (898, 598, 12),
     "horizon_days": 12.0, "cores": 512, "paper_seconds": 9_908.0},
)


def best_process_grid(cores: int, ny: int, nx: int) -> Tuple[int, int]:
    """Most-square pr×pc factorisation of ``cores`` that fits the mesh."""
    best = (1, cores)
    best_score = float("inf")
    for pr in range(1, cores + 1):
        if cores % pr:
            continue
        pc = cores // pr
        if pr > ny or pc > nx:
            continue
        score = abs(pr / pc - ny / nx)
        if score < best_score:
            best_score = score
            best = (pr, pc)
    return best


@dataclass(frozen=True)
class RomsWorkload:
    """One ROMS simulation job."""

    mesh: Tuple[int, int, int]           # (ny, nx, nz)
    horizon_days: float
    cores: int
    baroclinic_dt: float = 30.0          # typical coastal ROMS step

    @property
    def cells(self) -> int:
        ny, nx, nz = self.mesh
        return ny * nx * nz

    @property
    def steps(self) -> int:
        return int(round(self.horizon_days * DAY / self.baroclinic_dt))


@dataclass
class RomsPerfModel:
    """Computation + communication cost model for MPI ROMS.

    Attributes
    ----------
    cell_step_rate: cell-steps per core per second (calibrated).
    cluster: interconnect characteristics for halo-exchange time.
    fields_per_exchange: prognostic 3-D fields exchanged per step
        (free surface, u, v, T, S ≈ 5 in full ROMS).
    """

    cell_step_rate: float = 4.4e4
    cluster: ClusterSpec = field(default_factory=lambda: DGX_A100_CLUSTER)
    fields_per_exchange: int = 5

    # ------------------------------------------------------------------
    def calibrate(self, workload: RomsWorkload, measured_seconds: float
                  ) -> "RomsPerfModel":
        """Solve ``cell_step_rate`` so the model reproduces a benchmark."""
        comm = self.comm_seconds_per_step(workload) * workload.steps
        comp_available = measured_seconds - comm
        if comp_available <= 0:
            raise ValueError("measured time is below modelled comm time")
        rate = workload.cells * workload.steps / (
            workload.cores * comp_available)
        self.cell_step_rate = float(rate)
        return self

    @staticmethod
    def calibrated_to_paper() -> "RomsPerfModel":
        """Model calibrated to the paper's own 512-core benchmark row."""
        row = TABLE1_ROWS[-1]
        wl = RomsWorkload(
            (row["mesh"][0], row["mesh"][1], row["mesh"][2]),
            row["horizon_days"], row["cores"])
        return RomsPerfModel().calibrate(wl, row["paper_seconds"])

    # ------------------------------------------------------------------
    def comm_seconds_per_step(self, workload: RomsWorkload) -> float:
        """Halo-exchange time per step across all ranks (critical path
        ≈ per-rank time; ranks exchange concurrently)."""
        ny, nx, nz = workload.mesh
        pr, pc = best_process_grid(workload.cores, ny, nx)
        total_bytes = halo_exchange_bytes(
            ny, nx, pr, pc, fields=self.fields_per_exchange) * nz
        per_rank = total_bytes / workload.cores
        bw = self.cluster.ib_bandwidth
        latency = 4 * self.cluster.ib_latency        # ≤4 neighbour messages
        return per_rank / bw + latency

    def comp_seconds(self, workload: RomsWorkload) -> float:
        return workload.cells * workload.steps / (
            workload.cores * self.cell_step_rate)

    def simulation_seconds(self, workload: RomsWorkload) -> float:
        """Total wall-clock of one simulation job."""
        return self.comp_seconds(workload) + \
            self.comm_seconds_per_step(workload) * workload.steps

    def parallel_efficiency(self, workload: RomsWorkload) -> float:
        comp = self.comp_seconds(workload)
        return comp / self.simulation_seconds(workload)

    # ------------------------------------------------------------------
    def episode_seconds(self, workload: RomsWorkload,
                        episode_days: float) -> float:
        """Cost of re-simulating one episode (the Fig. 8 fallback unit)."""
        scale = episode_days / workload.horizon_days
        return self.simulation_seconds(workload) * scale

    def table1(self) -> List[Dict]:
        """Model every Table I row (paper value vs. model prediction)."""
        out = []
        for row in TABLE1_ROWS:
            wl = RomsWorkload(tuple(row["mesh"]), row["horizon_days"],
                              row["cores"])
            out.append({
                **row,
                "model_seconds": self.simulation_seconds(wl),
                "efficiency": self.parallel_efficiency(wl),
            })
        return out
