"""Simulated MPI: block domain decomposition with halo exchange.

ROMS scales by dividing the horizontal domain into rectangular zones,
one per MPI rank, and exchanging boundary (halo) cells every step
(paper §II-B).  This module reproduces that structure in-process:

* :class:`SimComm` — a byte-accounting communicator (messages between
  ranks are array copies; volumes and counts are what the perf models
  consume);
* :class:`BlockDecomposition` — balanced 2-D partition with halo slabs;
* :class:`DecomposedShallowWater` — the *actual* barotropic solver run
  as P subdomain solvers with per-step halo exchange.  Its results are
  bit-identical to the global solver (verified by the test suite),
  which is the correctness contract of MPI ROMS.

The sequential execution of ranks makes this a *semantic* simulation of
MPI: identical data movement and identical results, with communication
cost tracked analytically rather than incurred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..ocean.grid import CurvilinearGrid, StretchedAxis
from ..ocean.swe import ShallowWaterSolver, ShallowWaterState

__all__ = ["SimComm", "BlockDecomposition", "DecomposedShallowWater",
           "halo_exchange_bytes"]

FLOAT_BYTES = 8


class SimComm:
    """Byte-accounting in-process communicator."""

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.bytes_sent = 0
        self.n_messages = 0
        self.per_pair: Dict[Tuple[int, int], int] = {}

    def sendrecv(self, src: int, dst: int, payload: np.ndarray) -> np.ndarray:
        """Move ``payload`` from src to dst (copy), recording volume."""
        if not (0 <= src < self.n_ranks and 0 <= dst < self.n_ranks):
            raise ValueError(f"rank out of range: {src} → {dst}")
        self.bytes_sent += payload.nbytes
        self.n_messages += 1
        key = (src, dst)
        self.per_pair[key] = self.per_pair.get(key, 0) + payload.nbytes
        return payload.copy()

    def allreduce_sum(self, values: List[float]) -> float:
        """Tree allreduce; accounts 2·(P−1) scalar messages."""
        self.n_messages += 2 * (self.n_ranks - 1)
        self.bytes_sent += 2 * (self.n_ranks - 1) * FLOAT_BYTES
        return float(np.sum(values))


@dataclass(frozen=True)
class BlockRange:
    """Owned index range of one rank along one axis."""

    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


class BlockDecomposition:
    """Balanced 2-D block partition of an (ny, nx) domain.

    Parameters
    ----------
    ny, nx: global cell counts.
    pr, pc: process-grid rows × columns (pr·pc ranks).
    halo: halo width in cells (2 covers every stencil in the solver).
    """

    def __init__(self, ny: int, nx: int, pr: int, pc: int, halo: int = 2):
        if pr < 1 or pc < 1:
            raise ValueError("process grid must be at least 1×1")
        if pr > ny or pc > nx:
            raise ValueError(
                f"process grid ({pr}×{pc}) exceeds domain ({ny}×{nx})")
        self.ny, self.nx = ny, nx
        self.pr, self.pc = pr, pc
        self.halo = halo
        self.rows = self._split(ny, pr)
        self.cols = self._split(nx, pc)

    @staticmethod
    def _split(n: int, p: int) -> List[BlockRange]:
        base, extra = divmod(n, p)
        ranges = []
        start = 0
        for k in range(p):
            size = base + (1 if k < extra else 0)
            ranges.append(BlockRange(start, start + size))
            start += size
        return ranges

    @property
    def n_ranks(self) -> int:
        return self.pr * self.pc

    def rank_block(self, rank: int) -> Tuple[BlockRange, BlockRange]:
        r, c = divmod(rank, self.pc)
        return self.rows[r], self.cols[c]

    def halo_slab(self, rank: int) -> Tuple[slice, slice]:
        """Global (row, col) slices of the rank's slab including halo,
        clipped at domain edges."""
        rb, cb = self.rank_block(rank)
        h = self.halo
        return (slice(max(rb.start - h, 0), min(rb.stop + h, self.ny)),
                slice(max(cb.start - h, 0), min(cb.stop + h, self.nx)))

    def interior_in_slab(self, rank: int) -> Tuple[slice, slice]:
        """Local slices of the owned interior within the halo slab."""
        rb, cb = self.rank_block(rank)
        rs, cs = self.halo_slab(rank)
        return (slice(rb.start - rs.start, rb.stop - rs.start),
                slice(cb.start - cs.start, cb.stop - cs.start))

    # ------------------------------------------------------------------
    def halo_bytes_per_exchange(self, fields: int = 3,
                                dtype_bytes: int = FLOAT_BYTES) -> int:
        """Total bytes moved in one full halo exchange of ``fields``
        cell-centred fields (EW then NS, corners carried by NS)."""
        total = 0
        h = self.halo
        for rank in range(self.n_ranks):
            rb, cb = self.rank_block(rank)
            r, c = divmod(rank, self.pc)
            # east/west messages: rows × halo columns
            if c > 0:
                total += rb.size * h
            if c < self.pc - 1:
                total += rb.size * h
            # north/south messages include the column halos
            width = cb.size + (h if c > 0 else 0) + (h if c < self.pc - 1 else 0)
            if r > 0:
                total += width * h
            if r < self.pr - 1:
                total += width * h
        return total * fields * dtype_bytes


def halo_exchange_bytes(ny: int, nx: int, pr: int, pc: int,
                        halo: int = 2, fields: int = 3,
                        dtype_bytes: int = FLOAT_BYTES) -> int:
    """Convenience wrapper used by the ROMS performance model."""
    return BlockDecomposition(ny, nx, pr, pc, halo).halo_bytes_per_exchange(
        fields, dtype_bytes)


class _SubdomainSolver(ShallowWaterSolver):
    """The barotropic solver restricted to one rank's halo slab.

    Masks, sponge, river share and time step are inherited from the
    parent (global) solver so subdomain physics is exactly the global
    physics; domain-edge behaviours (open west boundary, river row) are
    active only where the slab actually touches the global edge.
    """

    def __init__(self, parent: ShallowWaterSolver, rows: slice, cols: slice):
        grid = parent.grid
        sub_grid = CurvilinearGrid(
            StretchedAxis.from_spacing(grid.x_axis.spacing[cols],
                                       origin=grid.x_axis.faces[cols.start]),
            StretchedAxis.from_spacing(grid.y_axis.spacing[rows],
                                       origin=grid.y_axis.faces[rows.start]),
            lat0=grid.lat0, lon0=grid.lon0,
        )
        super().__init__(sub_grid, parent.depth[rows, cols],
                         parent.forcing, parent.cfg)
        # inherit global decisions: masks, sponge, river share, dt
        urange = slice(cols.start, cols.stop + 1)
        vrange = slice(rows.start, rows.stop + 1)
        self.u_open = parent.u_open[rows, urange].copy()
        self.v_open = parent.v_open[vrange, cols].copy()
        self.sponge = parent.sponge[rows, cols].copy()
        self.river_mask = parent.river_mask[rows, cols].copy()
        self.river_cell_discharge = parent.river_cell_discharge
        self.wet = parent.wet[rows, cols].copy()
        self.dt = parent.dt
        if cols.start == 0:
            self.west_outflow = parent.west_outflow.copy()[rows]
        else:
            self.west_outflow = np.zeros(self.grid.ny, dtype=bool)
            self.sponge[:] = parent.sponge[rows, cols]  # interior sponge ≡ 0
        self._build_step_constants()


class DecomposedShallowWater:
    """Run the barotropic solver as P halo-exchanging subdomains.

    The API mirrors :class:`ShallowWaterSolver.step` on *global* states:
    each step scatters halo slabs (the simulated exchange), steps every
    subdomain, and gathers owned interiors.  Executed sequentially, the
    result is bit-identical to the global solver.
    """

    def __init__(self, solver: ShallowWaterSolver, pr: int, pc: int,
                 halo: int = 2):
        self.parent = solver
        self.decomp = BlockDecomposition(solver.grid.ny, solver.grid.nx,
                                         pr, pc, halo)
        self.comm = SimComm(self.decomp.n_ranks)
        self.subsolvers: List[_SubdomainSolver] = []
        for rank in range(self.decomp.n_ranks):
            rows, cols = self.decomp.halo_slab(rank)
            self.subsolvers.append(_SubdomainSolver(solver, rows, cols))

    @property
    def dt(self) -> float:
        return self.parent.dt

    def step(self, state: ShallowWaterState) -> ShallowWaterState:
        """One decomposed step on a global state."""
        ny, nx = self.parent.grid.ny, self.parent.grid.nx
        zeta_new = np.zeros((ny, nx))
        u_new = np.zeros((ny, nx + 1))
        v_new = np.zeros((ny + 1, nx))

        for rank, sub in enumerate(self.subsolvers):
            rows, cols = self.decomp.halo_slab(rank)
            urange = slice(cols.start, cols.stop + 1)
            vrange = slice(rows.start, rows.stop + 1)
            local = ShallowWaterState(
                state.t,
                state.zeta[rows, cols].copy(),
                state.u[rows, urange].copy(),
                state.v[vrange, cols].copy(),
            )
            stepped = sub.step(local)

            ir, ic = self.decomp.interior_in_slab(rank)
            rb, cb = self.decomp.rank_block(rank)
            zeta_new[rb.start:rb.stop, cb.start:cb.stop] = \
                stepped.zeta[ir, ic]
            u_new[rb.start:rb.stop, cb.start:cb.stop + 1] = \
                stepped.u[ir, slice(ic.start, ic.stop + 1)]
            v_new[rb.start:rb.stop + 1, cb.start:cb.stop] = \
                stepped.v[slice(ir.start, ir.stop + 1), ic]

        # account the halo traffic this step would have required
        self.comm.bytes_sent += self.decomp.halo_bytes_per_exchange(fields=3)
        self.comm.n_messages += 4 * self.decomp.n_ranks  # ≤4 neighbours each

        return ShallowWaterState(state.t + self.dt, zeta_new, u_new, v_new)

    def run(self, state: ShallowWaterState, duration: float
            ) -> ShallowWaterState:
        n = max(1, int(round(duration / self.dt)))
        for _ in range(n):
            state = self.step(state)
        return state
