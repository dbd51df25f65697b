"""HPC platform simulation and performance models.

Reproduces the systems side of the paper on commodity hardware:
cluster specifications, the memory-tier model behind Table II, the
simulated-MPI domain decomposition of the solver (verified bit-exact),
the training-pipeline ablation model (Fig. 9), the ROMS cost model
(Table I, Fig. 8), and the multi-GPU weak-scaling model (Fig. 10).
:mod:`repro.hpc.fabric` carries the serving tier across hosts: a
length-prefixed descriptor-frame transport with a deterministic
SimComm-backed fabric and a real TCP-loopback fabric (see
:mod:`repro.serve.hostpool`).
"""

from .cluster import ClusterSpec, DGX_A100_CLUSTER, GpuSpec, NodeSpec
from .fabric import (
    FabricClosed,
    FabricError,
    FabricTimeout,
    Frame,
    FrameError,
    SimEndpoint,
    SocketEndpoint,
    pack_frame,
    sim_pair,
    unpack_frame,
)
from .memory import (
    MemoryFootprint,
    activation_nbytes,
    model_state_nbytes,
    pipeline_memory_table,
    sample_nbytes,
)
from .mpi import (
    BlockDecomposition,
    DecomposedShallowWater,
    SimComm,
    halo_exchange_bytes,
)
from .pipeline import (
    FIG9_CONFIGS,
    PipelineConfig,
    PipelineParams,
    TrainingPipelineModel,
)
from .roms_perf import (
    RomsPerfModel,
    RomsWorkload,
    TABLE1_ROWS,
    best_process_grid,
)
from .scaling import PAPER_GPU_COUNTS, ScalingModel, ring_allreduce_seconds
from .serving import PoolCapacityModel, ServingCapacityModel

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "ClusterSpec",
    "DGX_A100_CLUSTER",
    "sample_nbytes",
    "activation_nbytes",
    "model_state_nbytes",
    "MemoryFootprint",
    "pipeline_memory_table",
    "SimComm",
    "BlockDecomposition",
    "DecomposedShallowWater",
    "halo_exchange_bytes",
    "FabricError",
    "FrameError",
    "FabricTimeout",
    "FabricClosed",
    "Frame",
    "pack_frame",
    "unpack_frame",
    "SimEndpoint",
    "SocketEndpoint",
    "sim_pair",
    "PipelineParams",
    "PipelineConfig",
    "TrainingPipelineModel",
    "FIG9_CONFIGS",
    "RomsWorkload",
    "RomsPerfModel",
    "TABLE1_ROWS",
    "best_process_grid",
    "ScalingModel",
    "ring_allreduce_seconds",
    "PAPER_GPU_COUNTS",
    "ServingCapacityModel",
    "PoolCapacityModel",
]
