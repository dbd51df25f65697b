"""HPC platform simulation and performance models.

Reproduces the systems side of the paper on commodity hardware:
cluster specifications, the memory-tier model behind Table II, the
simulated-MPI domain decomposition of the solver (verified bit-exact),
the training-pipeline ablation model (Fig. 9), the ROMS cost model
(Table I, Fig. 8), and the multi-GPU weak-scaling model (Fig. 10).
The one module here that serving executes is :mod:`repro.hpc.fabric`,
which carries the serving tier across hosts: a length-prefixed
descriptor-frame transport with a deterministic in-process fabric and
a real TCP-loopback fabric (see :mod:`repro.serve.hostpool`).  The
serving cost law lives with the pool that fits it
(:class:`repro.serve.ServingCapacityModel`).
"""

from .cluster import NodeSpec
from .fabric import (FabricError, FabricTimeout, FrameError, pack_frame,
                     sim_pair, unpack_frame)
from .memory import activation_nbytes, pipeline_memory_table, sample_nbytes
from .mpi import DecomposedShallowWater, halo_exchange_bytes
from .pipeline import PipelineParams, TrainingPipelineModel
from .roms_perf import RomsPerfModel, RomsWorkload
from .scaling import PAPER_GPU_COUNTS, ScalingModel

__all__ = [
    "NodeSpec",
    "sample_nbytes",
    "activation_nbytes",
    "pipeline_memory_table",
    "DecomposedShallowWater",
    "halo_exchange_bytes",
    "FabricError",
    "FrameError",
    "FabricTimeout",
    "pack_frame",
    "unpack_frame",
    "sim_pair",
    "PipelineParams",
    "TrainingPipelineModel",
    "RomsWorkload",
    "RomsPerfModel",
    "ScalingModel",
    "PAPER_GPU_COUNTS",
]
