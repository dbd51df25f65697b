"""Multi-GPU data-parallel weak scaling (paper Fig. 10).

Data-parallel training replicates the surrogate on every GPU and
allreduces gradients each iteration.  Weak scaling keeps the per-GPU
batch fixed (1 without activation checkpointing, 2 with), so ideal
throughput grows linearly with GPU count; the deviation comes from the
ring-allreduce term, which crosses from NVLink (intra-node, ≤8 GPUs on
a DGX node) to InfiniBand (multi-node, 16/32 GPUs) exactly as in the
paper's 1/2/4/8 vs 16/32 GPU experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .cluster import ClusterSpec, DGX_A100_CLUSTER
from .pipeline import PipelineConfig, PipelineParams, TrainingPipelineModel

PAPER_GPU_COUNTS = (1, 2, 4, 8, 16, 32)


def ring_allreduce_seconds(nbytes: int, n_workers: int, bandwidth: float,
                           latency: float) -> float:
    """Ring allreduce cost: 2·(n−1)/n chunks over the slowest link."""
    if n_workers <= 1:
        return 0.0
    steps = 2 * (n_workers - 1)
    chunk = nbytes / n_workers
    return steps * (chunk / bandwidth + latency)


@dataclass
class ScalingModel:
    """Weak-scaling throughput of surrogate training.

    Parameters
    ----------
    pipeline: single-GPU pipeline model (compute + staging terms).
    cluster: interconnect topology.
    grad_bytes: gradient payload per allreduce (fp32 parameter count ×4;
        the paper's 3.39 M parameters by default).
    """

    pipeline: TrainingPipelineModel = field(
        default_factory=lambda: TrainingPipelineModel(PipelineParams()))
    cluster: ClusterSpec = field(default_factory=lambda: DGX_A100_CLUSTER)
    grad_bytes: int = 3_390_000 * 4       # paper: 3.39 M parameters

    # ------------------------------------------------------------------
    def allreduce_seconds(self, n_gpus: int) -> float:
        """Gradient allreduce across ``n_gpus`` (NVLink within a node,
        hierarchical over InfiniBand across nodes)."""
        node = self.cluster.node
        nodes, per_node = self.cluster.gpus(n_gpus)
        intra = ring_allreduce_seconds(
            self.grad_bytes, per_node, node.nvlink_bandwidth,
            node.nvlink_latency)
        if nodes == 1:
            return intra
        inter = ring_allreduce_seconds(
            self.grad_bytes, nodes, self.cluster.inter_node_bandwidth,
            self.cluster.ib_latency)
        # hierarchical: reduce within node, ring across nodes, broadcast
        return intra + inter + intra

    def iteration_seconds(self, n_gpus: int,
                          checkpointing: bool = True) -> float:
        config = PipelineConfig(
            name="scaling", activation_checkpointing=checkpointing)
        return self.pipeline.iteration_seconds(config) \
            + self.allreduce_seconds(n_gpus)

    def throughput(self, n_gpus: int, checkpointing: bool = True) -> float:
        """Global training throughput (instances/s, Fig. 10 metric)."""
        batch = 2 if checkpointing else 1
        return n_gpus * batch / self.iteration_seconds(n_gpus, checkpointing)

    def figure10(self) -> List[Dict[str, float]]:
        """Both Fig. 10 curves at the paper's GPU counts."""
        return [
            {
                "gpus": n,
                "with_ckpt": self.throughput(n, True),
                "without_ckpt": self.throughput(n, False),
                "allreduce_ms": self.allreduce_seconds(n) * 1e3,
            }
            for n in PAPER_GPU_COUNTS
        ]
