"""Hardware platform specifications (paper §IV-A and Table II).

The paper's platform is an HPC cluster of NVIDIA DGX nodes: 8× A100
(80 GB HBM2e at ~2 TB/s) per node, 2× AMD EPYC 7742, NVLink intra-node,
10× HDR InfiniBand inter-node, and local NVMe SSD measured at 750 MB/s
for training-sample reads.  These constants parameterise every
performance model in :mod:`repro.hpc`; all are published figures from
the paper (Table II) or vendor datasheets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

GB = 1024 ** 3
TB = 1024 ** 4


@dataclass(frozen=True)
class GpuSpec:
    """One accelerator."""

    name: str = "A100-80GB"
    memory_bytes: int = 80 * GB
    hbm_bandwidth: float = 2.0e12            # 2 TB/s (paper Table II)
    fp16_tflops: float = 312.0               # A100 dense FP16 tensor core
    fp32_tflops: float = 19.5


@dataclass(frozen=True)
class NodeSpec:
    """One DGX node."""

    gpus_per_node: int = 8
    gpu: GpuSpec = field(default_factory=GpuSpec)
    cpu_cores: int = 128                     # 2× EPYC 7742
    cpu_memory_bytes: int = 2010 * GB
    ssd_read_bandwidth: float = 750e6        # 750 MB/s (paper Table II)
    ram_bandwidth: float = 200e9             # DDR4-8ch ballpark
    pcie_h2d_pinned: float = 25e9            # pinned pages, PCIe gen4 x16
    pcie_h2d_pageable: float = 6.5e9         # extra staging copy + sync
    nvlink_bandwidth: float = 300e9          # per-GPU aggregate NVLink
    nvlink_latency: float = 2e-6


@dataclass(frozen=True)
class ClusterSpec:
    """Multi-node cluster with InfiniBand interconnect."""

    n_nodes: int = 140                       # paper: 140 DGX-2 nodes
    node: NodeSpec = field(default_factory=NodeSpec)
    ib_bandwidth: float = 25e9               # one HDR200 link per direction
    ib_links_per_node: int = 10              # paper: 10× HDR
    ib_latency: float = 5e-6

    def gpus(self, n: int) -> Tuple[int, int]:
        """(nodes used, gpus per node used) for an n-GPU job, packing
        nodes first like the paper's 1/2/4/8 on one node, 16/32 on 2/4."""
        per = self.node.gpus_per_node
        if n <= per:
            return 1, n
        if n % per:
            raise ValueError(f"{n} GPUs does not pack into {per}-GPU nodes")
        return n // per, per

    @property
    def inter_node_bandwidth(self) -> float:
        return self.ib_bandwidth * self.ib_links_per_node


#: The paper's evaluation platform.
DGX_A100_CLUSTER = ClusterSpec()
