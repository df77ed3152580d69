"""Immutable hardware specifications and the MeluXina preset.

Units are SI throughout: bytes, bytes/second, seconds, flops/second.

The compute-time model attached to :class:`GPUSpec` is a simple roofline
with a saturating utilization curve,

    t(op) = launch_overhead + max( flops / (peak * util(flops)),
                                   bytes / mem_bandwidth )
    util(flops) = max_util * flops / (flops + half_util_flops)

which captures the two effects the paper's strong-scaling results hinge on:
small per-GPU matrices run at low efficiency (so the [8,8,1] arrangement
with tiny blocks loses to [4,4,4]) and tiny kernels are dominated by launch
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GridError

__all__ = [
    "GPUSpec",
    "LinkSpec",
    "NodeSpec",
    "ClusterSpec",
    "A100_40GB",
    "V100_32GB",
    "H100_80GB",
    "NVLINK3",
    "INFINIBAND_HDR200",
    "INFINIBAND_HDR100",
    "PCIE4",
    "meluxina",
    "custom_cluster",
]


@dataclass(frozen=True)
class GPUSpec:
    """A GPU compute device.

    Attributes
    ----------
    name:
        Marketing name, used only in reports.
    peak_flops:
        Peak sustained matmul throughput in flop/s (we model the precision
        the paper trains at; A100 TF32 tensor-core peak is 156 Tflop/s).
    mem_bandwidth:
        HBM bandwidth in bytes/s, bounding memory-bound (elementwise) ops.
    memory_bytes:
        Device memory capacity; the simulator's memory tracker checks
        allocations against this.
    launch_overhead:
        Fixed per-kernel cost in seconds (CUDA launch + scheduling).
    max_util:
        Asymptotic fraction of peak achieved by very large matmuls.
    half_util_flops:
        Flop count at which utilization reaches half of ``max_util``;
        controls how quickly small matrices fall off the roofline.
    """

    name: str
    peak_flops: float
    mem_bandwidth: float
    memory_bytes: float
    launch_overhead: float = 8e-6
    max_util: float = 0.7
    half_util_flops: float = 5e9
    narrow_half_dim: float = 96.0

    def utilization(self, flops: float, min_dim: float | None = None) -> float:
        """Saturating utilization for an op of the given flop count.

        ``min_dim`` — the smallest matmul dimension — models tile
        quantization: a GEMM with a 48-wide operand cannot fill the tensor
        cores regardless of its total flop count (this is what ruins
        Megatron-LM's per-rank efficiency at p=64, where h/p = 48).
        """
        if flops <= 0:
            return self.max_util
        util = self.max_util * flops / (flops + self.half_util_flops)
        if min_dim is not None and min_dim > 0:
            util *= min_dim / (min_dim + self.narrow_half_dim)
        return util

    def compute_time(
        self, flops: float, bytes_touched: float = 0.0,
        min_dim: float | None = None,
    ) -> float:
        """Roofline time for one kernel: launch + max(compute, memory)."""
        t_compute = 0.0
        if flops > 0:
            t_compute = flops / (self.peak_flops * self.utilization(flops, min_dim))
        t_memory = bytes_touched / self.mem_bandwidth if bytes_touched > 0 else 0.0
        return self.launch_overhead + max(t_compute, t_memory)


@dataclass(frozen=True)
class LinkSpec:
    """A communication link between two devices.

    ``bandwidth`` is the line rate in bytes/s (unidirectional per peer
    pair), ``latency`` the fixed per-message cost in seconds (the alpha of
    the alpha-beta model), and ``efficiency`` the fraction of line rate a
    collective actually sustains (NCCL achieves roughly 80% on NVLink and
    about half of line rate across InfiniBand fabrics at scale).
    """

    name: str
    bandwidth: float
    latency: float
    efficiency: float = 1.0

    @property
    def effective_bandwidth(self) -> float:
        """The bandwidth collectives actually see: line rate * efficiency."""
        return self.bandwidth * self.efficiency

    def transfer_time(self, nbytes: float) -> float:
        """Alpha-beta time to move ``nbytes`` across this link."""
        return self.latency + nbytes / self.effective_bandwidth


@dataclass(frozen=True)
class NodeSpec:
    """A server: ``gpus_per_node`` GPUs joined by ``intra_link``."""

    gpus_per_node: int
    gpu: GPUSpec
    intra_link: LinkSpec

    def __post_init__(self) -> None:
        if self.gpus_per_node <= 0:
            raise GridError(f"gpus_per_node must be positive, got {self.gpus_per_node}")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: ``num_nodes`` copies of ``node`` over ``inter_link``."""

    num_nodes: int
    node: NodeSpec
    inter_link: LinkSpec
    name: str = "cluster"

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise GridError(f"num_nodes must be positive, got {self.num_nodes}")

    @property
    def total_gpus(self) -> int:
        """Total GPU count across all nodes."""
        return self.num_nodes * self.node.gpus_per_node

    @property
    def gpu(self) -> GPUSpec:
        """The (homogeneous) GPU spec of every device in the cluster."""
        return self.node.gpu

    def topology(self, nranks: int | None = None, placement=None):
        """A :class:`~repro.hardware.topology.Topology` over this cluster.

        Convenience for the planner and other what-if consumers; imports
        lazily because :mod:`repro.hardware.topology` imports this module.
        ``placement`` defaults to BLOCK, the paper's arrangement rule.
        """
        from repro.hardware.topology import Placement, Topology

        return Topology(
            self, nranks=nranks,
            placement=Placement.BLOCK if placement is None else placement,
        )


# --- Presets -----------------------------------------------------------------

#: NVIDIA A100-40GB, modeled at TF32 tensor-core throughput.
A100_40GB = GPUSpec(
    name="NVIDIA A100 40GB",
    peak_flops=156e12,
    mem_bandwidth=1.555e12,
    memory_bytes=40e9,
)

#: NVLink 3 as deployed on MeluXina A100 nodes: 200 GB/s per GPU pair.
NVLINK3 = LinkSpec(name="NVLink3", bandwidth=200e9, latency=2e-6, efficiency=0.8)

#: InfiniBand HDR200: 200 Gbit/s == 25 GB/s line rate, higher latency than
#: NVLink; cross-node collectives sustain about half of line rate.
INFINIBAND_HDR200 = LinkSpec(
    name="InfiniBand HDR200", bandwidth=25e9, latency=5e-6, efficiency=0.5
)

#: PCIe 4.0 x16, provided for placement ablations.
PCIE4 = LinkSpec(name="PCIe 4.0 x16", bandwidth=32e9, latency=3e-6, efficiency=0.7)

#: InfiniBand HDR100 (100 Gbit/s), for interconnect-sensitivity ablations.
INFINIBAND_HDR100 = LinkSpec(
    name="InfiniBand HDR100", bandwidth=12.5e9, latency=5e-6, efficiency=0.5
)

#: NVIDIA V100-32GB (fp32-era tensor cores), for hardware-sensitivity studies.
V100_32GB = GPUSpec(
    name="NVIDIA V100 32GB",
    peak_flops=112e12,
    mem_bandwidth=0.9e12,
    memory_bytes=32e9,
)

#: NVIDIA H100-80GB (TF32 tensor-core peak), for forward-looking studies.
H100_80GB = GPUSpec(
    name="NVIDIA H100 80GB",
    peak_flops=495e12,
    mem_bandwidth=3.35e12,
    memory_bytes=80e9,
)


def meluxina(num_nodes: int) -> ClusterSpec:
    """The paper's testbed: ``num_nodes`` nodes of 4 A100s, NVLink + IB.

    §4 of the paper: "200 GPU nodes with 4 NVIDIA A-100 GPUs per node ...
    NVLink with a speed of 200 GB/s is used for communication within each
    node, and Infiniband with a speed of 200 Gbps is used for communication
    between nodes."
    """
    return ClusterSpec(
        num_nodes=num_nodes,
        node=NodeSpec(gpus_per_node=4, gpu=A100_40GB, intra_link=NVLINK3),
        inter_link=INFINIBAND_HDR200,
        name=f"meluxina-{num_nodes}n",
    )


def custom_cluster(
    num_nodes: int,
    gpus_per_node: int = 4,
    gpu: GPUSpec = A100_40GB,
    intra_link: LinkSpec = NVLINK3,
    inter_link: LinkSpec = INFINIBAND_HDR200,
    name: str = "custom",
) -> ClusterSpec:
    """Assemble an arbitrary homogeneous cluster for sensitivity studies."""
    return ClusterSpec(
        num_nodes=num_nodes,
        node=NodeSpec(gpus_per_node=gpus_per_node, gpu=gpu,
                      intra_link=intra_link),
        inter_link=inter_link,
        name=name,
    )
