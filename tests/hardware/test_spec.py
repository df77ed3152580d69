"""Tests for hardware specs and the MeluXina preset."""

import pytest

from repro.errors import GridError
from repro.hardware.spec import (
    A100_40GB,
    INFINIBAND_HDR200,
    NVLINK3,
    ClusterSpec,
    GPUSpec,
    LinkSpec,
    NodeSpec,
    meluxina,
)


class TestGPUSpec:
    def test_utilization_monotone_in_flops(self):
        u_small = A100_40GB.utilization(1e6)
        u_big = A100_40GB.utilization(1e13)
        assert u_small < u_big <= A100_40GB.max_util

    def test_utilization_narrow_penalty(self):
        wide = A100_40GB.utilization(1e12, min_dim=4096)
        narrow = A100_40GB.utilization(1e12, min_dim=48)
        assert narrow < wide

    def test_compute_time_includes_launch_overhead(self):
        assert A100_40GB.compute_time(0.0) == A100_40GB.launch_overhead

    def test_compute_time_monotone(self):
        assert A100_40GB.compute_time(1e12) < A100_40GB.compute_time(1e13)

    def test_memory_bound_op(self):
        # A pure data-movement op is bounded by HBM bandwidth.
        t = A100_40GB.compute_time(0.0, bytes_touched=1.555e12)
        assert t == pytest.approx(A100_40GB.launch_overhead + 1.0)

    def test_roofline_takes_max(self):
        t_mem = A100_40GB.compute_time(1.0, bytes_touched=1e12)
        t_flops = A100_40GB.compute_time(1e15, bytes_touched=1.0)
        both = A100_40GB.compute_time(1e15, bytes_touched=1e12)
        assert both == pytest.approx(max(t_mem, t_flops), rel=1e-6)


class TestLinkSpec:
    def test_transfer_time_alpha_beta(self):
        link = LinkSpec("t", bandwidth=1e9, latency=1e-6, efficiency=1.0)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_efficiency_reduces_bandwidth(self):
        link = LinkSpec("t", bandwidth=1e9, latency=0.0, efficiency=0.5)
        assert link.transfer_time(1e9) == pytest.approx(2.0)

    def test_nvlink_faster_than_ib(self):
        n = 100e6
        assert NVLINK3.transfer_time(n) < INFINIBAND_HDR200.transfer_time(n)


class TestClusterSpec:
    def test_meluxina_matches_paper(self):
        c = meluxina(16)
        assert c.total_gpus == 64
        assert c.node.gpus_per_node == 4
        assert c.node.intra_link.bandwidth == 200e9  # 200 GB/s NVLink
        assert c.inter_link.bandwidth == 25e9  # 200 Gbps IB

    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(GridError):
            meluxina(0)

    def test_node_rejects_nonpositive_gpus(self):
        with pytest.raises(GridError):
            NodeSpec(gpus_per_node=0, gpu=A100_40GB, intra_link=NVLINK3)

    def test_gpu_property(self):
        assert meluxina(1).gpu is A100_40GB
