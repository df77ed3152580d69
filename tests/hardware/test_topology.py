"""Tests for rank placement and topology queries."""

import pytest

from repro.errors import GridError
from repro.hardware.spec import meluxina
from repro.hardware.topology import Placement, Topology


class TestBlockPlacement:
    def test_consecutive_ranks_share_nodes(self):
        topo = Topology(meluxina(4), nranks=16)
        assert topo.node_of(0) == topo.node_of(3) == 0
        assert topo.node_of(4) == 1

    def test_same_node(self):
        topo = Topology(meluxina(2), nranks=8)
        assert topo.same_node(0, 3)
        assert not topo.same_node(3, 4)

    def test_link_selection(self):
        topo = Topology(meluxina(2), nranks=8)
        assert topo.link(0, 1).name == "NVLink3"
        assert topo.link(0, 4).name == "InfiniBand HDR200"

    def test_link_to_self_rejected(self):
        topo = Topology(meluxina(1), nranks=4)
        with pytest.raises(GridError):
            topo.link(2, 2)

    def test_nodes_spanned(self):
        topo = Topology(meluxina(4), nranks=16)
        assert topo.nodes_spanned([0, 1, 2, 3]) == 1
        assert topo.nodes_spanned([0, 4, 8, 12]) == 4

    def test_worst_link(self):
        topo = Topology(meluxina(4), nranks=16)
        assert topo.worst_link([0, 1]).name == "NVLink3"
        assert topo.worst_link([0, 5]).name == "InfiniBand HDR200"
        assert topo.worst_link([3]).name == "NVLink3"

    def test_ranks_by_node(self):
        topo = Topology(meluxina(2), nranks=8)
        assert topo.ranks_by_node([0, 4, 1, 5]) == {0: [0, 1], 1: [4, 5]}


class TestRoundRobinPlacement:
    def test_spreads_ranks(self):
        topo = Topology(meluxina(4), nranks=4, placement=Placement.ROUND_ROBIN)
        assert [topo.node_of(r) for r in range(4)] == [0, 1, 2, 3]

    def test_adversarial_for_tesseract_slices(self):
        # Under round-robin a 4-rank slice spans every node (worst case).
        topo = Topology(meluxina(4), nranks=16, placement=Placement.ROUND_ROBIN)
        assert topo.nodes_spanned([0, 1, 2, 3]) == 4

    def test_capacity_still_enforced(self):
        with pytest.raises(GridError, match="cannot place"):
            Topology(meluxina(1), nranks=5, placement=Placement.ROUND_ROBIN)

    def test_never_overfills_a_node(self):
        topo = Topology(meluxina(3), nranks=10, placement=Placement.ROUND_ROBIN)
        counts = {}
        for r in range(10):
            counts[topo.node_of(r)] = counts.get(topo.node_of(r), 0) + 1
        assert max(counts.values()) <= 4


class TestValidation:
    def test_too_many_ranks(self):
        with pytest.raises(GridError, match="cannot place"):
            Topology(meluxina(1), nranks=5)

    def test_zero_ranks(self):
        with pytest.raises(GridError):
            Topology(meluxina(1), nranks=0)

    def test_rank_out_of_range(self):
        topo = Topology(meluxina(1), nranks=4)
        with pytest.raises(GridError):
            topo.node_of(4)


#: MeluXina hop latencies: NVLink3 GPU <-> node switch, InfiniBand HDR200
#: node switch <-> fabric, added in path order
SAME_NODE = 2e-6 + 2e-6
CROSS_NODE = 2e-6 + 5e-6 + 5e-6 + 2e-6


class TestGraphAnalysis:
    def test_path_latency_intra_vs_inter(self):
        topo = Topology(meluxina(2), nranks=8)
        intra = topo.path_latency(0, 1)
        inter = topo.path_latency(0, 4)
        assert inter > intra > 0
        assert topo.path_latency(3, 3) == 0.0

    @pytest.mark.parametrize("nodes, placement, node_of", [
        (1, Placement.BLOCK, [0, 0, 0, 0]),
        (1, Placement.ROUND_ROBIN, [0, 0, 0, 0]),
        (2, Placement.BLOCK, [0, 0, 0, 0, 1, 1, 1, 1]),
        (2, Placement.ROUND_ROBIN, [0, 1, 0, 1, 0, 1, 0, 1]),
        (4, Placement.BLOCK,
         [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]),
        (4, Placement.ROUND_ROBIN,
         [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]),
    ])
    def test_path_latency_every_pair(self, nodes, placement, node_of):
        topo = Topology(meluxina(nodes), placement=placement)
        n = len(node_of)
        got = [[topo.path_latency(a, b) for b in range(n)] for a in range(n)]
        want = [[0.0 if a == b
                 else SAME_NODE if node_of[a] == node_of[b]
                 else CROSS_NODE
                 for b in range(n)] for a in range(n)]
        assert got == want

    @pytest.mark.parametrize("a, b", [(8, 8), (0, 8), (8, 0), (-1, 0),
                                      (-1, -1)])
    def test_path_latency_rejects_unknown_ranks(self, a, b):
        topo = Topology(meluxina(2), nranks=8)
        with pytest.raises(GridError, match="out of range"):
            topo.path_latency(a, b)

    def test_describe_mentions_cluster(self):
        topo = Topology(meluxina(2), nranks=8)
        assert "meluxina" in topo.describe()
