"""Tests for the compute and communication cost models."""

import gc
import weakref

import pytest

from repro.comm.communicator import Communicator
from repro.errors import CommError
from repro.hardware.spec import meluxina
from repro.hardware.topology import Placement, Topology
from repro.sim import cost as cost_module
from repro.sim.cost import CollectiveAlg, CommCostModel, ComputeCostModel
from repro.sim.engine import Engine
from repro.varray import VArray


@pytest.fixture
def topo16():
    return Topology(meluxina(4), nranks=16)


@pytest.fixture
def cost16(topo16):
    return CommCostModel(topo16)


ONE_NODE = [0, 1, 2, 3]
TWO_NODES = [0, 1, 4, 5]
FOUR_NODES = [0, 4, 8, 12]


class TestComputeCostModel:
    def test_zero_work_is_launch_overhead(self, topo16):
        m = ComputeCostModel(topo16.cluster.gpu)
        assert m.op_time(0.0) == topo16.cluster.gpu.launch_overhead

    def test_rejects_negative(self, topo16):
        m = ComputeCostModel(topo16.cluster.gpu)
        with pytest.raises(Exception):
            m.op_time(-1.0)

    def test_more_flops_more_time(self, topo16):
        m = ComputeCostModel(topo16.cluster.gpu)
        assert m.op_time(1e12) < m.op_time(1e13)


class TestBroadcastCost:
    def test_size_one_group_free(self, cost16):
        assert cost16.broadcast([3], 1e6) == 0.0

    def test_zero_bytes_free(self, cost16):
        assert cost16.broadcast(ONE_NODE, 0) == 0.0

    def test_intra_cheaper_than_inter(self, cost16):
        n = 50e6
        assert cost16.broadcast(ONE_NODE, n) < cost16.broadcast(FOUR_NODES, n)

    def test_monotone_in_bytes(self, cost16):
        assert cost16.broadcast(ONE_NODE, 1e6) < cost16.broadcast(ONE_NODE, 1e8)

    def test_hierarchical_beats_flat_across_nodes(self, topo16):
        flat = CommCostModel(topo16, alg=CollectiveAlg.FLAT)
        auto = CommCostModel(topo16, alg=CollectiveAlg.AUTO)
        group = list(range(16))  # 4 nodes x 4 ranks
        n = 100e6
        assert auto.broadcast(group, n) <= flat.broadcast(group, n)


class TestAllReduceCost:
    def test_free_cases(self, cost16):
        assert cost16.all_reduce([2], 1e6) == 0.0
        assert cost16.all_reduce(ONE_NODE, 0) == 0.0

    def test_scales_with_group_span(self, cost16):
        n = 100e6
        assert cost16.all_reduce(ONE_NODE, n) < cost16.all_reduce(TWO_NODES, n)

    def test_includes_reduction_gamma(self, topo16):
        model = CommCostModel(topo16, gamma=1e-6)
        base = CommCostModel(topo16, gamma=0.0)
        n = 1e6
        assert model.all_reduce(ONE_NODE, n) == pytest.approx(
            base.all_reduce(ONE_NODE, n) + 1e-6 * n
        )

    def test_reduce_equals_broadcast_plus_gamma(self, cost16):
        n = 1e7
        assert cost16.reduce(ONE_NODE, n) == pytest.approx(
            cost16.broadcast(ONE_NODE, n) + cost16.gamma * n
        )


class TestOtherCollectives:
    def test_all_gather_free_cases(self, cost16):
        assert cost16.all_gather([1], 1e6) == 0.0
        assert cost16.all_gather(ONE_NODE, 0) == 0.0

    def test_reduce_scatter_costs_more_than_all_gather(self, cost16):
        n = 1e8
        assert cost16.reduce_scatter(ONE_NODE, n) > cost16.all_gather(ONE_NODE, n)

    def test_scatter_halves_payload_per_step(self, cost16):
        # Scatter moves less than a broadcast of the same total bytes.
        n = 1e8
        assert cost16.scatter(ONE_NODE, n) < cost16.broadcast(ONE_NODE, n)

    def test_gather_mirrors_scatter(self, cost16):
        n = 1e7
        assert cost16.gather(ONE_NODE, n) == cost16.scatter(ONE_NODE, n)

    def test_all_to_all(self, cost16):
        assert cost16.all_to_all(ONE_NODE, 1e6) > 0
        assert cost16.all_to_all([0], 1e6) == 0.0

    def test_barrier_latency_only(self, cost16):
        t = cost16.barrier(ONE_NODE)
        assert 0 < t < 1e-3
        assert cost16.barrier([2]) == 0.0

    def test_p2p(self, cost16):
        assert cost16.p2p(0, 0, 1e6) == 0.0
        assert cost16.p2p(0, 1, 1e6) < cost16.p2p(0, 4, 1e6)


class TestHierarchicalAuto:
    """AUTO decomposes *every* collective for node-spanning groups."""

    N = 100e6

    @pytest.fixture
    def flat(self, topo16):
        return CommCostModel(topo16, alg=CollectiveAlg.FLAT)

    @pytest.fixture
    def auto(self, topo16):
        return CommCostModel(topo16, alg=CollectiveAlg.AUTO)

    def test_scatter_hierarchical_beats_flat(self, flat, auto):
        assert auto.scatter(TWO_NODES, self.N) < flat.scatter(TWO_NODES, self.N)

    def test_gather_hierarchical_beats_flat(self, flat, auto):
        assert auto.gather(TWO_NODES, self.N) < flat.gather(TWO_NODES, self.N)

    def test_all_to_all_hierarchical_beats_flat(self, flat, auto):
        assert auto.all_to_all(TWO_NODES, self.N) < flat.all_to_all(
            TWO_NODES, self.N
        )

    def test_barrier_hierarchical_beats_flat(self, flat, auto):
        assert auto.barrier(TWO_NODES) < flat.barrier(TWO_NODES)

    def test_auto_matches_flat_inside_one_node(self, flat, auto):
        # A non-spanning group takes the single-level path either way.
        assert auto.scatter(ONE_NODE, self.N) == flat.scatter(ONE_NODE, self.N)
        assert auto.all_to_all(ONE_NODE, self.N) == flat.all_to_all(
            ONE_NODE, self.N
        )
        assert auto.barrier(ONE_NODE) == flat.barrier(ONE_NODE)

    def test_forced_hierarchical_matches_auto_when_spanning(self, topo16, auto):
        forced = CommCostModel(topo16, alg=CollectiveAlg.HIERARCHICAL)
        for fn in ("scatter", "gather", "all_to_all"):
            assert getattr(forced, fn)(TWO_NODES, self.N) == getattr(auto, fn)(
                TWO_NODES, self.N
            )
        assert forced.barrier(TWO_NODES) == auto.barrier(TWO_NODES)


class TestNodePlan:
    """Explicit leader placement for hierarchical collectives."""

    def test_leaders_are_lowest_group_rank_per_node(self, cost16):
        plan = cost16.node_plan([5, 1, 4, 0, 9, 8])
        assert plan.node_ranks == ((0, 1), (4, 5), (8, 9))
        assert plan.leaders == (0, 4, 8)
        assert plan.n_nodes == 3
        assert plan.max_fan == 2

    def test_plan_independent_of_rank_order(self, cost16):
        a = cost16.node_plan([0, 1, 4, 5])
        b = cost16.node_plan([5, 0, 4, 1])
        assert a.leaders == b.leaders
        assert a.node_ranks == b.node_ranks

    def test_asymmetric_group_pays_the_slowest_node(self, cost16):
        # [0,1,2,4]: node 0 hosts three members, node 1 hosts one.  The
        # intra phase must price the 3-wide node, exactly as if every
        # node were that wide (the old implicit max-per-node shortcut).
        n = 50e6
        lop = cost16.broadcast([0, 1, 2, 4], n)
        sym = cost16.broadcast([0, 1, 4, 5], n)
        assert lop > sym  # 3-deep local tree beats a 2-deep one

    def test_single_node_plan(self, cost16):
        plan = cost16.node_plan(ONE_NODE)
        assert plan.n_nodes == 1
        assert plan.leaders == (0,)
        assert plan.max_fan == 4


class TestNicContention:
    """Opt-in leader-NIC serialization on the inter-node phase."""

    N = 100e6

    @pytest.fixture
    def contended(self, topo16):
        return CommCostModel(topo16, nic_contention=0.25)

    def test_rejects_negative_factor(self, topo16):
        with pytest.raises(CommError, match="nic_contention"):
            CommCostModel(topo16, nic_contention=-0.1)

    def test_default_zero_is_bit_identical(self, topo16, cost16):
        explicit = CommCostModel(topo16, nic_contention=0.0)
        group = list(range(16))
        for fn in ("broadcast", "all_reduce", "all_gather", "scatter",
                   "all_to_all"):
            assert getattr(explicit, fn)(group, self.N) == \
                getattr(cost16, fn)(group, self.N)
        assert explicit.barrier(group) == cost16.barrier(group)

    def test_contention_slows_node_spanning_collectives(self, cost16,
                                                        contended):
        group = list(range(16))
        for fn in ("broadcast", "all_reduce", "all_gather", "scatter",
                   "all_to_all"):
            assert getattr(contended, fn)(group, self.N) > \
                getattr(cost16, fn)(group, self.N), fn

    def test_contention_ignores_single_node_groups(self, cost16, contended):
        # No inter-node phase, so no NIC to contend for.
        assert contended.all_reduce(ONE_NODE, self.N) == \
            cost16.all_reduce(ONE_NODE, self.N)

    def test_scale_follows_leader_fan(self, topo16):
        # One member per node (fan 1) -> factor 1, contention-free even
        # though the group spans nodes.
        contended = CommCostModel(topo16, nic_contention=0.25)
        base = CommCostModel(topo16)
        assert contended.all_reduce(FOUR_NODES, self.N) == \
            base.all_reduce(FOUR_NODES, self.N)
        # Full nodes (fan 4) pay 1 + 0.25*3 = 1.75x on the inter phase.
        group = list(range(16))
        assert contended.all_reduce(group, self.N) > \
            base.all_reduce(group, self.N)


class TestEffectiveBandwidth:
    def test_cost_uses_link_efficiency(self, topo16):
        # The IB link's 0.5 efficiency must show up in cross-node pricing.
        model = CommCostModel(topo16)
        link = topo16.cluster.inter_link
        t = model.p2p(0, 4, 1e9)
        assert t == pytest.approx(link.latency + 1e9 / (25e9 * 0.5))


class TestFusedSingleOpIdentity:
    """Every collective is priced through :meth:`CommCostModel.fused`, so a
    one-op sequence must price exactly as the kind's own method, whether
    the memo misses or hits, under every pricing family, with NIC
    contention on or off, and after a link fault bumps the topology
    version the memo keys on."""

    KINDS = ("broadcast", "reduce", "all_reduce", "all_gather",
             "reduce_scatter", "scatter", "gather", "all_to_all", "barrier")
    SIZES = (0, 1, 4096, 3 * 2**20 + 7, 12345.5)
    GROUPS = ((0, 1), tuple(ONE_NODE), tuple(TWO_NODES), tuple(FOUR_NODES),
              (3, 4, 5, 9, 14), tuple(range(16)))

    def _own(self, cost, kind, ranks, n):
        if kind == "barrier":
            return cost.barrier(ranks)  # a barrier carries no payload
        return getattr(cost, kind)(ranks, n)

    def _check(self, cost):
        for ranks in self.GROUPS:
            for kind in self.KINDS:
                for n in self.SIZES:
                    want = self._own(cost, kind, ranks, n)
                    for _ in range(2):  # a memo miss, then a hit
                        got = cost.fused(ranks, [(kind, n)])
                        assert got == [want], (kind, ranks, n)
                        assert got[0].hex() == float(want).hex()

    @pytest.mark.parametrize("alg", list(CollectiveAlg))
    @pytest.mark.parametrize("nic", [0.0, 0.5])
    def test_one_op_fused_equals_own_method(self, topo16, alg, nic):
        cost = CommCostModel(topo16, alg=alg, nic_contention=nic)
        self._check(cost)
        topo16.degrade_link(0, 4, 3.0)
        topo16.degrade_link(1, 2, 1.5)
        self._check(cost)


class TestSharedFusedMemo:
    """Models of one structure on healthy topologies share fused offsets."""

    WINDOWS = (
        (tuple(ONE_NODE), (("all_reduce", 4096.0),)),
        (tuple(FOUR_NODES), (("broadcast", 1e6), ("broadcast", 2e6),
                             ("all_reduce", 3e5))),
        (tuple(range(16)), (("all_gather", 12345.5), ("reduce", 8.0),
                            ("barrier", 0.0))),
        ((3, 4, 5, 9, 14), (("all_to_all", 64.0), ("scatter", 1e4))),
    )

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        """A cold process: no owner interned and no offsets stored."""
        monkeypatch.setattr(cost_module, "_PRICE_OWNERS", {})
        monkeypatch.setattr(cost_module, "_FUSED_OFFSETS", {})
        return cost_module

    def _price(self, cost):
        return [[t.hex() for t in cost.fused(ranks, list(ops))]
                for ranks, ops in self.WINDOWS]

    @pytest.mark.parametrize("alg", list(CollectiveAlg))
    @pytest.mark.parametrize("nic", [0.0, 0.5])
    def test_fresh_model_equals_cold_model(self, alg, nic, empty_memo):
        def model():
            return CommCostModel(Topology(meluxina(4), nranks=16), alg=alg,
                                 nic_contention=nic)

        cold = self._price(model())
        stored = dict(empty_memo._FUSED_OFFSETS)
        assert len(stored) == len(self.WINDOWS)
        fresh = model()
        assert self._price(fresh) == cold
        assert empty_memo._FUSED_OFFSETS == stored  # every window a hit
        assert fresh._owner == next(iter(stored))[0]

    def test_structures_do_not_share(self, empty_memo):
        topo = Topology(meluxina(4), nranks=16)
        models = [CommCostModel(topo), CommCostModel(topo, nic_contention=0.5),
                  CommCostModel(topo, alg=CollectiveAlg.FLAT),
                  CommCostModel(topo, gamma=1e-9),
                  CommCostModel(Topology(meluxina(4), nranks=13)),
                  CommCostModel(Topology(
                      meluxina(4), nranks=16,
                      placement=Placement.ROUND_ROBIN))]
        assert len({m._owner for m in models}) == len(models)
        ranks, ops = self.WINDOWS[1]
        prices = {tuple(m.fused(ranks, list(ops))) for m in models}
        assert len(prices) > 1
        assert len(empty_memo._FUSED_OFFSETS) == len(models)

    def test_degraded_link_never_touches_shared_memo(self, empty_memo):
        ranks, ops = self.WINDOWS[1]
        healthy = CommCostModel(Topology(meluxina(4), nranks=16))
        want = healthy.fused(ranks, list(ops))
        key = (healthy._owner, ranks, ops)
        poison = tuple(-1.0 for _ in ops)
        empty_memo._FUSED_OFFSETS[key] = poison
        assert CommCostModel(Topology(meluxina(4), nranks=16)).fused(
            ranks, list(ops)) == list(poison)  # the key is the shared one

        topo = Topology(meluxina(4), nranks=16)
        faulted = CommCostModel(topo)
        topo.degrade_link(0, 4, 3.0)
        got = faulted.fused(ranks, list(ops))
        assert got != list(poison) and got[-1] > want[-1]
        assert faulted.fused(ranks, list(ops)) == got  # its own memo's hit
        assert empty_memo._FUSED_OFFSETS == {key: poison}
        assert len(faulted._fused_memo) == 1

    def test_memo_holds_no_topology_engine_or_model(self, empty_memo):
        def prog(ctx):
            comm = Communicator(ctx, range(ctx.nranks))
            with comm.batch():
                comm.all_reduce(VArray.symbolic((8,)))
                comm.broadcast(VArray.symbolic((4,)), root=0)
            comm.all_reduce(VArray.symbolic((16,)))

        engine = Engine(nranks=8, mode="symbolic")
        engine.run(prog)
        refs = [weakref.ref(engine), weakref.ref(engine.comm_model),
                weakref.ref(engine.topology)]
        assert len(empty_memo._FUSED_OFFSETS) == 2

        def leaves(x):
            if isinstance(x, tuple):
                for v in x:
                    yield from leaves(v)
            else:
                yield x

        for key, offsets in empty_memo._FUSED_OFFSETS.items():
            assert {type(v) for v in leaves((key, offsets))} <= {
                int, float, str}
        for owner in empty_memo._PRICE_OWNERS:
            assert not any(isinstance(v, (Topology, CommCostModel, Engine))
                           for v in leaves(owner))
        engine.shutdown()
        del engine
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3
