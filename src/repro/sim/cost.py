"""Compute and communication cost models.

Compute
-------
:class:`ComputeCostModel` delegates to the GPU spec's roofline
(:meth:`repro.hardware.spec.GPUSpec.compute_time`): launch overhead plus the
max of the compute-bound and memory-bound times, with a saturating
utilization curve so small matrices run far below peak.

Communication
-------------
:class:`CommCostModel` prices every collective with the standard alpha-beta
algorithm models (Thakur et al. / NCCL), specialized by how the group maps
onto the node topology:

========================  ==========================================================
collective                model
========================  ==========================================================
point-to-point            ``alpha + n/B``
broadcast / reduce        binomial tree: ``ceil(log2 g) * (alpha + n/B)``
all_reduce                ring: ``2(g-1) alpha + 2 n (g-1)/g / B``
all_gather/reduce_scatter ring: ``(g-1) alpha + n (g-1)/g / B`` (n = full size)
scatter / gather          binomial tree on halved payloads: ``log2 g`` steps,
                          each moving half the remaining data
all_to_all                pairwise: ``(g-1) (alpha + n_pair/B)``
barrier                   tree of empty messages
========================  ==========================================================

When a group spans several nodes the *hierarchical* variant decomposes the
collective into an intra-node phase on NVLink and an inter-node phase on
InfiniBand across one leader per node (this is how NCCL behaves and what
makes the paper's "q^2 a multiple of 4" placement matter).  Leader
placement is *explicit*: :meth:`CommCostModel.node_plan` elects the
lowest group rank on each node (deterministic, matching NCCL's root
convention), the intra-node phase is priced per node and the group pays
the *slowest* node, and the inter-node phase runs over exactly the
elected leaders.  For symmetric groups — every node hosting the same
number of members, which all paper configurations are — this prices
bit-identically to the older implicit max-ranks-per-node shortcut.
Under :attr:`CollectiveAlg.AUTO` *every* collective — including scatter,
gather, all_to_all and barrier — uses this decomposition for
node-spanning groups; :attr:`CollectiveAlg.FLAT` forces the single-level
model on the group's bottleneck link.  A fixed per-byte reduction cost
``gamma`` is charged for reducing collectives.

Because each node funnels its whole inter-node share through the one NIC
its leader sits on, an optional ``nic_contention`` factor models the
leader-NIC serialization: the inter-node phase is scaled by
``1 + nic_contention * (fan - 1)`` where ``fan`` is the member count of
the busiest node (the leader aggregates/feeds that many local ranks).
The default of ``0.0`` keeps every pinned golden value exact.

Injected link faults (:class:`~repro.sim.faults.LinkFault`) degrade the
affected pair's p2p transfers directly and multiply the *transport* term of
any collective whose group contains both endpoints by the worst pairwise
factor (a ring or tree is gated by its slowest constituent link); the local
reduction term ``gamma`` is unaffected.

Fused sequences (a batch window queuing several collectives on one group,
see :meth:`repro.comm.communicator.Communicator.batch`) are priced by
:meth:`CommCostModel.fused`: consecutive same-kind ops coalesce into one
collective on their summed payload, so a bucketed gradient sync pays the
latency terms once instead of once per tensor.  Their offsets are a pure
function of the model's structure and the (group, op sequence), so a model
on a healthy topology shares them with every other model of the same
structure in the process: a sweep that builds an engine per row prices each
window once, not once per row.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

from repro.errors import CommError
from repro.hardware.spec import GPUSpec, LinkSpec
from repro.hardware.topology import Topology

__all__ = ["ComputeCostModel", "CommCostModel", "CollectiveAlg", "NodePlan"]


class CollectiveAlg(enum.Enum):
    """Collective algorithm family used to price a collective."""

    AUTO = "auto"  #: hierarchical across nodes, flat/ring inside a node
    FLAT = "flat"  #: single-level model on the group's bottleneck link
    HIERARCHICAL = "hierarchical"  #: explicit intra + inter decomposition


@dataclass(frozen=True)
class NodePlan:
    """Explicit hierarchical decomposition of one group onto nodes.

    ``node_ranks`` lists each participating node's member ranks (sorted
    ascending, nodes ordered by their leader's rank) and ``leaders`` is
    the elected leader of each node — always its lowest group rank, so
    the plan is a pure function of the group *set* and the placement,
    independent of the order ranks were passed in.
    """

    node_ranks: tuple[tuple[int, ...], ...]
    leaders: tuple[int, ...]
    intra: LinkSpec
    inter: LinkSpec

    @property
    def n_nodes(self) -> int:
        return len(self.node_ranks)

    @property
    def max_fan(self) -> int:
        """Member count of the busiest node (its leader's local fan-out)."""
        return max(len(v) for v in self.node_ranks)


@dataclass(frozen=True)
class ComputeCostModel:
    """Prices local device work for one GPU spec.

    A sweep prices millions of kernels of a few thousand distinct sizes, and
    the roofline is a pure function of the frozen :class:`GPUSpec`, so
    :meth:`op_time` keeps every price it has computed in :attr:`op_times`:
    a hit returns the very float the roofline returned, bit for bit.
    """

    gpu: GPUSpec
    #: ``(flops, bytes_touched, min_dim) -> seconds``.  Insert-only (an entry
    #: never changes, so rank threads may read it unlocked) and it stops
    #: growing at :attr:`MAX_OP_TIMES`.  Only valid work is ever stored;
    #: :meth:`repro.sim.engine.RankContext.compute` reads it before calling
    #: :meth:`op_time`.
    op_times: dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: table bound: the serving sweeps see 1.4-2.6k distinct kernels per run,
    #: Table 1 under 200; past the bound prices are computed, not stored
    MAX_OP_TIMES: ClassVar[int] = 1 << 14

    def op_time(
        self, flops: float, bytes_touched: float = 0.0,
        min_dim: float | None = None,
    ) -> float:
        """Time of a single kernel (see :class:`GPUSpec`)."""
        key = (flops, bytes_touched, min_dim)
        t = self.op_times.get(key)
        if t is None:
            if flops < 0 or bytes_touched < 0:
                raise CommError("negative work is not a thing")
            t = self.gpu.compute_time(flops, bytes_touched, min_dim)
            if len(self.op_times) < self.MAX_OP_TIMES:
                self.op_times[key] = t
        return t


#: structural owner of healthy-topology prices -> its id (see
#: :class:`CommCostModel`)
_PRICE_OWNERS: dict[tuple, int] = {}
_PRICE_OWNER_IDS = itertools.count()
#: ``(owner id, group, op sequence) -> offsets`` of :meth:`CommCostModel.fused`
#: for every model on a healthy topology.  Holds ints, strings and floats
#: only: no topology, engine or model.
_FUSED_OFFSETS: dict[tuple, tuple[float, ...]] = {}
#: bound of both tables: plenty for any sweep's window mix; past it
#: offsets are computed, not stored, and a new owner is never shared
MAX_FUSED_OFFSETS = 4096


def _log2_steps(g: int) -> int:
    """Number of binomial-tree steps for a group of size g."""
    return max(0, math.ceil(math.log2(g))) if g > 1 else 0


class CommCostModel:
    """Prices collectives for a topology.

    Parameters
    ----------
    topology:
        Rank placement and link speeds.
    alg:
        Force a pricing family; :attr:`CollectiveAlg.AUTO` picks the
        hierarchical model whenever the group spans nodes.
    gamma:
        Per-byte local reduction cost (seconds/byte) charged once per
        reducing collective; defaults to 1 byte / HBM bandwidth.
    nic_contention:
        Leader-NIC serialization factor.  Each node's inter-node share
        funnels through its leader's single NIC; the inter-node phase is
        scaled by ``1 + nic_contention * (max_fan - 1)``.  ``0.0``
        (default) disables the term and reproduces the pinned goldens.
    """

    def __init__(
        self,
        topology: Topology,
        alg: CollectiveAlg = CollectiveAlg.AUTO,
        gamma: float | None = None,
        nic_contention: float = 0.0,
    ):
        if nic_contention < 0:
            raise CommError(
                f"nic_contention must be >= 0, got {nic_contention}"
            )
        self.topology = topology
        self.alg = alg
        self.gamma = (
            gamma if gamma is not None else 1.0 / topology.cluster.gpu.mem_bandwidth
        )
        self.nic_contention = nic_contention
        #: id of this model's pricing structure: equal ids price every
        #: (group, op sequence) alike while their topologies are healthy
        owner = (topology.cluster, topology.placement, topology.nranks,
                 alg, self.gamma, nic_contention)
        self._owner = _PRICE_OWNERS.get(owner)
        if self._owner is None:
            self._owner = next(_PRICE_OWNER_IDS)
            if len(_PRICE_OWNERS) < MAX_FUSED_OFFSETS:
                _PRICE_OWNERS[owner] = self._owner
        #: :meth:`fused` offsets once a link fault degraded the topology
        #: (its version is above 0): its prices are this model's own, keyed
        #: on the version so a later degradation invalidates them
        self._fused_memo: dict[Any, tuple[float, ...]] = {}

    # --- helpers --------------------------------------------------------------

    def node_plan(self, ranks: Sequence[int]) -> NodePlan:
        """Elect one leader per node and expose the explicit decomposition.

        Leaders are the lowest group rank on each node — deterministic
        and independent of the order ``ranks`` was passed in.
        """
        by_node = self.topology.ranks_by_node(ranks)
        node_ranks = tuple(sorted(
            (tuple(sorted(v)) for v in by_node.values()),
            key=lambda v: v[0],
        ))
        return NodePlan(
            node_ranks=node_ranks,
            leaders=tuple(v[0] for v in node_ranks),
            intra=self.topology.cluster.node.intra_link,
            inter=self.topology.cluster.inter_link,
        )

    def _nic_scale(self, plan: NodePlan) -> float:
        """Inter-phase multiplier for leader-NIC serialization."""
        if self.nic_contention == 0.0:
            return 1.0
        return 1.0 + self.nic_contention * (plan.max_fan - 1)

    def _use_hierarchical(self, ranks: Sequence[int]) -> bool:
        if self.alg is CollectiveAlg.FLAT:
            return False
        if self.alg is CollectiveAlg.HIERARCHICAL:
            return True
        return self.topology.spans_nodes(ranks)

    @staticmethod
    def _tree(g: int, nbytes: float, link: LinkSpec) -> float:
        """Binomial-tree broadcast/reduce over a single link class."""
        steps = _log2_steps(g)
        return steps * (link.latency + nbytes / link.effective_bandwidth)

    @staticmethod
    def _ring_allreduce(g: int, nbytes: float, link: LinkSpec) -> float:
        if g <= 1:
            return 0.0
        return 2 * (g - 1) * link.latency + 2 * nbytes * (g - 1) / g / link.effective_bandwidth

    @staticmethod
    def _ring_allgather(g: int, nbytes_total: float, link: LinkSpec) -> float:
        if g <= 1:
            return 0.0
        return (g - 1) * link.latency + nbytes_total * (g - 1) / g / link.effective_bandwidth

    @staticmethod
    def _binomial_scatter(g: int, nbytes_total: float, link: LinkSpec) -> float:
        """Binomial scatter/gather: each step moves half the remaining data."""
        t = 0.0
        remaining = nbytes_total
        for _ in range(_log2_steps(g)):
            remaining /= 2.0
            t += link.latency + remaining / link.effective_bandwidth
        return t

    # --- public collective prices ---------------------------------------------

    def p2p(self, src: int, dst: int, nbytes: float) -> float:
        """Point-to-point message time.

        Scaled by the topology's per-pair link degradation (injected
        :class:`~repro.sim.faults.LinkFault`; 1.0 on a healthy cluster).
        """
        if src == dst:
            return 0.0
        t = self.topology.link(src, dst).transfer_time(nbytes)
        return t * self.topology.link_scale(src, dst)

    def broadcast(self, ranks: Sequence[int], nbytes: float) -> float:
        """Broadcast ``nbytes`` from one rank to the rest of the group."""
        g = len(ranks)
        if g <= 1 or nbytes == 0:
            return 0.0
        scale = self.topology.group_scale(ranks)
        if not self._use_hierarchical(ranks):
            link = self.topology.worst_link(ranks)
            return self._tree(g, nbytes, link) * scale
        plan = self.node_plan(ranks)
        # Root sends across nodes to the elected leaders, leaders fan out
        # locally; the group pays the slowest node's local phase.
        intra_t = max(self._tree(len(nr), nbytes, plan.intra)
                      for nr in plan.node_ranks)
        return (self._tree(plan.n_nodes, nbytes, plan.inter)
                * self._nic_scale(plan) + intra_t) * scale

    def reduce(self, ranks: Sequence[int], nbytes: float) -> float:
        """Reduce to one rank: mirror of broadcast plus reduction gamma."""
        g = len(ranks)
        if g <= 1 or nbytes == 0:
            return 0.0
        return self.broadcast(ranks, nbytes) + self.gamma * nbytes

    def all_reduce(self, ranks: Sequence[int], nbytes: float) -> float:
        """All-reduce of an ``nbytes`` buffer over the group."""
        g = len(ranks)
        if g <= 1 or nbytes == 0:
            return 0.0
        scale = self.topology.group_scale(ranks)
        if not self._use_hierarchical(ranks):
            link = self.topology.worst_link(ranks)
            return (self._ring_allreduce(g, nbytes, link) * scale
                    + self.gamma * nbytes)
        plan = self.node_plan(ranks)
        # reduce locally to each leader -> ring all-reduce across the
        # leaders -> local bcast; each local phase pays the slowest node.
        intra_t = max(self._tree(len(nr), nbytes, plan.intra)
                      for nr in plan.node_ranks)
        t = intra_t
        t += (self._ring_allreduce(plan.n_nodes, nbytes, plan.inter)
              * self._nic_scale(plan))
        t += intra_t
        return t * scale + self.gamma * nbytes

    def all_gather(self, ranks: Sequence[int], nbytes_total: float) -> float:
        """All-gather where the *concatenated* result is ``nbytes_total``."""
        g = len(ranks)
        if g <= 1 or nbytes_total == 0:
            return 0.0
        scale = self.topology.group_scale(ranks)
        if not self._use_hierarchical(ranks):
            link = self.topology.worst_link(ranks)
            return self._ring_allgather(g, nbytes_total, link) * scale
        plan = self.node_plan(ranks)
        per_node_share = nbytes_total / plan.n_nodes
        t = max(self._ring_allgather(len(nr), per_node_share, plan.intra)
                for nr in plan.node_ranks)
        t += (self._ring_allgather(plan.n_nodes, nbytes_total, plan.inter)
              * self._nic_scale(plan))
        return t * scale

    def reduce_scatter(self, ranks: Sequence[int], nbytes_total: float) -> float:
        """Reduce-scatter of a buffer whose full size is ``nbytes_total``."""
        g = len(ranks)
        if g <= 1 or nbytes_total == 0:
            return 0.0
        return self.all_gather(ranks, nbytes_total) + self.gamma * nbytes_total / g

    def scatter(self, ranks: Sequence[int], nbytes_total: float) -> float:
        """Scatter from the root; total payload leaving the root counts."""
        g = len(ranks)
        if g <= 1 or nbytes_total == 0:
            return 0.0
        scale = self.topology.group_scale(ranks)
        if not self._use_hierarchical(ranks):
            link = self.topology.worst_link(ranks)
            return self._binomial_scatter(g, nbytes_total, link) * scale
        plan = self.node_plan(ranks)
        # Scatter node-sized slabs to the elected leaders over IB, then
        # each leader scatters its slab locally over NVLink.
        t = (self._binomial_scatter(plan.n_nodes, nbytes_total, plan.inter)
             * self._nic_scale(plan))
        per_node_share = nbytes_total / plan.n_nodes
        t += max(self._binomial_scatter(len(nr), per_node_share, plan.intra)
                 for nr in plan.node_ranks)
        return t * scale

    def gather(self, ranks: Sequence[int], nbytes_total: float) -> float:
        """Gather to the root (mirror of scatter)."""
        return self.scatter(ranks, nbytes_total)

    def all_to_all(self, ranks: Sequence[int], nbytes_per_pair: float) -> float:
        """Pairwise-exchange all-to-all."""
        g = len(ranks)
        if g <= 1 or nbytes_per_pair == 0:
            return 0.0
        scale = self.topology.group_scale(ranks)
        if not self._use_hierarchical(ranks):
            link = self.topology.worst_link(ranks)
            return (g - 1) * (link.latency
                              + nbytes_per_pair / link.effective_bandwidth) * scale
        plan = self.node_plan(ranks)
        # Split the g-1 pairwise exchange steps by where the peer lives:
        # same-node partners ride NVLink, the rest cross InfiniBand (and
        # funnel through the node NIC).
        intra_steps = plan.max_fan - 1
        inter_steps = g - plan.max_fan
        intra, inter = plan.intra, plan.inter
        t = intra_steps * (intra.latency + nbytes_per_pair / intra.effective_bandwidth)
        t += (inter_steps
              * (inter.latency + nbytes_per_pair / inter.effective_bandwidth)
              * self._nic_scale(plan))
        return t * scale

    def fused(self, ranks: Sequence[int], ops: Sequence[tuple[str, float]]) -> list[float]:
        """Per-op completion offsets for a fused same-group sequence.

        ``ops`` is a list of ``(base_kind, nbytes)`` pairs in issue order,
        where ``nbytes`` follows the same convention as the per-kind
        pricing method (buffer bytes for ``all_reduce``, concatenated
        total for ``all_gather``/``reduce_scatter``, …).  Consecutive ops
        of the same kind coalesce into *one* collective on their summed
        payload — NCCL-style bucketing: the run pays a single set of
        latency (alpha) terms instead of one per op, which is exactly the
        saving a batch window models.  Ops inside one coalesced run share
        a completion offset (one fused kernel); offsets accumulate across
        runs of different kinds.

        A single-op sequence prices identically to the op's own method,
        so the unbatched path and a one-op window agree to the bit.

        Results are memoized: regular sweeps issue the same window on the
        same group for every layer of every round and every row, and the
        priced offsets are identical floats each time.  On a healthy
        topology the memo is the process-wide one, keyed on the model's
        structure (cluster, placement, rank count, algorithm, ``gamma``,
        ``nic_contention``); a degraded one keeps its own, keyed on the
        topology version.  A lone collective does not come here
        on every call: the communicator's op spec keeps the offsets this
        returns per payload size and topology version (see
        :class:`~repro.comm.communicator.Communicator`), so the memo key
        is built once per group, kind and size.
        """
        if self.topology.version:  # a link fault degraded it: own prices
            memo, owner = self._fused_memo, self.topology.version
        else:
            memo, owner = _FUSED_OFFSETS, self._owner
        memo_key = (owner, tuple(ranks), tuple(ops))
        cached = memo.get(memo_key)
        if cached is not None:
            return list(cached)
        dispatch = {
            "all_reduce": self.all_reduce,
            "broadcast": self.broadcast,
            "reduce": self.reduce,
            "all_gather": self.all_gather,
            "reduce_scatter": self.reduce_scatter,
            "scatter": self.scatter,
            "gather": self.gather,
            "all_to_all": self.all_to_all,
            "barrier": lambda rk, _n: self.barrier(rk),
        }
        offsets: list[float] = []
        t = 0.0
        i = 0
        while i < len(ops):
            kind = ops[i][0]
            price = dispatch.get(kind)
            if price is None:
                raise CommError(f"cannot price fused collective kind {kind!r}")
            j = i
            total = 0.0
            while j < len(ops) and ops[j][0] == kind:
                total += ops[j][1]
                j += 1
            t += price(ranks, total)
            offsets.extend([t] * (j - i))
            i = j
        if len(memo) < MAX_FUSED_OFFSETS:
            memo[memo_key] = tuple(offsets)
        return offsets

    def barrier(self, ranks: Sequence[int]) -> float:
        """Barrier: a zero-payload tree up and down."""
        g = len(ranks)
        if g <= 1:
            return 0.0
        if not self._use_hierarchical(ranks):
            link = self.topology.worst_link(ranks)
            return 2 * _log2_steps(g) * link.latency
        plan = self.node_plan(ranks)
        # Tree up/down within each node (slowest node gates), then across
        # the elected leaders.
        intra_t = max(_log2_steps(len(nr)) for nr in plan.node_ranks) \
            * plan.intra.latency
        return 2 * (intra_t + _log2_steps(plan.n_nodes)
                    * plan.inter.latency * self._nic_scale(plan))
