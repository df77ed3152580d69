"""Cluster topology: rank placement, link lookup, group span analysis.

A :class:`Topology` binds a :class:`~repro.hardware.spec.ClusterSpec` to a
:class:`Placement` (the mapping from MPI-style global ranks to physical
GPUs).  The communication cost model only ever asks three questions:

* :meth:`Topology.link` — which link connects two ranks,
* :meth:`Topology.nodes_spanned` — how many nodes a group touches,
* :meth:`Topology.worst_link` — the bottleneck link inside a group,

so the topology is kept as plain arrays.  The physical network is a
two-level tree — each GPU hangs off its node's switch, every node switch off
one fabric — so the path between two ranks is unique and
:meth:`Topology.path_latency` adds its hop latencies in closed form.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from repro.errors import GridError
from repro.hardware.spec import ClusterSpec, LinkSpec

__all__ = ["Placement", "Topology"]


class Placement(enum.Enum):
    """How global ranks are laid out over the cluster's GPUs.

    BLOCK:
        Ranks fill node 0, then node 1, ... — consecutive ranks share a
        node.  This is what the paper's experiments use ("we arrange our
        experiments mainly by setting the size [q,q,d] where q^2 is a
        multiple of 4"): a Tesseract depth slice of q*q ranks maps onto
        whole nodes, keeping the frequent row/column broadcasts on NVLink.
    ROUND_ROBIN:
        Rank r lives on node ``r % num_nodes`` — consecutive ranks are
        spread across nodes.  Used as the adversarial placement ablation.
    """

    BLOCK = "block"
    ROUND_ROBIN = "round_robin"


class Topology:
    """Physical view of a cluster for a given rank placement.

    Parameters
    ----------
    cluster:
        The hardware description.
    nranks:
        Number of ranks actually used (must not exceed the GPU count).
    placement:
        Rank-to-GPU layout policy.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        nranks: int | None = None,
        placement: Placement = Placement.BLOCK,
    ):
        self.cluster = cluster
        self.placement = placement
        self.nranks = cluster.total_gpus if nranks is None else int(nranks)
        if self.nranks <= 0:
            raise GridError(f"nranks must be positive, got {self.nranks}")
        if self.nranks > cluster.total_gpus:
            raise GridError(
                f"cluster {cluster.name} has {cluster.total_gpus} GPUs, "
                f"cannot place {self.nranks} ranks"
            )
        #: per-rank-pair transfer-time multipliers from injected link
        #: faults (see :mod:`repro.sim.faults`); keyed by sorted pair
        self._link_scale: dict[tuple[int, int], float] = {}
        #: bumped on every mutation that changes pricing (link faults);
        #: price caches key on it so a degradation invalidates them
        self.version = 0
        g = cluster.node.gpus_per_node
        if placement is Placement.BLOCK:
            self._node_of = [r // g for r in range(self.nranks)]
        elif placement is Placement.ROUND_ROBIN:
            # Even spread: rank r on node r % num_nodes.  This can never
            # overfill a node because nranks <= num_nodes * gpus_per_node
            # was checked above.
            n = cluster.num_nodes
            self._node_of = [r % n for r in range(self.nranks)]
        else:  # pragma: no cover - enum is exhaustive
            raise GridError(f"unknown placement {placement!r}")

    # --- basic queries -------------------------------------------------------

    def node_of(self, rank: int) -> int:
        """The node index hosting ``rank``."""
        self._check_rank(rank)
        return self._node_of[rank]

    def same_node(self, a: int, b: int) -> bool:
        """True if both ranks live on the same node."""
        return self.node_of(a) == self.node_of(b)

    def link(self, a: int, b: int) -> LinkSpec:
        """The link connecting two distinct ranks (NVLink or inter-node)."""
        if a == b:
            raise GridError(f"no link from rank {a} to itself")
        if self.same_node(a, b):
            return self.cluster.node.intra_link
        return self.cluster.inter_link

    def degrade_link(self, a: int, b: int, factor: float) -> None:
        """Degrade the (a, b) link: transfers take ``factor``x longer.

        Symmetric, multiplicative with earlier degradations of the same
        pair.  Installed by ``Engine`` from a fault plan's
        :class:`~repro.sim.faults.LinkFault` entries; consulted by
        :meth:`CommCostModel.p2p <repro.sim.cost.CommCostModel.p2p>`.
        """
        if factor < 1.0:
            raise GridError(f"degradation factor must be >= 1, got {factor}")
        self._check_rank(a)
        self._check_rank(b)
        pair = (min(a, b), max(a, b))
        self._link_scale[pair] = self._link_scale.get(pair, 1.0) * factor
        self.version += 1

    def link_scale(self, a: int, b: int) -> float:
        """Transfer-time multiplier for the (a, b) link (1.0 = healthy)."""
        if not self._link_scale:
            return 1.0
        return self._link_scale.get((min(a, b), max(a, b)), 1.0)

    def group_scale(self, ranks: Iterable[int]) -> float:
        """Worst pairwise degradation inside a group (1.0 = healthy).

        A collective (ring, tree) is gated by its slowest constituent
        link, so :class:`CommCostModel <repro.sim.cost.CommCostModel>`
        multiplies a group-spanning collective's transport time by this.
        """
        if not self._link_scale:
            return 1.0
        members = set(ranks)
        worst = 1.0
        for (a, b), s in self._link_scale.items():
            if a in members and b in members and s > worst:
                worst = s
        return worst

    def nodes_spanned(self, ranks: Iterable[int]) -> int:
        """Number of distinct nodes touched by a group of ranks."""
        return len({self.node_of(r) for r in ranks})

    def spans_nodes(self, ranks: Iterable[int]) -> bool:
        """True if the group touches more than one node."""
        return self.nodes_spanned(ranks) > 1

    def worst_link(self, ranks: Sequence[int]) -> LinkSpec:
        """The bottleneck link for a group: inter-node if it spans nodes."""
        if len(ranks) <= 1:
            return self.cluster.node.intra_link
        if self.spans_nodes(ranks):
            return self.cluster.inter_link
        return self.cluster.node.intra_link

    def ranks_by_node(self, ranks: Sequence[int]) -> dict[int, list[int]]:
        """Group a rank list by hosting node (ordered by first appearance)."""
        out: dict[int, list[int]] = {}
        for r in ranks:
            out.setdefault(self.node_of(r), []).append(r)
        return out

    @property
    def nodes_used(self) -> int:
        """Number of distinct nodes hosting at least one rank."""
        return len(set(self._node_of))

    def node_ranks(self, node: int) -> list[int]:
        """All ranks hosted on ``node`` — a correlated fault domain.

        Raises :class:`~repro.errors.GridError` if no rank lives there, so
        a fault plan naming an empty node fails loudly at install time.
        """
        out = [r for r in range(self.nranks) if self._node_of[r] == node]
        if not out:
            raise GridError(
                f"node {node} hosts no ranks "
                f"(topology uses nodes {sorted(set(self._node_of))})"
            )
        return out

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise GridError(f"rank {rank} out of range [0, {self.nranks})")

    # --- path analysis -------------------------------------------------------

    def path_latency(self, a: int, b: int) -> float:
        """Sum of per-hop latencies on the path between two ranks.

        GPUs reach their node's switch over the intra-node link and node
        switches reach the fabric over the inter-node link, so on one node
        the path is GPU, switch, GPU and across nodes it is GPU, switch,
        fabric, switch, GPU.  Hops are added in path order.
        """
        self._check_rank(a)
        self._check_rank(b)
        if a == b:
            return 0.0
        intra = self.cluster.node.intra_link.latency
        if self._node_of[a] == self._node_of[b]:
            return intra + intra
        inter = self.cluster.inter_link.latency
        return intra + inter + inter + intra

    def describe(self) -> str:
        """One-line human description used in bench report headers."""
        c = self.cluster
        return (
            f"{c.name}: {self.nranks} ranks on {c.num_nodes} nodes x "
            f"{c.node.gpus_per_node} {c.gpu.name} "
            f"({c.node.intra_link.name} intra, {c.inter_link.name} inter, "
            f"{self.placement.value} placement)"
        )
