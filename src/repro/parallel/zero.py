"""ZeRO stage-1 optimizer-state sharding (Rajbhandari et al.; paper ref [16]).

The paper's §1 lists ZeRO among the orthogonal memory techniques its
tensor parallelism composes with.  :class:`ZeroOptimizer` implements
stage 1 over a data-parallel group: each replica *owns* a subset of the
parameters — only the owner keeps optimizer state (Adam moments) and
computes the update, then broadcasts the fresh values to the other
replicas.  Optimizer-state memory per rank drops by the DP size while the
update remains mathematically identical to the unsharded optimizer
(asserted by the tests).

Usage (after the usual DP gradient sync)::

    opt = ZeroOptimizer(params, dp_comm, lambda owned: Adam(owned, lr=1e-3))
    ...
    sync_gradients(pc, model)
    opt.step()
    model.zero_grad()
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.comm.communicator import Communicator
from repro.errors import SimulationError
from repro.nn.optim.base import Optimizer
from repro.nn.parameter import Parameter

__all__ = ["ZeroOptimizer"]


class ZeroOptimizer:
    """Stage-1 ZeRO wrapper: shard optimizer states across a DP group.

    Parameters
    ----------
    params:
        The full (replicated) parameter list, identical on every replica.
    dp_comm:
        The data-parallel communicator (one member per replica).
    inner_factory:
        Builds the real optimizer over this rank's *owned* subset, e.g.
        ``lambda owned: Adam(owned, lr=1e-3)``.  Every replica must pass an
        equivalent factory.

    Ownership uses a greedy size-balanced partition (largest parameters
    first, each assigned to the least-loaded rank), which keeps per-rank
    state bytes near 1/dp even though transformer parameters span five
    orders of magnitude (fc weights vs LayerNorm biases).  The partition
    is a pure function of the (identical) parameter shapes, so every
    replica computes the same ownership map.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        dp_comm: Communicator,
        inner_factory: Callable[[Sequence[Parameter]], Optimizer],
    ):
        self.params = list(params)
        if not self.params:
            raise SimulationError("ZeroOptimizer needs at least one parameter")
        self.dp_comm = dp_comm
        self._owner = self._partition(
            [p.value.size for p in self.params], dp_comm.size
        )
        owned = [
            p for idx, p in enumerate(self.params)
            if self._owner[idx] == dp_comm.rank
        ]
        # A replica may own nothing when params < dp ranks; use a stub then.
        self.inner: Optimizer | None = inner_factory(owned) if owned else None

    @staticmethod
    def _partition(sizes: list[int], nranks: int) -> list[int]:
        """Greedy balanced partition: owner rank per parameter index."""
        owner = [0] * len(sizes)
        load = [0] * nranks
        # Stable order: by descending size, ties broken by index.
        for idx in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
            target = min(range(nranks), key=lambda r: (load[r], r))
            owner[idx] = target
            load[target] += sizes[idx]
        return owner

    def owner_of(self, index: int) -> int:
        """The DP group rank that owns parameter ``index``."""
        return self._owner[index]

    def step(self) -> None:
        """Owners update their shard, then broadcast the new values.

        The broadcasts run in a fixed parameter order inside one fused
        batch window (one rendezvous per step instead of one per
        parameter), so every replica issues the identical collective
        sequence and the bytes moved match the per-parameter form.
        """
        if self.inner is not None:
            self.inner.step()
        with self.dp_comm.batch(tag="zero_step"):
            pending = [
                self.dp_comm.broadcast(
                    p.value if self._owner[idx] == self.dp_comm.rank else None,
                    root=self._owner[idx],
                    tag=f"zero:{p.name}",
                )
                for idx, p in enumerate(self.params)
            ]
        for p, h in zip(self.params, pending):
            p.assign(h.value)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter (owned or not)."""
        for p in self.params:
            p.zero_grad()

    def set_lr(self, lr: float) -> None:
        """Forward the learning rate to the inner optimizer (if any)."""
        if self.inner is not None:
            self.inner.set_lr(lr)
