"""Pipeline-parallel composition (§3.4 of the paper).

The paper's Fig. 6 composes Tesseract with pipeline parallelism: the layer
stack splits into ``pp_size`` stages, each stage living on its own
tensor-parallel group, with activations flowing stage-to-stage over
point-to-point links.  Both synchronous schedules from the literature the
paper cites are implemented:

* ``"gpipe"`` (Huang et al., ref [9]) — all microbatch forwards, then all
  backwards in reverse order; simplest, but every stage holds all ``M``
  microbatch activation sets at the peak;
* ``"1f1b"`` (the synchronous PipeDream-flush schedule; PipeDream is
  ref [13]) — stage ``s`` of ``S`` runs ``min(M, S-1-s)`` warmup forwards,
  then alternates one-forward-one-backward, then drains; peak live
  activations drop to ``warmup+1`` sets instead of ``M``.

Both schedules compute *exactly* the unpipelined gradients (synchronous
pipelining with a flush; gradient accumulation order differs only by
float reassociation) — asserted by the tests, along with the 1F1B memory
advantage.  :func:`pipeline_order` states both orders once: the stage runs
it, and the planner's step walk (time and memory) iterates it for every
stage.

The stage communicates over a dedicated pairwise group per link so the
p2p sequence numbers cannot collide with tensor-parallel traffic; sends
are buffered, so the interleaved 1F1B send/recv orders cannot deadlock.
"""

from __future__ import annotations

from typing import Callable

from repro.comm.communicator import Communicator
from repro.errors import ConfigError, ShapeError, SimulationError
from repro.nn.module import Module
from repro.sim.engine import RankContext
from repro.varray import ops
from repro.varray.varray import VArray

__all__ = ["PipelineStage", "pipeline_order"]

_FWD_TAG = 7001
_BWD_TAG = 7002


def pipeline_order(schedule: str, micro: int, stage: int | None,
                   stages: int | None) -> list[tuple[bool, int]]:
    """The ``(is_forward, microbatch)`` steps stage ``stage`` of ``stages``
    runs in one synchronous pipeline step of ``micro`` microbatches.

    GPipe runs every forward, then every backward in reverse.  1F1B runs
    ``min(M, S-1-s)`` warm-up forwards, alternates one forward with one
    backward, then drains the remaining backwards.
    """
    if schedule == "gpipe":
        return ([(True, m) for m in range(micro)]
                + [(False, m) for m in reversed(range(micro))])
    if schedule != "1f1b":
        raise ConfigError(f"unknown pipeline schedule {schedule!r}; "
                          f"valid: 'gpipe', '1f1b'")
    if stage is None or stages is None:
        raise ConfigError(
            "the 1f1b schedule needs stage_index and num_stages at "
            "PipelineStage construction"
        )
    warmup = min(micro, stages - 1 - stage)
    order = [(True, m) for m in range(warmup)]
    for m in range(warmup, micro):
        order += [(True, m), (False, m - warmup)]
    return order + [(False, m) for m in range(micro - warmup, micro)]


class PipelineStage:
    """One pipeline stage: a module plus its upstream/downstream links.

    Parameters
    ----------
    ctx:
        This rank's context.
    module:
        The stage's layer stack (any :class:`Module`).
    prev_rank / next_rank:
        Global ranks of the neighbouring stages (None at the ends).  For a
        Tesseract x pipeline composition these come from
        :meth:`ParallelContext.pipeline_neighbor`.
    """

    def __init__(
        self,
        ctx: RankContext,
        module: Module,
        prev_rank: int | None,
        next_rank: int | None,
        stage_index: int | None = None,
        num_stages: int | None = None,
    ):
        self.ctx = ctx
        self.module = module
        self.prev_rank = prev_rank
        self.next_rank = next_rank
        #: position within the pipeline; required for the 1F1B schedule.
        self.stage_index = stage_index
        self.num_stages = num_stages
        self._prev_comm = (
            Communicator(ctx, sorted([ctx.rank, prev_rank]))
            if prev_rank is not None
            else None
        )
        self._next_comm = (
            Communicator(ctx, sorted([ctx.rank, next_rank]))
            if next_rank is not None
            else None
        )

    @property
    def is_first(self) -> bool:
        return self.prev_rank is None

    @property
    def is_last(self) -> bool:
        return self.next_rank is None

    # --- p2p helpers ---------------------------------------------------------

    def _send(self, comm: Communicator, arr: VArray, tag: int) -> None:
        other = 1 - comm.rank  # pairwise group
        comm.send(arr, other, p2p_tag=tag)

    def _recv(self, comm: Communicator, tag: int) -> VArray:
        other = 1 - comm.rank
        return comm.recv(other, p2p_tag=tag)

    # --- one pipeline step -------------------------------------------------------

    def run_step(
        self,
        microbatches: list[VArray] | int,
        loss_grad_fn: Callable[[VArray, int], tuple[float, VArray]] | None = None,
        schedule: str = "gpipe",
    ) -> float:
        """Run one synchronous pipeline step.

        * First stage: ``microbatches`` is the list of input blocks.
        * Later stages: pass the microbatch *count*; inputs arrive from the
          previous stage.
        * Last stage: ``loss_grad_fn(output, mb_index)`` must return
          ``(loss_value, dOutput)``; other stages pass ``None``.
        * ``schedule``: ``"gpipe"`` (all-forward-then-all-backward) or
          ``"1f1b"`` (PipeDream-flush; needs ``stage_index``/``num_stages``
          at construction).  Every stage must pass the same schedule.

        Returns the summed loss (0.0 on non-final stages).  Parameter
        gradients accumulate across microbatches, matching an unpipelined
        pass over the concatenated batch.
        """
        if isinstance(microbatches, int):
            if not self.is_first:
                n_micro = microbatches
                inputs: list[VArray | None] = [None] * n_micro
            else:
                raise ShapeError(
                    "the first stage must receive the list of input blocks"
                )
        else:
            if not self.is_first:
                raise ShapeError(
                    "only the first stage takes input blocks; later stages "
                    "take the microbatch count"
                )
            n_micro = len(microbatches)
            inputs = list(microbatches)
        if n_micro < 1:
            raise ShapeError("need at least one microbatch")
        if self.is_last and loss_grad_fn is None:
            raise SimulationError("the last stage needs a loss_grad_fn")
        order = pipeline_order(schedule, n_micro, self.stage_index,
                               self.num_stages)

        # The Module re-entrancy guard allows one outstanding forward, so a
        # multi-microbatch schedule needs per-microbatch activation caches.
        # We snapshot/restore the module's saved-tensor slots around each
        # microbatch: simple, explicit, and exact.
        fwd_caches: dict[int, dict] = {}
        outputs: dict[int, VArray] = {}
        state = {"loss": 0.0}

        def forward_micro(m: int) -> None:
            x = inputs[m]
            if x is None:
                x = self._recv(self._prev_comm, _FWD_TAG)
            y = self.module.forward(x)
            fwd_caches[m] = _steal_caches(self.module)
            outputs[m] = y
            if not self.is_last:
                self._send(self._next_comm, y, _FWD_TAG)

        def backward_micro(m: int) -> None:
            if self.is_last:
                loss_value, dy = loss_grad_fn(outputs[m], m)
                state["loss"] += loss_value
            else:
                dy = self._recv(self._next_comm, _BWD_TAG)
            _restore_caches(self.module, fwd_caches.pop(m))
            outputs.pop(m, None)
            dx = self.module.backward(dy)
            if not self.is_first:
                self._send(self._prev_comm, dx, _BWD_TAG)

        for forward, m in order:
            if forward:
                forward_micro(m)
            else:
                backward_micro(m)
        return state["loss"]


def _steal_caches(module: Module) -> dict:
    """Detach the saved-for-backward slots of a module tree."""
    state: dict = {}
    _walk(module, "", state, steal=True)
    return state


def _restore_caches(module: Module, state: dict) -> None:
    """Re-attach previously stolen saved-for-backward slots."""
    _walk(module, "", state, steal=False)


def _walk(module: Module, path: str, state: dict, steal: bool) -> None:
    if steal:
        state[path] = (module._saved, module._saved_bytes)
        module._saved = None
        module._saved_bytes = 0.0
    else:
        saved, nbytes = state[path]
        if module._saved is not None:  # pragma: no cover - defensive
            raise SimulationError("cache restore would clobber a live cache")
        module._saved = saved
        module._saved_bytes = nbytes
    for name, child in module._children.items():
        _walk(child, f"{path}/{name}", state, steal)
