"""The :class:`Module` base class and :class:`Sequential` container.

Contract
--------
* ``forward(x) -> y`` saves whatever the backward pass needs via
  :meth:`save_for_backward` (which also charges activation memory);
* ``backward(dy) -> dx`` consumes the saved tensors exactly once (freeing
  their activation accounting) and accumulates parameter gradients;
* one outstanding forward per module — re-entering forward before backward
  raises, which catches incorrect training loops early.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SimulationError
from repro.nn.parameter import Parameter
from repro.sim.engine import RankContext
from repro.varray.varray import VArray

__all__ = ["Module", "Sequential"]

#: the stash :meth:`Module.restash` leaves: a byte count and no tensors
_REPLAYED = object()


class Module:
    """Base class for all layers (serial and parallel)."""

    def __init__(self, ctx: RankContext):
        self.ctx = ctx
        self.training = True
        self._params: dict[str, Parameter] = {}
        self._children: dict[str, "Module"] = {}
        self._saved: tuple | None = None
        self._saved_bytes = 0.0

    # --- registration -----------------------------------------------------------

    @property
    def param_owner(self) -> str:
        """The prefix of this module's parameter names (``Linear.w``)."""
        return type(self).__name__

    def add_param(self, name: str, value: VArray,
                  layout: str = "full", parts: int = 1) -> Parameter:
        """Create and register a parameter (``layout``/``parts`` per
        Parameter docs)."""
        if name in self._params:
            raise SimulationError(f"duplicate parameter name {name!r}")
        p = Parameter(self.ctx, f"{self.param_owner}.{name}", value,
                      layout=layout, parts=parts)
        self._params[name] = p
        return p

    def add_module(self, name: str, module: "Module") -> "Module":
        """Register a child module."""
        if name in self._children:
            raise SimulationError(f"duplicate child module name {name!r}")
        self._children[name] = module
        return module

    # --- traversal --------------------------------------------------------------

    def parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (qualified name, parameter) for this module and children."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for cname, child in self._children.items():
            yield from child.parameters(prefix=f"{prefix}{cname}.")

    def modules(self) -> Iterator["Module"]:
        """This module and every module below it, parents first."""
        yield self
        for child in self._children.values():
            yield from child.modules()

    def parameter_list(self) -> list[Parameter]:
        """All parameters as a flat list (optimizer input)."""
        return [p for _, p in self.parameters()]

    def num_parameters(self) -> int:
        """Total trainable element count on this rank."""
        return sum(p.size for p in self.parameter_list())

    def zero_grad(self) -> None:
        """Clear every parameter gradient in the subtree."""
        for _, p in self.parameters():
            p.zero_grad()

    def train(self, flag: bool = True) -> "Module":
        """Set training mode recursively (affects Dropout)."""
        self.training = flag
        for child in self._children.values():
            child.train(flag)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # --- forward/backward plumbing -------------------------------------------------

    def save_for_backward(self, *tensors) -> None:
        """Stash tensors for the backward pass; charges activation memory.

        In inference mode (``self.training`` False, see :meth:`eval`) each
        forward *supersedes* the previous stash instead of raising, so
        forward-only paths — e.g. the serving decode loop — may call
        ``forward`` repeatedly without a matching backward, while a lone
        eval-mode backward still sees the latest activations.
        """
        nbytes = 0
        for t in tensors:
            if isinstance(t, VArray):
                nbytes += t.nbytes
        ctx = self.ctx
        before = ctx.mem.changes
        self.restash(nbytes)
        self._saved = tensors
        tape = ctx._tape
        if tape is not None:
            if self.training:
                # a replay keeps no tensors, and a backward reads these
                ctx.abandon_recording()
            else:
                # a pass being recorded (RankContext.replay): a replay
                # repeats this stash, and these tracker changes with it
                tape.stashes.append((self, nbytes))
                tape.mem_changes += ctx.mem.changes - before

    def restash(self, nbytes: float) -> None:
        """What a stash of ``nbytes`` does to the memory tracker, the
        tensors left out: a replayed pass (``RankContext.replay``) knows
        its stashes' byte counts only, and a backward after it raises."""
        mem = self.ctx.mem
        if self._saved is not None:
            if self.training:
                raise SimulationError(
                    f"{type(self).__name__}.forward called again before "
                    f"backward consumed the previous activation cache"
                )
            mem.free(self._saved_bytes, "activations")
        self._saved = _REPLAYED
        self._saved_bytes = nbytes
        mem.alloc(nbytes, "activations")

    def saved(self) -> tuple:
        """Retrieve and release the tensors stashed by the forward pass.

        (The release is a tracker change no stash accounts for, so a pass
        that calls this while ``RankContext.replay`` records it is never
        replayed.)
        """
        tensors = self._saved
        if tensors is None or tensors is _REPLAYED:
            raise SimulationError(
                f"{type(self).__name__}.backward called without a matching "
                + ("forward" if tensors is None else
                   "forward (a replayed symbolic pass keeps no activations)")
            )
        self._saved = None
        self.ctx.mem.free(self._saved_bytes, "activations")
        self._saved_bytes = 0.0
        return tensors

    # --- interface ---------------------------------------------------------------

    def forward(self, x: VArray) -> VArray:
        """Compute the layer output (must be overridden)."""
        raise NotImplementedError

    def backward(self, dy: VArray) -> VArray:
        """Propagate gradients (must be overridden)."""
        raise NotImplementedError

    def __call__(self, x: VArray) -> VArray:
        return self.forward(x)


class Sequential(Module):
    """Chain of modules applied in order (backward runs in reverse)."""

    def __init__(self, ctx: RankContext, *modules: Module):
        super().__init__(ctx)
        self.steps: list[Module] = []
        for idx, m in enumerate(modules):
            self.add_module(str(idx), m)
            self.steps.append(m)

    def append(self, module: Module) -> "Sequential":
        """Add a module at the end of the chain."""
        self.add_module(str(len(self.steps)), module)
        self.steps.append(module)
        return self

    def forward(self, x: VArray) -> VArray:
        for m in self.steps:
            x = m.forward(x)
        return x

    def backward(self, dy: VArray) -> VArray:
        for m in reversed(self.steps):
            dy = m.backward(dy)
        return dy

    def __len__(self) -> int:
        return len(self.steps)
