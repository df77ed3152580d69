"""The :class:`Communicator`: collectives + buffered p2p for one group.

Semantics
---------
* All indices (``root``, ``dst``, ``src``) are **group-relative**, like MPI.
* Collectives are *matching*: every member must call the same collective
  the same number of times in the same order; the engine detects mismatches
  and raises :class:`~repro.errors.CommError`.
* ``send`` is buffered (MPI "bsend"): it deposits the payload and returns,
  charging only the injection latency, so ring shifts (Cannon) cannot
  deadlock.  ``recv`` blocks until the message exists and completes at
  ``max(t_sent + transfer, t_recv_posted)``.
* Returned arrays share storage with the sender's array in real mode; by
  package convention VArray data is never mutated in place, which makes
  zero-copy delivery safe (and fast under the GIL).

Timing
------
A collective completes, for every participant, at

    ``max(arrival times) + cost_model(collective, group, bytes)``

which models the bulk-synchronous behaviour of NCCL collectives on a
stream: stragglers dominate, then the wire time is paid once.  Because
the completion time is a function of the arrival *map* (and reductions
run in group-rank order), no result or timestamp depends on which rank
physically executed first — the engine's scheduler backends
(:mod:`repro.sim.schedulers`: event or threaded) are therefore
observationally interchangeable.

Every collective takes one path, :meth:`Communicator._issue`: a plain
call is a one-op list, a flushed batch window its queued ops.  The ops
join one ``Engine.fused_collective`` generation and are priced by
:meth:`CommCostModel.fused`, which prices a single op exactly as that
op's own method.  Whether the completion time is known at once or
resolved later (deferred timing) is the engine's business; the
communicator reads no engine state to decide it.  What does not change
from call to call — the kind string, the root, the reduce op, the
check and data functions, the priced offsets per payload size —
lives in one op spec per group, kind, root and op, built on first use
and shared by the group's members through their rendezvous channel.

Receive buffers and symbolic shape rules
----------------------------------------
A non-root may pass :meth:`Communicator.broadcast` an MPI-style receive
buffer instead of None: an array of the root payload's shape and dtype
whose values are never read.  The last member to arrive checks every
buffer against the root's payload and raises
:class:`~repro.errors.CommError` naming both signatures on a mismatch,
whichever side of the root the offending member arrived on.

A symbolic result is fixed by shapes, so wherever the caller's own
operands fix it, a deferring engine hands it back at the deposit
instead of parking the rank until a partner arrives: a symbolic
``all_reduce`` or root ``reduce`` returns the caller's own payload (the
combine of equal signatures has that signature), a broadcast non-root
its own symbolic receive buffer, a symbolic ``reduce_scatter`` the shape
of its own chunk.  A broadcast non-root without a buffer, and
``scatter``, take the root's deposit once it is there; ``gather``'s
root, ``all_gather`` and ``all_to_all`` wait for completion.  The last
arriver still validates every member's payload, so a mismatched member
fails the run exactly as it does when every rank blocks.

Batch windows
-------------
:meth:`Communicator.batch` opens an opt-in *fused batch window*: inside
the ``with`` block the collective methods queue their ops and return
:class:`PendingResult` handles immediately; on exit every queued op joins
a **single** group rendezvous (one sleep/wake cycle per rank for the whole
window — see ``Engine.fused_collective``), results are filled into the
handles, and consecutive same-kind ops are priced as one coalesced
collective on their summed payload (:meth:`CommCostModel.fused`,
NCCL-style bucketing).  Batching changes *timing* only: each queued op
still records its own :class:`~repro.sim.events.CommEvent` under the
per-rank accounting convention below, so ``Trace.comm_volume`` is
invariant under batching.

Trace accounting
----------------
Every participant records one :class:`~repro.sim.events.CommEvent` whose
``nbytes`` is **per-rank**: the bytes that rank *receives* from its peers,
or — for a rank that receives nothing — the bytes it *sends*.  The
whole-group payload is never recorded on every member, so summing
``nbytes`` over a trace reproduces the analytic per-rank communication
volume with no group-size inflation.  With group size ``g``, buffer ``n``,
per-member chunk ``c`` and total payload ``N``:

==============  ==========================================================
collective      per-rank ``nbytes``
==============  ==========================================================
send / recv     ``n`` on each side (a message crosses two NICs)
broadcast       root: ``n`` sent; every other rank: ``n`` received
reduce          root: ``n`` received; every other rank: ``n`` sent
all_reduce      ``n`` (each rank's buffer makes one logical round trip)
all_gather      ``(g-1)·c`` — the remote chunks received (own chunk local)
reduce_scatter  ``c`` — the reduced chunk received
scatter         root: ``N - c_root`` sent; member ``i``: ``c_i`` received
gather          root: ``N - c_root`` received; member ``i``: ``c_i`` sent
all_to_all      ``(g-1)·c`` — the remote chunks received
barrier         ``0``
==============  ==========================================================

``docs/architecture.md`` ("Trace accounting" and "Fused same-group
rendezvous") explains how this table and the batch-window invariants fit
into the engine's synchronization design.  Under injected faults the
table is *unchanged*: transient send retries record ``RetryEvent`` records but
never duplicate a ``CommEvent``, so per-rank ``nbytes`` totals are
invariant under retries — see "Fault model & recovery" in
``docs/architecture.md`` and :mod:`repro.sim.faults`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Sequence

from repro.comm.group import ProcessGroup
from repro.comm.reduce_ops import ReduceOp, combine
from repro.errors import CommError, RankFailureError
from repro.sim.engine import LOCAL_ECHO, LOCAL_NONE, RankContext
from repro.sim.events import CommEvent, FusedBatchEvent, RetryEvent
from repro.varray.varray import VArray

__all__ = ["Communicator", "PendingResult"]


class PendingResult:
    """Result handle for a collective queued inside a batch window.

    ``value`` raises :class:`CommError` until the window has flushed
    (i.e. the ``with comm.batch()`` block has exited cleanly).  If the
    window aborted — a :class:`~repro.errors.RankFailureError` from a
    dead partner, or any other exception escaping the ``with`` block —
    the handle is *failed* rather than left dangling: ``value`` re-raises
    the window's failure (naming the queued ops) instead of a misleading
    "not flushed yet" message, so recovery code that kept a handle
    around cannot silently wait on a result that will never exist.
    """

    __slots__ = ("_value", "_state")

    def __init__(self) -> None:
        self._state = "pending"
        self._value: Any = None

    @classmethod
    def _resolved(cls, value: Any) -> "PendingResult":
        out = cls()
        out._resolve(value)
        return out

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._state = "ready"

    def _fail(self, exc: BaseException) -> None:
        self._value = exc
        self._state = "failed"

    @property
    def ready(self) -> bool:
        """True once the window has flushed and ``value`` is available."""
        return self._state == "ready"

    @property
    def failed(self) -> bool:
        """True if the window aborted and this handle will never resolve."""
        return self._state == "failed"

    @property
    def value(self) -> Any:
        if self._state == "failed":
            exc = self._value
            if isinstance(exc, RankFailureError):
                raise exc.clone()
            raise CommError(
                f"batch window result unavailable: the window aborted "
                f"({exc})"
            )
        if self._state != "ready":
            raise CommError(
                "batch window result accessed before the window was flushed"
            )
        return self._value


# --- what the last arriver does, per kind --------------------------------
#
# ``check(spec, ordered)`` sees every member's payload in group order,
# validates them and returns ``(shared, price_bytes)``: what the members'
# results are cut from, and the size :meth:`CommCostModel.fused` prices.
# ``data(spec, shared, i)`` is member ``i``'s result.


def _sig(arr: VArray) -> str:
    return f"{arr.dtype.name}{list(arr.shape)}"


def _check_broadcast(spec: "_OpSpec", ordered: list[Any]) -> tuple[Any, int]:
    src = ordered[spec.root]
    for i, buf in enumerate(ordered):
        if buf is not None and buf is not src and (
                buf.shape != src.shape or buf.dtype != src.dtype):
            raise CommError(
                f"broadcast receive buffer of group rank {i} is "
                f"{_sig(buf)}, but root {spec.root} sends {_sig(src)}"
            )
    return src, src.nbytes


def _check_reduce(spec: "_OpSpec", ordered: list[Any]) -> tuple[Any, int]:
    combined = combine(spec.op, ordered)
    return combined, combined.nbytes


def _check_gathered(spec: "_OpSpec", ordered: list[Any]) -> tuple[Any, int]:
    return ordered, sum([p.nbytes for p in ordered])


def _check_reduce_scatter(spec: "_OpSpec",
                          ordered: list[Any]) -> tuple[Any, int]:
    reduced = [combine(spec.op, [chunks[i] for chunks in ordered])
               for i in range(len(ordered))]
    return reduced, sum([c.nbytes for c in reduced])


def _check_scatter(spec: "_OpSpec", ordered: list[Any]) -> tuple[Any, int]:
    chunks = ordered[spec.root]
    return chunks, sum([c.nbytes for c in chunks])


def _check_all_to_all(spec: "_OpSpec", ordered: list[Any]) -> tuple[Any, int]:
    return ordered, max([c.nbytes for chunks in ordered for c in chunks])


def _check_barrier(spec: "_OpSpec", ordered: list[Any]) -> tuple[Any, int]:
    return None, 0


def _data_shared(spec: "_OpSpec", shared: Any, i: int) -> Any:
    return shared


def _data_at_root(spec: "_OpSpec", shared: Any, i: int) -> Any:
    return shared if i == spec.root else None


def _data_copy(spec: "_OpSpec", shared: Any, i: int) -> Any:
    return list(shared)


def _data_own(spec: "_OpSpec", shared: Any, i: int) -> Any:
    return shared[i]


def _data_transpose(spec: "_OpSpec", shared: Any, i: int) -> Any:
    return [chunks[i] for chunks in shared]


def _others(i: int, arrs: Sequence[VArray]) -> int:
    return sum([a.nbytes for j, a in enumerate(arrs) if j != i])


def _nbytes(spec: "_OpSpec", i: int, payload: Any, result: Any) -> int:
    """Member ``i``'s traffic per the convention table: what it receives,
    or what it sends when it receives nothing."""
    if result is None:  # non-root reduce / gather, barrier
        return 0 if payload is None else payload.nbytes
    if type(result) is list:  # all_gather, gather root, all_to_all
        return _others(i, result)
    if spec.price_kind == "scatter" and i == spec.root:
        return _others(i, payload)  # keeps its own chunk, sends the rest
    return result.nbytes


def _from_root(spec: "_OpSpec") -> Callable[..., tuple[bool, Any]]:
    """Every member's result is the root's payload, there as soon as the
    root has deposited."""
    root = spec.root_rank

    def rule(k: int, arrivals: dict[int, Any], rank: int) -> tuple[bool, Any]:
        dep = arrivals.get(root)
        return (False, None) if dep is None else (True, dep[k])

    return rule


def _root_chunk(spec: "_OpSpec") -> Callable[..., tuple[bool, Any]]:
    """The caller's chunk exists as soon as the root has deposited."""
    root, imap = spec.root_rank, spec.imap

    def rule(k: int, arrivals: dict[int, Any], rank: int) -> tuple[bool, Any]:
        dep = arrivals.get(root)
        return (False, None) if dep is None else (True, dep[k][imap[rank]])

    return rule


def _own_chunk_shape(spec: "_OpSpec") -> Callable[..., tuple[bool, Any]]:
    """A symbolic reduce-scatter result has the shape of the caller's own
    chunk ``i`` (the completer aborts if the members disagree)."""
    imap = spec.imap

    def rule(k: int, arrivals: dict[int, Any], rank: int) -> tuple[bool, Any]:
        chunk = arrivals[rank][k][imap[rank]]
        return True, VArray.symbolic(chunk.shape, chunk.dtype)

    return rule


#: kind -> (check, data, local rule builder or None)
_KINDS: dict[str, tuple] = {
    "broadcast": (_check_broadcast, _data_shared, _from_root),
    "reduce": (_check_reduce, _data_at_root, None),
    "all_reduce": (_check_reduce, _data_shared, None),
    "all_gather": (_check_gathered, _data_copy, None),
    "reduce_scatter": (_check_reduce_scatter, _data_own, _own_chunk_shape),
    "scatter": (_check_scatter, _data_own, _root_chunk),
    "gather": (_check_gathered, _data_at_root, None),
    "all_to_all": (_check_all_to_all, _data_transpose, None),
    "barrier": (_check_barrier, _data_shared, None),
}


class _OpSpec:
    """One collective kind, root and reduce op on one group.

    Everything that does not change from call to call, built on first
    use and then reused: the interned kind string every member must
    agree on, the price kind, the root's group and global rank, the
    kind's check and data functions and its local-result rule (see
    :data:`_KINDS`), and the priced offsets per payload size.  The
    group's members share one spec through their rendezvous channel:
    nothing in it is per rank, and ranks that run ahead of their peers
    keep thousands of deposits alive, so per-rank copies would add up.
    """

    __slots__ = ("kind", "sig", "price_kind", "root", "root_rank", "op",
                 "granks", "imap", "check", "data", "local", "complete",
                 "_cost", "_priced", "_version")

    #: payload sizes a spec keeps priced offsets for
    MAX_PRICED = 64

    def __init__(self, comm: "Communicator", name: str, root: int | None,
                 op: ReduceOp | None):
        params = [] if root is None else [f"root={root}"]
        if op is not None:
            params.append(f"op={op.value}")
        kind = f"{name}[{','.join(params)}]" if params else name
        self.kind = sys.intern(kind)
        self.sig = (self.kind,)
        self.price_kind = name
        self.root = root
        self.root_rank = None if root is None else comm.group.ranks[root]
        self.op = op
        self.granks = comm.group.ranks
        self.imap = comm.group.index_map()
        self.check, self.data, local = _KINDS[name]
        self.local = None if local is None else local(self)
        #: the engine's completion callback for this op issued alone
        self.complete = partial(_complete, (self,))
        self._cost = comm._cost
        self._priced: dict[Any, tuple[float, ...]] = {}
        self._version = -1

    def offsets(self, nbytes: Any) -> tuple[float, ...]:
        """Completion offsets of this op alone on ``nbytes``: one
        :meth:`CommCostModel.fused` call per size and topology state."""
        cost = self._cost
        if self._version != cost.topology.version:
            self._priced.clear()
            self._version = cost.topology.version
        out = self._priced.get(nbytes)
        if out is None:
            out = tuple(cost.fused(self.granks,
                                   [(self.price_kind, float(nbytes))]))
            if len(self._priced) < self.MAX_PRICED:
                self._priced[nbytes] = out
        return out


def _complete(specs: tuple[_OpSpec, ...], arrivals: dict[int, Any],
              need: list[int] | None):
    """The last arriver's pass: validate every member's payload of every
    op, price the sequence, and build the results of the ranks in
    ``need`` (``None``: every member), in issue order."""
    first = specs[0]
    granks, imap = first.granks, first.imap
    readers = granks if need is None else need
    results: dict[int, list[Any]] = {r: [] for r in readers}
    sizes = []
    for k, spec in enumerate(specs):
        shared, nbytes = spec.check(spec, [arrivals[r][k] for r in granks])
        sizes.append(nbytes)
        data = spec.data
        for r in readers:
            results[r].append(data(spec, shared, imap[r]))
    if len(specs) == 1:
        return results, first.offsets(sizes[0])
    return results, first._cost.fused(granks, [
        (spec.price_kind, float(n)) for spec, n in zip(specs, sizes)
    ])


def _describe_ops(win: "_BatchWindow") -> str:
    """Human op list for batch-window failure messages: ``kind:tag, ...``."""
    return ", ".join(
        f"{spec.kind}:{tag}" if tag else spec.kind
        for spec, _, _, tag, *_ in win._ops
    )


class _BatchWindow:
    """Collects the ops queued inside one ``with comm.batch()`` block, as
    ``(spec, payload, rule, tag, t_post, handle)`` each."""

    __slots__ = ("_tag", "_ops")

    def __init__(self, tag: str = ""):
        self._tag = tag
        self._ops: list[tuple] = []

    def __len__(self) -> int:
        return len(self._ops)


class Communicator:
    """Collective communication endpoint of ``ctx.rank`` within ``group``."""

    def __init__(self, ctx: RankContext, group: ProcessGroup | Sequence[int]):
        if not isinstance(group, ProcessGroup):
            group = ProcessGroup.of(group)
        self.ctx = ctx
        self.group = group
        rank = group.index_map().get(ctx.rank)
        if rank is None:
            raise CommError(
                f"rank {ctx.rank} cannot build a communicator for group "
                f"{group.ranks} it does not belong to"
            )
        self.rank = rank  #: group-relative rank
        self.size = group.size
        self._cost = ctx.engine.comm_model
        self._channel = ctx.engine.channel(group)
        #: (kind, root, op) -> the group's :class:`_OpSpec`
        self._specs: dict[tuple, _OpSpec] = self._channel.specs
        self._window: _BatchWindow | None = None

    # --- batch window ---------------------------------------------------------

    @contextmanager
    def batch(self, tag: str = ""):
        """Open a fused batch window on this communicator's group.

        Inside the ``with`` block every collective method queues its op
        and returns a :class:`PendingResult` instead of rendezvousing; on
        clean exit the whole window joins **one** group rendezvous, the
        handles are resolved, and the sequence is priced by
        :meth:`CommCostModel.fused` (consecutive same-kind ops coalesce).
        Every rank of the group must open the same windows around the
        same ops — the engine verifies the op-kind signature and aborts
        with :class:`CommError` on a mismatch.  Windows do not nest, and
        p2p ``send``/``recv`` are unaffected by an open window.

        >>> with comm.batch() as win:          # doctest: +SKIP
        ...     g1 = comm.all_reduce(grad1)
        ...     g2 = comm.all_reduce(grad2)
        >>> g1.value, g2.value                 # doctest: +SKIP
        """
        if self._window is not None:
            raise CommError("batch windows cannot nest")
        self.ctx.abandon_recording()
        win = _BatchWindow(tag)
        self._window = win
        try:
            yield win
            self._window = None
            if win._ops:
                specs, payloads, rules, tags, t_posts, handles = zip(
                    *win._ops)
                results = self._issue(specs, payloads, rules, tags,
                                      t_posts, win._tag)
                for handle, value in zip(handles, results):
                    handle._resolve(value)
        except RankFailureError as exc:
            # Fail fast instead of leaving queued handles undrained: a
            # dead partner means this window can never flush, so every
            # pending handle is failed and the error names the window's
            # op list — catching code sees exactly which collectives died.
            self._window = None
            aug = RankFailureError(
                exc.rank, exc.t,
                message=(
                    f"{exc}; batch window {win._tag!r} on group "
                    f"{self.group.ranks} aborted with {len(win)} "
                    f"undrained op(s): [{_describe_ops(win)}]"
                ),
            )
            for *_, handle in win._ops:
                if not handle.ready:
                    handle._fail(aug)
            raise aug.clone() from None
        except BaseException as exc:
            self._window = None
            for *_, handle in win._ops:
                if not handle.ready:
                    handle._fail(exc)
            raise

    def _immediate(self, value: Any) -> Any:
        """Wrap trivial (size-1) results so in-window types stay uniform."""
        self.ctx.abandon_recording()
        if self._window is not None:
            return PendingResult._resolved(value)
        return value

    def _no_window(self, what: str) -> None:
        """Only collectives are fusable; p2p must stay immediate."""
        if self._window is not None:
            raise CommError(
                f"{what} is not allowed inside a batch window: only "
                f"collectives can be queued for a fused rendezvous"
            )

    # --- internal plumbing ------------------------------------------------------

    def _spec(self, name: str, root: int | None = None,
              op: ReduceOp | None = None) -> _OpSpec:
        key = (name, root, op)
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = _OpSpec(self, name, root, op)
        return spec

    def _run(self, spec: _OpSpec, payload: Any, rule: Any, tag: str) -> Any:
        """Issue one collective now, or queue it on the open batch window.

        ``rule`` is what a deferring engine hands this rank if it is not
        the last to arrive: a ``LOCAL_NONE``/``LOCAL_ECHO`` sentinel, a
        callable (the spec's ``local``), or None to wait for completion
        — see ``Engine.fused_collective``.
        """
        ctx = self.ctx
        ctx.abandon_recording()
        if self._window is not None:
            handle = PendingResult()
            self._window._ops.append(
                (spec, payload, rule, tag, ctx.clock.now, handle))
            return handle
        return self._issue((spec,), (payload,), (rule,), (tag,))[0]

    def _issue(
        self,
        specs: tuple[_OpSpec, ...],
        payloads: Sequence[Any],
        rules: Sequence[Any],
        tags: Sequence[str],
        t_posts: Sequence[float] | None = None,
        window: str | None = None,
    ) -> list[Any]:
        """Rendezvous once for ``specs`` (one collective, or every op
        queued in the batch window tagged ``window``, in issue order, with
        their post times ``t_posts``) and return their results.

        The last arriver runs each op's check and data pass for the
        ranks that read a result, then prices the whole sequence with
        :meth:`CommCostModel.fused` (a single op prices as its own
        method, through its spec's per-size offsets; consecutive
        same-kind ops of a window coalesce).
        """
        ctx = self.ctx
        t_post = ctx.clock.now
        if window is None:
            sig, complete = specs[0].sig, specs[0].complete
        else:
            sig = tuple([spec.kind for spec in specs])
            complete = partial(_complete, specs)
        res, t_ends = ctx.engine.fused_collective(
            self._channel, ctx, self.rank, payloads, sig, rules, complete,
        )
        ctx.clock.sync_to(t_ends[-1])
        if ctx.trace.enabled:
            if t_posts is None:
                t_posts = (t_post,)
            granks = self.group.ranks
            total = 0
            for k, spec in enumerate(specs):
                nbytes = _nbytes(spec, self.rank, payloads[k], res[k])
                total += nbytes
                ctx.trace.record(
                    CommEvent(
                        rank=ctx.rank,
                        kind=spec.kind,
                        group=granks,
                        nbytes=nbytes,
                        t_start=t_posts[k],
                        t_end=t_ends[k],
                        tag=tags[k],
                    )
                )
            if window is not None:
                ctx.trace.record(
                    FusedBatchEvent(
                        rank=ctx.rank,
                        group=granks,
                        kinds=sig,
                        nbytes=total,
                        t_start=t_posts[0],
                        t_end=t_ends[-1],
                        tag=window,
                    )
                )
        return res

    @staticmethod
    def _expect_varray(value: Any, what: str) -> VArray:
        if not isinstance(value, VArray):
            raise CommError(f"{what} must be a VArray, got {type(value).__name__}")
        return value

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommError(f"root {root} out of range for size-{self.size} group")

    # --- collectives --------------------------------------------------------------

    def broadcast(self, arr: VArray | None, root: int, tag: str = "") -> VArray:
        """Broadcast ``arr`` from group rank ``root``.

        At a non-root ``arr`` is an MPI-style receive buffer: pass None,
        or an array of the root payload's shape and dtype, whose values
        are never read.  The last member to arrive checks every buffer
        against the root's payload and raises :class:`CommError` naming
        both signatures on a mismatch.  A shape-only buffer is also a
        shape rule: a deferring engine hands a non-root its own symbolic
        buffer back instead of waiting for the root to arrive.
        """
        self._check_root(root)
        if self.size == 1:
            return self._immediate(self._expect_varray(arr, "broadcast payload"))
        spec = self._spec("broadcast", root)
        if self.rank == root:
            self._expect_varray(arr, "broadcast payload at root")
            rule = LOCAL_ECHO
        elif arr is not None and self._expect_varray(
                arr, "broadcast receive buffer").data is None:
            rule = LOCAL_ECHO
        else:
            rule = spec.local  # the root's payload, once it is there
        return self._run(spec, arr, rule, tag)

    def reduce(
        self, arr: VArray, root: int, op: ReduceOp = ReduceOp.SUM, tag: str = ""
    ) -> VArray | None:
        """Reduce to group rank ``root``; non-roots receive None.

        A symbolic combine depends only on shape and dtype, so a
        deferring engine hands a symbolic root its own payload back (the
        completer still checks every member's).
        """
        self._check_root(root)
        self._expect_varray(arr, "reduce payload")
        if self.size == 1:
            return self._immediate(arr)
        if self.rank != root:
            rule = LOCAL_NONE  # non-roots receive nothing
        else:
            rule = LOCAL_ECHO if arr.data is None else None
        return self._run(self._spec("reduce", root, op), arr, rule, tag)

    def all_reduce(self, arr: VArray, op: ReduceOp = ReduceOp.SUM, tag: str = "") -> VArray:
        """All-reduce: every member receives the combined array."""
        self._expect_varray(arr, "all_reduce payload")
        if self.size == 1:
            return self._immediate(arr)
        # Symbolic combine depends only on shape/dtype (uniform across
        # the group, or the completer aborts), so the result is known
        # the moment this rank arrives — and is value-identical to the
        # caller's own symbolic payload.
        return self._run(self._spec("all_reduce", None, op), arr,
                         LOCAL_ECHO if arr.data is None else None, tag)

    def all_gather(self, arr: VArray, tag: str = "") -> list[VArray]:
        """All-gather: every member receives the list of all contributions."""
        self._expect_varray(arr, "all_gather payload")
        if self.size == 1:
            return self._immediate([arr])
        return self._run(self._spec("all_gather"), arr, None, tag)

    def reduce_scatter(
        self, chunks: Sequence[VArray], op: ReduceOp = ReduceOp.SUM, tag: str = ""
    ) -> VArray:
        """Reduce-scatter: member ``i`` receives the reduction of chunk ``i``.

        Each member contributes a list of ``size`` equally-shaped chunks.
        """
        if len(chunks) != self.size:
            raise CommError(
                f"reduce_scatter needs {self.size} chunks, got {len(chunks)}"
            )
        for c in chunks:
            self._expect_varray(c, "reduce_scatter chunk")
        if self.size == 1:
            return self._immediate(chunks[0])
        spec = self._spec("reduce_scatter", None, op)
        # Symbolic combine of chunk ``self.rank`` is shape/dtype-only.
        rule = spec.local if chunks[self.rank].data is None else None
        return self._run(spec, list(chunks), rule, tag)

    def scatter(
        self, chunks: Sequence[VArray] | None, root: int, tag: str = ""
    ) -> VArray:
        """Scatter: root provides ``size`` chunks; member ``i`` gets chunk ``i``."""
        self._check_root(root)
        if self.rank == root:
            if chunks is None or len(chunks) != self.size:
                raise CommError(
                    f"scatter root must provide {self.size} chunks, got "
                    f"{None if chunks is None else len(chunks)}"
                )
            for c in chunks:
                self._expect_varray(c, "scatter chunk")
        if self.size == 1:
            return self._immediate(chunks[0])  # type: ignore[index]
        spec = self._spec("scatter", root)
        payload = list(chunks) if self.rank == root else None
        return self._run(spec, payload, spec.local, tag)

    def gather(self, arr: VArray, root: int, tag: str = "") -> list[VArray] | None:
        """Gather: root receives the list of contributions; others get None."""
        self._check_root(root)
        self._expect_varray(arr, "gather payload")
        if self.size == 1:
            return self._immediate([arr])
        # Non-roots receive nothing; the root needs every payload.
        rule = None if self.rank == root else LOCAL_NONE
        return self._run(self._spec("gather", root), arr, rule, tag)

    def all_to_all(self, chunks: Sequence[VArray], tag: str = "") -> list[VArray]:
        """All-to-all: member ``j`` receives chunk ``j`` from every member."""
        if len(chunks) != self.size:
            raise CommError(f"all_to_all needs {self.size} chunks, got {len(chunks)}")
        for c in chunks:
            self._expect_varray(c, "all_to_all chunk")
        if self.size == 1:
            return self._immediate([chunks[0]])
        return self._run(self._spec("all_to_all"), list(chunks), None, tag)

    def barrier(self, tag: str = "") -> None:
        """Synchronize all members' virtual clocks."""
        if self.size == 1:
            return self._immediate(None)
        # A barrier carries no data; only its timing is deferred.
        return self._run(self._spec("barrier"), None, LOCAL_NONE, tag)

    # --- point-to-point -------------------------------------------------------------

    def send(self, arr: VArray, dst: int, p2p_tag: int = 0, tag: str = "") -> None:
        """Buffered send to group rank ``dst`` (returns immediately).

        Under a fault plan with ``transient_rate > 0`` the injection may
        fail transiently; failed attempts are retried with the plan's
        :class:`~repro.sim.faults.RetryPolicy` (bounded exponential
        backoff), each retry priced in *virtual* time and traced as a
        :class:`~repro.sim.events.RetryEvent`.  The ``CommEvent`` is
        recorded exactly once, on the successful attempt, so per-rank
        volume accounting is invariant under retries.
        """
        self._no_window("send")
        self.ctx.abandon_recording()
        self.ctx.check_faults()
        # p2p observes and publishes real timestamps: land any deferred
        # epoch on true virtual time first (no-op outside the event path).
        self.ctx.engine.sync_rank(self.ctx)
        self._expect_varray(arr, "send payload")
        self._check_root(dst)
        if dst == self.rank:
            raise CommError(f"rank {self.rank} cannot send to itself")
        src_g = self.ctx.rank
        dst_g = self.group.global_rank(dst)
        seq = self.ctx.next_p2p_seq(src_g, dst_g, p2p_tag)
        key = (self.group.ranks, "p2p", src_g, dst_g, p2p_tag, seq)
        t0 = self.ctx.clock.now
        link_latency = self._cost.topology.link(src_g, dst_g).latency
        plan = self.ctx.engine.fault_plan
        if plan is not None and plan.transient_rate > 0.0:
            attempt = 0
            while plan.send_fails(src_g, dst_g, p2p_tag, seq, attempt):
                attempt += 1
                t_fail = self.ctx.clock.now
                if attempt >= plan.retry.max_attempts:
                    raise CommError(
                        f"send {src_g}->{dst_g} (tag={p2p_tag}, seq={seq}) "
                        f"failed transiently {attempt} times; retry budget "
                        f"of {plan.retry.max_attempts} attempts exhausted"
                    )
                # The failed injection burned one link latency, then the
                # sender backs off before the next try.
                self.ctx.clock.advance(
                    link_latency + plan.retry.delay(attempt)
                )
                self.ctx.trace.record(
                    RetryEvent(
                        rank=self.ctx.rank,
                        src=src_g,
                        dst=dst_g,
                        attempt=attempt,
                        t_start=t_fail,
                        t_end=self.ctx.clock.now,
                        tag=tag,
                    )
                )
        # Eager/buffered semantics: the sender pays injection latency only.
        self.ctx.clock.advance(link_latency)
        self.ctx.engine.post_message(key, arr, self.ctx.clock.now)
        if self.ctx.trace.enabled:
            self.ctx.trace.record(
                CommEvent(
                    rank=self.ctx.rank,
                    kind="send",
                    group=(src_g, dst_g),
                    nbytes=arr.nbytes,
                    t_start=t0,
                    t_end=self.ctx.clock.now,
                    tag=tag,
                )
            )

    def recv(self, src: int, p2p_tag: int = 0, tag: str = "") -> VArray:
        """Blocking receive from group rank ``src``.

        A degraded link (:class:`~repro.sim.faults.LinkFault`) scales the
        transfer time; a fault plan with ``jitter > 0`` adds a
        deterministic per-message delivery delay.  A sender that died
        before posting raises :class:`~repro.errors.RankFailureError`
        immediately.
        """
        self._no_window("recv")
        self.ctx.abandon_recording()
        self.ctx.check_faults()
        self.ctx.engine.sync_rank(self.ctx)
        self._check_root(src)
        if src == self.rank:
            raise CommError(f"rank {self.rank} cannot receive from itself")
        src_g = self.group.global_rank(src)
        dst_g = self.ctx.rank
        seq = self.ctx.next_p2p_seq(src_g, dst_g, p2p_tag)
        key = (self.group.ranks, "p2p", src_g, dst_g, p2p_tag, seq)
        t_post = self.ctx.clock.now
        payload, t_sent = self.ctx.engine.take_message(
            key, rank=dst_g, src=src_g
        )
        arr = self._expect_varray(payload, "recv payload")
        t_arrive = t_sent + self._cost.p2p(src_g, dst_g, arr.nbytes)
        plan = self.ctx.engine.fault_plan
        if plan is not None and plan.jitter > 0.0:
            t_arrive += plan.delivery_jitter(src_g, dst_g, p2p_tag, seq)
        self.ctx.clock.sync_to(max(t_arrive, t_post))
        if self.ctx.trace.enabled:
            self.ctx.trace.record(
                CommEvent(
                    rank=self.ctx.rank,
                    kind="recv",
                    group=(src_g, dst_g),
                    nbytes=arr.nbytes,
                    t_start=t_post,
                    t_end=self.ctx.clock.now,
                    tag=tag,
                )
            )
        return arr

    def sendrecv(
        self, arr: VArray, dst: int, src: int, p2p_tag: int = 0, tag: str = ""
    ) -> VArray:
        """Simultaneous shift: send to ``dst`` while receiving from ``src``."""
        self.send(arr, dst, p2p_tag=p2p_tag, tag=tag)
        return self.recv(src, p2p_tag=p2p_tag, tag=tag)
