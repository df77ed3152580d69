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

from contextlib import contextmanager
from typing import Any, Sequence

from repro.comm.group import ProcessGroup
from repro.comm.reduce_ops import ReduceOp, combine
from repro.errors import CommError, RankFailureError, ShapeError
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


class _CollectiveOp:
    """One issued or queued collective: everything needed to finish,
    price and account for it (see :meth:`Communicator._run`)."""

    __slots__ = ("kind", "payload", "finisher_data", "cost_fn", "price_kind",
                 "price_bytes", "nbytes", "tag", "t_post", "handle",
                 "local_result")

    def __init__(self, kind, payload, finisher_data, cost_fn, price_kind,
                 price_bytes, nbytes, tag, local_result=None):
        self.kind = kind
        self.payload = payload
        self.finisher_data = finisher_data
        self.cost_fn = cost_fn  #: zero-arg pricing for the unbatched path
        self.price_kind = price_kind  #: base kind for fused pricing
        self.price_bytes = price_bytes  #: float or zero-arg callable
        self.nbytes = nbytes  #: trace convention bytes (float or callable)
        self.tag = tag
        self.t_post: float = 0.0
        self.handle: PendingResult | None = None
        #: deferred-mode early result: a ``LOCAL_NONE``/``LOCAL_ECHO``
        #: sentinel, a ``(op_index, arrivals) -> (ok, value)`` callable
        #: over the raw arrival map deposited so far, or None when the
        #: result cannot be known before the last member arrives
        self.local_result = local_result


def _barrier_data(ordered: dict[int, Any]) -> dict[int, Any]:
    """Barrier data pass: every member's result is None."""
    return {g: None for g in ordered}


def _describe_ops(win: "_BatchWindow") -> str:
    """Human op list for batch-window failure messages: ``kind:tag, ...``."""
    return ", ".join(
        f"{op.kind}:{op.tag}" if op.tag else op.kind for op in win._ops
    )


class _BatchWindow:
    """Collects the ops queued inside one ``with comm.batch()`` block."""

    __slots__ = ("_comm", "_tag", "_ops")

    def __init__(self, comm: "Communicator", tag: str = ""):
        self._comm = comm
        self._tag = tag
        self._ops: list[_CollectiveOp] = []

    def __len__(self) -> int:
        return len(self._ops)

    def _enqueue(self, op: _CollectiveOp) -> PendingResult:
        op.t_post = self._comm.ctx.clock.now
        op.handle = PendingResult()
        self._ops.append(op)
        return op.handle


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
        self._window: _BatchWindow | None = None
        self._barrier_cost = None  #: lazily built once (hot-path closure)

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
        win = _BatchWindow(self, tag)
        self._window = win
        try:
            yield win
            self._window = None
            self._flush_window(win)
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
            for op in win._ops:
                if op.handle is not None and not op.handle.ready:
                    op.handle._fail(aug)
            raise aug.clone() from None
        except BaseException as exc:
            self._window = None
            for op in win._ops:
                if op.handle is not None and not op.handle.ready:
                    op.handle._fail(exc)
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

    def _run(
        self,
        kind: str,
        payload: Any,
        finisher_data,
        cost_fn,
        nbytes,
        tag: str = "",
        price_kind: str = "",
        price_bytes=0.0,
        local_result=None,
    ):
        """Issue one collective: rendezvous now, or queue it on the window.

        ``nbytes`` is this rank's traffic per the module convention table —
        either a number, or a callable applied to this rank's *result*
        (needed e.g. by broadcast, where non-root callers post None and
        only learn the payload size from the result).  ``price_kind`` and
        ``price_bytes`` feed :meth:`CommCostModel.fused` when the op is
        queued inside a batch window.  ``local_result`` (optional) lets the
        deferred path hand a non-last arriver its result early — see
        ``Engine.fused_collective_deferred``.
        """
        ctx = self.ctx
        ctx.abandon_recording()
        if self._window is not None:
            return self._window._enqueue(
                _CollectiveOp(kind, payload, finisher_data, cost_fn,
                              price_kind, price_bytes, nbytes, tag,
                              local_result=local_result)
            )
        if ctx.engine._deferred:
            # Deferred timing: deposit and run on, skipping op/closure
            # construction entirely — the engine wraps ``finisher_data``/
            # ``cost_fn`` into the same data pass and pricing as the
            # blocking finisher exactly once, on the last arriver, and
            # returns cost *offsets* (the group arrival time is added
            # when the node resolves, the same float arithmetic the
            # blocking path does eagerly).  The deferred gate implies no
            # fault plan, so the full fault check is only needed once a
            # rank is actually marked dead (abort cascades).
            if ctx._crash_at is not None or ctx.engine._dead:
                ctx.check_faults()
            return ctx.engine.collective_deferred_single(
                self.group, ctx, payload, kind,
                finisher_data, cost_fn, local_result,
            )
        return self._run_single(
            _CollectiveOp(kind, payload, finisher_data, cost_fn,
                          price_kind, price_bytes, nbytes, tag,
                          local_result=local_result)
        )

    def _run_single(self, op: _CollectiveOp):
        """Unbatched blocking path: one op, one group-channel generation."""
        self.ctx.check_faults()
        granks = self.group.ranks
        gen = self.ctx.next_group_seq(granks)
        op.t_post = self.ctx.clock.now
        finisher_data, cost_fn = op.finisher_data, op.cost_fn

        def finisher(arrivals: dict[int, Any]):
            t_arrive = max(t for (_, t) in arrivals.values())
            ordered = {g: arrivals[g][0][0] for g in granks}
            per_rank = finisher_data(ordered)
            t_end = t_arrive + cost_fn()
            return {g: [per_rank[g]] for g in granks}, (t_end,)

        res, t_ends = self.ctx.engine.fused_collective(
            granks, gen, self.ctx.rank, ([op.payload], op.t_post),
            (op.kind,), finisher,
        )
        result = res[0] if res else None
        self.ctx.clock.sync_to(t_ends[0])
        if self.ctx.trace.enabled:
            nbytes = op.nbytes(result) if callable(op.nbytes) else op.nbytes
            self.ctx.trace.record(
                CommEvent(
                    rank=self.ctx.rank,
                    kind=op.kind,
                    group=granks,
                    nbytes=nbytes,
                    t_start=op.t_post,
                    t_end=self.ctx.clock.now,
                    tag=op.tag,
                )
            )
        return result

    def _flush_window(self, win: _BatchWindow):
        """Rendezvous once for every op queued in ``win`` (in issue order)."""
        ops = win._ops
        if not ops:
            return
        self.ctx.check_faults()
        granks = self.group.ranks
        ctx = self.ctx
        t_flush = ctx.clock.now
        sig = tuple(op.kind for op in ops)
        cost = self._cost

        def run_data_pass(arrivals: dict[int, Any]):
            # Pass 1: data results per op (fills the byte holders that
            # root-relative ops like broadcast only learn here).
            per_op = []
            for k in range(len(ops)):
                ordered = {g: arrivals[g][0][k] for g in granks}
                per_op.append(ops[k].finisher_data(ordered))
            # Pass 2: fused pricing over the whole sequence.
            items = [
                (op.price_kind,
                 float(op.price_bytes() if callable(op.price_bytes)
                       else op.price_bytes))
                for op in ops
            ]
            offsets = cost.fused(granks, items)
            results = {
                g: [per_op[k][g] for k in range(len(ops))] for g in granks
            }
            return results, offsets

        if ctx.engine._deferred:
            def completer(arrivals: dict[int, Any]):
                results, offsets = run_data_pass(arrivals)
                return results, tuple(offsets)

            # Same group-keyed generation domain as the unbatched
            # deferred path, so a window/non-window mismatch on one
            # generation still meets in the same node.
            res, _ = ctx.engine.fused_collective_deferred(
                self.group, ctx.next_group_seq(self.group), ctx.rank,
                ([op.payload for op in ops], t_flush),
                sig, completer, tuple(op.local_result for op in ops),
            )
            for k, op in enumerate(ops):
                op.handle._resolve(res[k])
            return

        gen = ctx.next_group_seq(granks)

        def finisher(arrivals: dict[int, Any]):
            t_arrive = max(t for (_, t) in arrivals.values())
            results, offsets = run_data_pass(arrivals)
            t_ends = tuple(t_arrive + off for off in offsets)
            return results, t_ends

        res, t_ends = ctx.engine.fused_collective(
            granks, gen, ctx.rank, ([op.payload for op in ops], t_flush),
            sig, finisher,
        )
        ctx.clock.sync_to(t_ends[-1])
        trace_on = ctx.trace.enabled
        total = 0.0
        for k, op in enumerate(ops):
            value = res[k]
            if trace_on:
                nbytes = op.nbytes(value) if callable(op.nbytes) else op.nbytes
                total += nbytes
                ctx.trace.record(
                    CommEvent(
                        rank=ctx.rank,
                        kind=op.kind,
                        group=granks,
                        nbytes=nbytes,
                        t_start=op.t_post,
                        t_end=t_ends[k],
                        tag=op.tag,
                    )
                )
            op.handle._resolve(value)
        if trace_on:
            ctx.trace.record(
                FusedBatchEvent(
                    rank=ctx.rank,
                    group=granks,
                    kinds=sig,
                    nbytes=total,
                    t_start=ops[0].t_post,
                    t_end=t_ends[-1],
                    tag=win._tag,
                )
            )

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
        """Broadcast ``arr`` from group rank ``root``; non-roots may pass None."""
        self._check_root(root)
        if self.size == 1:
            return self._immediate(self._expect_varray(arr, "broadcast payload"))
        if self.rank == root:
            self._expect_varray(arr, "broadcast payload at root")
        root_global = self.group.global_rank(root)
        holder: dict[str, float] = {}

        def data(ordered: dict[int, Any]):
            src = ordered[root_global]
            src = self._expect_varray(src, "broadcast payload at root")
            holder["nbytes"] = src.nbytes
            return {g: src for g in ordered}

        nbytes = arr.nbytes if arr is not None else 0
        result = self._run(
            kind=f"broadcast[root={root}]",
            payload=arr if self.rank == root else None,
            finisher_data=data,
            cost_fn=lambda: self._cost.broadcast(
                self.group.ranks, holder.get("nbytes", nbytes)
            ),
            nbytes=lambda res: res.nbytes,
            tag=tag,
            price_kind="broadcast",
            price_bytes=lambda: holder.get("nbytes", nbytes),
            # Every member's result is the root's payload, available as
            # soon as the root has deposited.
            local_result=lambda k, arrivals: (
                (True, arrivals[root_global][0][k])
                if root_global in arrivals else (False, None)
            ),
        )
        return result

    def reduce(
        self, arr: VArray, root: int, op: ReduceOp = ReduceOp.SUM, tag: str = ""
    ) -> VArray | None:
        """Reduce to group rank ``root``; non-roots receive None."""
        self._check_root(root)
        self._expect_varray(arr, "reduce payload")
        if self.size == 1:
            return self._immediate(arr)
        root_global = self.group.global_rank(root)

        def data(ordered: dict[int, Any]):
            payloads = [self._expect_varray(v, "reduce payload") for v in ordered.values()]
            combined = combine(op, payloads)
            return {g: (combined if g == root_global else None) for g in ordered}

        # Root records the combined buffer it receives; non-roots record
        # their contribution (they receive nothing back).
        return self._run(
            kind=f"reduce[root={root},op={op.value}]",
            payload=arr,
            finisher_data=data,
            cost_fn=lambda: self._cost.reduce(self.group.ranks, arr.nbytes),
            nbytes=lambda res: res.nbytes if res is not None else arr.nbytes,
            tag=tag,
            price_kind="reduce",
            price_bytes=arr.nbytes,
            # Non-roots receive nothing; the root needs every payload.
            local_result=None if self.rank == root else LOCAL_NONE,
        )

    def all_reduce(self, arr: VArray, op: ReduceOp = ReduceOp.SUM, tag: str = "") -> VArray:
        """All-reduce: every member receives the combined array."""
        self._expect_varray(arr, "all_reduce payload")
        if self.size == 1:
            return self._immediate(arr)

        def data(ordered: dict[int, Any]):
            payloads = [self._expect_varray(v, "all_reduce payload") for v in ordered.values()]
            combined = combine(op, payloads)
            return {g: combined for g in ordered}

        return self._run(
            kind=f"all_reduce[op={op.value}]",
            payload=arr,
            finisher_data=data,
            cost_fn=lambda: self._cost.all_reduce(self.group.ranks, arr.nbytes),
            nbytes=arr.nbytes,
            tag=tag,
            price_kind="all_reduce",
            price_bytes=arr.nbytes,
            # Symbolic combine depends only on shape/dtype (uniform across
            # the group, or the completer aborts), so the result is known
            # the moment this rank arrives — and is value-identical to the
            # caller's own symbolic payload.
            local_result=LOCAL_ECHO if arr.is_symbolic else None,
        )

    def all_gather(self, arr: VArray, tag: str = "") -> list[VArray]:
        """All-gather: every member receives the list of all contributions."""
        self._expect_varray(arr, "all_gather payload")
        if self.size == 1:
            return self._immediate([arr])

        def data(ordered: dict[int, Any]):
            gathered = [
                self._expect_varray(v, "all_gather payload") for v in ordered.values()
            ]
            return {g: list(gathered) for g in ordered}

        total = arr.nbytes * self.size
        return self._run(
            kind="all_gather",
            payload=arr,
            finisher_data=data,
            cost_fn=lambda: self._cost.all_gather(self.group.ranks, total),
            nbytes=lambda res: sum(
                p.nbytes for i, p in enumerate(res) if i != self.rank
            ),
            tag=tag,
            price_kind="all_gather",
            price_bytes=total,
        )

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

        def data(ordered: dict[int, Any]):
            out = {}
            for i, g in enumerate(self.group.ranks):
                out[g] = combine(op, [ordered[src][i] for src in self.group.ranks])
            return out

        total = sum(c.nbytes for c in chunks)
        my_chunk = chunks[self.rank]
        return self._run(
            kind=f"reduce_scatter[op={op.value}]",
            payload=list(chunks),
            finisher_data=data,
            cost_fn=lambda: self._cost.reduce_scatter(self.group.ranks, total),
            nbytes=lambda res: res.nbytes,
            tag=tag,
            price_kind="reduce_scatter",
            price_bytes=total,
            # Symbolic combine of chunk ``self.rank`` is shape/dtype-only.
            local_result=(
                (lambda k, arrivals:
                 (True, VArray.symbolic(my_chunk.shape, my_chunk.dtype)))
                if my_chunk.is_symbolic else None
            ),
        )

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
        root_global = self.group.global_rank(root)
        holder: dict[str, float] = {}

        def data(ordered: dict[int, Any]):
            src_chunks = ordered[root_global]
            holder["nbytes"] = sum(c.nbytes for c in src_chunks)
            return {g: src_chunks[i] for i, g in enumerate(self.group.ranks)}

        nbytes = sum(c.nbytes for c in chunks) if chunks else 0
        if self.rank == root:
            # Root keeps its own chunk; it sends everything else.
            my_bytes = sum(
                c.nbytes for i, c in enumerate(chunks) if i != self.rank
            )
        else:
            # Non-roots receive their chunk; its size is only known from
            # the result (the finisher observes the root's chunks).
            my_bytes = lambda res: res.nbytes  # noqa: E731
        return self._run(
            kind=f"scatter[root={root}]",
            payload=list(chunks) if self.rank == root else None,
            finisher_data=data,
            cost_fn=lambda: self._cost.scatter(
                self.group.ranks, holder.get("nbytes", nbytes)
            ),
            nbytes=my_bytes,
            tag=tag,
            price_kind="scatter",
            price_bytes=lambda: holder.get("nbytes", nbytes),
            # Member ``i``'s chunk exists as soon as the root deposits.
            local_result=(
                lambda k, arrivals, _i=self.rank: (
                    (True, arrivals[root_global][0][k][_i])
                    if root_global in arrivals else (False, None)
                )
            ),
        )

    def gather(self, arr: VArray, root: int, tag: str = "") -> list[VArray] | None:
        """Gather: root receives the list of contributions; others get None."""
        self._check_root(root)
        self._expect_varray(arr, "gather payload")
        if self.size == 1:
            return self._immediate([arr])
        root_global = self.group.global_rank(root)

        def data(ordered: dict[int, Any]):
            gathered = [ordered[g] for g in self.group.ranks]
            return {g: (gathered if g == root_global else None) for g in ordered}

        total = arr.nbytes * self.size
        return self._run(
            kind=f"gather[root={root}]",
            payload=arr,
            finisher_data=data,
            cost_fn=lambda: self._cost.gather(self.group.ranks, total),
            nbytes=lambda res: arr.nbytes if res is None else sum(
                p.nbytes for i, p in enumerate(res) if i != self.rank
            ),
            tag=tag,
            price_kind="gather",
            price_bytes=total,
            # Non-roots receive nothing; the root needs every payload.
            local_result=None if self.rank == root else LOCAL_NONE,
        )

    def all_to_all(self, chunks: Sequence[VArray], tag: str = "") -> list[VArray]:
        """All-to-all: member ``j`` receives chunk ``j`` from every member."""
        if len(chunks) != self.size:
            raise CommError(f"all_to_all needs {self.size} chunks, got {len(chunks)}")
        for c in chunks:
            self._expect_varray(c, "all_to_all chunk")
        if self.size == 1:
            return self._immediate([chunks[0]])

        def data(ordered: dict[int, Any]):
            out = {}
            for j, g in enumerate(self.group.ranks):
                out[g] = [ordered[src][j] for src in self.group.ranks]
            return out

        per_pair = max(c.nbytes for c in chunks)
        return self._run(
            kind="all_to_all",
            payload=list(chunks),
            finisher_data=data,
            cost_fn=lambda: self._cost.all_to_all(self.group.ranks, per_pair),
            nbytes=lambda res: sum(
                p.nbytes for i, p in enumerate(res) if i != self.rank
            ),
            tag=tag,
            price_kind="all_to_all",
            price_bytes=per_pair,
        )

    def barrier(self, tag: str = "") -> None:
        """Synchronize all members' virtual clocks."""
        if self.size == 1:
            return self._immediate(None)
        # Barriers are the leanest op on the deferred hot path; both
        # closures are capture-free per call, so build them once.
        cost_fn = self._barrier_cost
        if cost_fn is None:
            cost_fn = self._barrier_cost = (
                lambda: self._cost.barrier(self.group.ranks)
            )
        return self._run(
            kind="barrier",
            payload=None,
            finisher_data=_barrier_data,
            cost_fn=cost_fn,
            nbytes=0,
            tag=tag,
            price_kind="barrier",
            price_bytes=0.0,
            # A barrier carries no data; only its timing is deferred.
            local_result=LOCAL_NONE,
        )

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
