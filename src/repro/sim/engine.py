"""SPMD engine with deterministic collective rendezvous.

Each simulated GPU is a rank task running the *actual* parallel algorithm
(the same lines of code a real SPMD program would run) under a scheduler
backend (:mod:`repro.sim.schedulers`).  The engine provides:

* one :class:`~repro.sim.clock.VirtualClock` per rank, advanced by the
  compute cost model for local work and synchronized at collectives;
* a rendezvous service used by :mod:`repro.comm` — all members of a group
  deposit their payloads, the last arriver computes the result and the
  completion time, everyone proceeds with their clock moved to it;
* buffered point-to-point messaging (MPI "bsend" semantics) so ring shifts
  like Cannon's algorithm do not deadlock;
* deadlock detection: a wait that can never complete raises
  :class:`~repro.errors.DeadlockError` naming the missing ranks;
* fail-fast abort: if one rank raises, every other rank is released and
  :meth:`Engine.run` re-raises the original exception.

Determinism: reductions are applied in group-rank order by a single rank,
so results (and therefore every downstream number) are bit-stable across
runs and platforms.

Synchronization design
----------------------
The engine must itself run as fast as the hardware allows — the benchmark
harness calls :meth:`Engine.run` hundreds of times at 64 ranks.

* **Two scheduler backends** (:mod:`repro.sim.schedulers`).  The
  channel/mailbox state machine below is written against a small backend
  interface — ``make_event`` / ``make_lock`` / ``wait`` / ``run`` — so
  *how* ranks wait is swappable.  ``"event"`` (the default) keeps exactly
  one rank runnable on a single drive loop and hands off explicitly at
  every blocking point; a drained run queue with blocked tasks *is* the
  deadlock condition, detected instantly.  ``"threaded"`` (one preemptive
  OS thread per rank from a persistent pool, plus a process-wide watchdog
  thread that sleeps until the earliest outstanding deadline) is the
  independent oracle: ``Engine(backend=...)`` / ``REPRO_ENGINE_BACKEND``
  select it so the fuzz, fault and deadlock suites can require that both
  produce bit-identical results, traces, virtual times and error
  messages.
* **One blocking rendezvous, on a persistent per-group channel.**  Every
  collective goes through :meth:`Engine.fused_collective`: each group
  owns one :class:`_GroupChannel` with an arrival map per generation,
  the last arriver completes the whole generation with a single wakeup
  of exactly its own waiters, and a *batch window* lets a rank queue
  several collectives on the same group and pay one sleep/wake cycle for
  all of them.  The per-rank group sequence counter doubles as the
  generation number, so matching is deterministic under any
  interleaving.  Blocking arrival, wake-up, dead-member failure and
  deadlock naming exist once, here; pending p2p receives own their own
  backend event under one of ``_N_SHARDS`` mailbox locks.
* **Deferred collective timing** (event backend only).  A symbolic-mode
  engine with no fault plan and tracing disabled does not need a
  collective's completion *time* at the moment the rank passes it — only
  its result, which for most op kinds is locally computable from shapes.
  Under a backend with ``supports_deferred_sync`` the engine therefore
  *deposits* the arrival in a :class:`_DeferredNode` and lets the rank
  run straight on with a provisional clock; completion times resolve
  later as a dependency DAG (a node's true arrival is its members'
  resolved previous node plus their logged compute deltas — the same
  float fold the blocking path performs, hence bit-identical times).
  Any observation of real time — ``ctx.now``, a p2p send/receive, the
  end of the run — force-syncs the rank first via
  :meth:`Engine.sync_rank`.  A whole sweep then executes with no
  scheduler hand-off at all, and a run that ends with incomplete nodes
  raises the same :class:`DeadlockError` the blocking path produces,
  named from the earliest incomplete node.

Fault injection
---------------
An engine built with a ``fault_plan`` (:class:`~repro.sim.faults.FaultPlan`)
simulates failures.  A scheduled :class:`~repro.sim.faults.RankCrash`
kills its rank the first time that rank's *virtual* clock reaches the
crash time; the engine marks the rank dead, records a
:class:`~repro.sim.events.FaultEvent`, and **promptly** fails every
channel generation or pending receive the dead rank can no
longer join — surviving partners raise
:class:`~repro.errors.RankFailureError` (naming the dead rank and crash
time) instead of ever reaching the watchdog timeout.  Failure cascades
deterministically: a rank that raises :class:`RankFailureError` is itself
marked dead (with the *root* cause), so transitively-blocked ranks fail
at the first operation — in their own program order — that depends on the
failed component, while unrelated ranks run to completion.  Because both
crash detection and the cascade are functions of per-rank program order
and virtual time only, the same fault plan reproduces a bit-identical
failure trace on every rerun.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import (
    CommError,
    DeadlockError,
    GridError,
    RankFailureError,
    SimulationError,
)
from repro.hardware.spec import ClusterSpec, meluxina
from repro.hardware.topology import Placement, Topology
from repro.sim.clock import VirtualClock
from repro.sim.cost import CollectiveAlg, CommCostModel, ComputeCostModel
from repro.sim.events import ComputeEvent, FaultEvent, MarkerEvent, Trace
from repro.sim.faults import FaultPlan
from repro.sim.memory import MemoryTracker
from repro.sim.schedulers import SchedulerBackend, resolve_backend
from repro.util.mathutil import ceil_div
from repro.util.rng import rng_for
from repro.varray.varray import VArray

__all__ = ["Engine", "RankContext", "run_engines"]

#: Number of independent lock shards for the p2p mailbox registry.
#: Must be a power of two (shard selection is ``hash & (_N_SHARDS - 1)``).
_N_SHARDS = 16


class _FusedGen:
    """One generation of a group channel: the in-flight fused rendezvous.

    A generation covers *one or more* collectives (a batch window queues
    several); ``sig`` is the tuple of op kinds every rank must agree on,
    ``arrivals`` maps rank to ``(per-op payload list, flush time)``, and
    ``t_ends`` are the synchronized per-op completion times produced by
    the finisher on the last arriver's thread.
    """

    __slots__ = ("sig", "arrivals", "results", "t_ends", "done", "event",
                 "failed")

    def __init__(self, sig: tuple[str, ...], event: Any):
        self.sig = sig
        self.arrivals: dict[int, Any] = {}
        self.results: dict[int, list[Any]] = {}
        self.t_ends: tuple[float, ...] = ()
        self.done = False
        self.event = event  #: backend event; set once when done or failed
        self.failed: RankFailureError | None = None  #: a member died


class _DeferredNode:
    """One deferred fused generation: arrivals now, timing later.

    Duck-types the ``arrivals``/``sig``/``done``/``failed`` surface of
    :class:`_FusedGen` so :meth:`Engine._fused_deadlock_error` names an
    incomplete node with the byte-identical message the blocking path
    produces.  On top of that it carries the resolution DAG: per-member
    links to the member's previous node (plus the clock deltas logged in
    between), the completer's results/offsets, and dependency counters
    so completion times resolve in topological order.
    """

    __slots__ = ("granks", "gen", "sig", "seq", "size", "arrivals", "links",
                 "waiters", "results", "offsets", "t_ends", "done",
                 "resolved", "unresolved_inputs", "dependents", "failed")

    def __init__(self, granks: tuple[int, ...], gen: int,
                 sig: tuple[str, ...], seq: int):
        self.granks = granks
        self.gen = gen
        self.sig = sig
        self.seq = seq  #: global creation order (deadlock naming)
        self.size = len(granks)
        #: rank -> (per-op payload list, provisional arrival time)
        self.arrivals: dict[int, tuple[list[Any], float]] = {}
        #: rank -> (previous node or None, clock deltas since its pickup)
        self.links: dict[int, tuple["_DeferredNode | None",
                                    tuple[float, ...]]] = {}
        #: ranks blocked for a result that is not locally computable
        self.waiters: dict[int, Any] = {}
        self.results: dict[int, list[Any]] = {}
        #: per-op completion offsets from the group arrival time
        self.offsets: tuple[float, ...] = ()
        self.t_ends: tuple[float, ...] = ()
        self.done = False        #: all members deposited
        self.resolved = False    #: t_ends computed
        self.unresolved_inputs = 0
        self.dependents: list["_DeferredNode"] = []
        self.failed = None  #: _FusedGen duck-typing (never set: no faults)


#: Sentinel ``local_result`` markers for the deferred path.  The common
#: early-result shapes need no per-op closure: a timing-only op whose
#: result is always ``None`` (barrier, non-root reduce/gather) passes
#: ``LOCAL_NONE``; a symbolic op whose result is value-identical to the
#: caller's own payload (symbolic all_reduce: same shape, same dtype, no
#: data) passes ``LOCAL_ECHO``.  Anything shape-changing or dependent on
#: another rank's arrival stays a ``(op_index, arrivals) -> (ok, value)``
#: callable.
LOCAL_NONE = object()
LOCAL_ECHO = object()

#: Interned single-op signature tuples: the unbatched deposit path runs
#: once per rank per collective, so even the ``(kind,)`` allocation is
#: worth hoisting.
_SIG1: dict[str, tuple[str, ...]] = {}


class _GroupChannel:
    """Persistent fused-rendezvous state for one rank group.

    The channel outlives individual collectives: back-to-back same-group
    calls reuse its lock and its generation table.  At most two
    generations are ever live at once (a rank that completed generation
    ``g`` may arrive for ``g + 1`` while a peer has not yet picked up its
    ``g`` result), so the table stays tiny.
    """

    __slots__ = ("lock", "granks", "size", "gens")

    def __init__(self, granks: tuple[int, ...], lock: Any):
        self.lock = lock
        self.granks = granks
        self.size = len(granks)
        self.gens: dict[int, _FusedGen] = {}


class _Mailbox:
    """Buffered p2p message slot (sender does not block)."""

    __slots__ = ("payload", "t_sent")

    def __init__(self, payload: Any, t_sent: float):
        self.payload = payload
        self.t_sent = t_sent


class _Shard:
    """One lock's worth of the p2p mailbox registry."""

    __slots__ = ("lock", "mailboxes", "recv_waiters")

    def __init__(self, lock: Any) -> None:
        self.lock = lock
        self.mailboxes: dict[Any, _Mailbox] = {}
        self.recv_waiters: dict[Any, Any] = {}


class _Tape:
    """What the pass being recorded by :meth:`RankContext.replay` did."""

    __slots__ = ("dts", "stashes", "mem_changes")

    def __init__(self, mem_changes: int):
        #: healthy price of every ``compute``, in program order; one entry
        #: per kernel, never summed, so a replay makes the same float adds
        self.dts: list[float] = []
        #: ``(module, tensors)`` of every ``Module.save_for_backward``
        self.stashes: list[tuple[Any, tuple]] = []
        #: ``MemoryTracker.changes`` if nothing but those stashes touched
        #: the tracker since the recording began
        self.mem_changes = mem_changes


class _NotShapeOnly(Exception):
    """A pass returned something a replay cannot hand out again."""


def _copy_shapes(x: Any) -> Any:
    """Copy a pass result so that it can be handed out more than once.

    Lists and tuples are rebuilt, because callers edit them; shape-only
    arrays are shared, because nothing writes ``.data`` or ``.shape`` of
    a :class:`VArray` after construction.  Real data, or any other kind
    of object, raises :class:`_NotShapeOnly`.
    """
    kind = type(x)
    if kind is list:
        return [_copy_shapes(v) for v in x]
    if kind is tuple:
        return tuple([_copy_shapes(v) for v in x])
    if x is None or (kind is VArray and x.data is None):
        return x
    raise _NotShapeOnly


#: ``RankContext._recordings`` lookup miss (``None`` means "never replay")
_UNSEEN = object()


class RankContext:
    """Everything one simulated rank needs: identity, clock, accounting.

    Instances are created by :meth:`Engine.run` and passed as the first
    argument to the rank function.  Algorithm code charges local work via
    :meth:`compute` and performs communication through
    :class:`repro.comm.Communicator` objects built from this context.
    """

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.nranks = engine.nranks
        self.clock = VirtualClock()
        self.trace = engine.trace
        self.mode = engine.mode
        self.mem = MemoryTracker(capacity_bytes=engine.cluster.gpu.memory_bytes)
        #: the compute model's price table, read directly by :meth:`compute`
        self._op_times = engine.compute_model.op_times
        #: per-group collective sequence counters (consistent across ranks
        #: because every rank issues the same collectives in the same order)
        self._group_seq: dict[tuple[int, ...], int] = {}
        #: per-(src, dst, tag) p2p sequence counters
        self._p2p_seq: dict[tuple[int, int, Any], int] = {}
        plan = engine.fault_plan
        #: effective virtual crash time for this rank (None = immortal):
        #: the engine-resolved minimum of its personal crash and any
        #: NodeCrash covering its host node
        site = engine._crash_site.get(rank)
        self._crash_at = site[0] if site is not None else None
        #: the node whose correlated loss kills this rank (None when the
        #: effective crash is a personal RankCrash, or no crash at all)
        self._crash_node = site[1] if site is not None else None
        #: straggler multiplier for local kernels; windowed slowdowns
        #: (ComputeSlowdown.until) re-evaluate the factor per kernel start
        self._compute_factor = (
            plan.compute_factor(rank) if plan is not None else 1.0
        )
        self._windowed_slowdown = (
            plan is not None and plan.has_windowed_slowdown(rank)
        )
        #: virtual seconds this rank spent in local kernels — unlike the
        #: clock (which collectives drag forward to the slowest member),
        #: this isolates per-rank compute, so the elastic controller can
        #: detect stragglers from it (deterministic across backends)
        self.compute_seconds = 0.0
        #: kernels priced on this rank, whether executed or replayed: the
        #: same in a real-mode and a symbolic run of one program
        self.kernels = 0
        #: :meth:`replay` state.  Only a healthy symbolic rank replays: a
        #: crash site needs the fault check after every kernel and a
        #: slow-down (the factor counts windowed entries too) reprices each
        #: kernel by its start time, so a faulted rank, like a real-mode or
        #: a traced one, executes every pass.
        self._replays = (
            self.mode == "symbolic"
            and self._crash_at is None
            and self._compute_factor == 1.0
        )
        self._tape: _Tape | None = None  #: the open recording, if any
        #: key -> (dts, stashes, result), or None for a key whose pass did
        #: something that cannot be replayed; cleared when the run ends
        self._recordings: dict[Any, tuple | None] = {}
        self._stash_pool: dict[tuple, tuple] = {}  #: see :meth:`_pooled`
        #: deferred-timing state (event backend): the last deferred node
        #: this rank picked up, how many of its nodes are unresolved, and
        #: the event a force-sync is parked on (swept by ``_abort``)
        self._prev_node: _DeferredNode | None = None
        self._pending = 0
        self._sync_event: Any = None

    # --- local work -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time of this rank."""
        self._tape = None  # a pass that reads the clock is not replayable
        if self._prev_node is not None:
            self.engine.sync_rank(self)
        return self.clock.now

    @property
    def symbolic(self) -> bool:
        """True when the engine runs in shape-only (symbolic) mode."""
        return self.mode == "symbolic"

    def compute(
        self, flops: float, bytes_touched: float = 0.0, tag: str = "",
        min_dim: float | None = None,
    ) -> None:
        """Charge one local kernel to this rank's clock.

        ``min_dim`` is the smallest matmul dimension, used by the compute
        model's tile-quantization penalty (see :class:`GPUSpec`).
        """
        clock = self.clock
        t0 = clock.now
        # the healthy-GPU price depends on the kernel's size alone, so it is
        # read from the cost model's table; slow-downs apply to that price
        dt = self._op_times.get((flops, bytes_touched, min_dim))
        if dt is None:
            dt = self.engine.compute_model.op_time(flops, bytes_touched, min_dim)
        self.kernels += 1
        if self._tape is not None:
            self._tape.dts.append(dt)
        if self._windowed_slowdown:
            dt *= self.engine.fault_plan.compute_factor(self.rank, now=t0)
        elif self._compute_factor != 1.0:
            dt *= self._compute_factor
        t1 = clock.advance(dt)
        self.compute_seconds += dt
        if self.trace.enabled:
            self.trace.record(
                ComputeEvent(
                    rank=self.rank,
                    t_start=t0,
                    t_end=t1,
                    flops=flops,
                    bytes_touched=bytes_touched,
                    tag=tag,
                )
            )
        if self._crash_at is not None:
            self.check_faults()

    def marker(self, name: str) -> None:
        """Drop a named marker at the current simulated time."""
        self._tape = None  # reads the clock, like ``now``
        self.trace.record(MarkerEvent(rank=self.rank, t=self.clock.now, name=name))

    # --- replaying a symbolic pass ------------------------------------------------

    #: recordings kept per rank; like the price table, a full table stops
    #: growing and later keys simply execute
    MAX_RECORDINGS = 1 << 8

    def replay(self, key: Any, fn: Callable[[], Any]) -> Any:
        """Run the communication-free pass ``fn``, or replay its recording.

        The caller guarantees that in symbolic mode everything ``fn``
        does to this rank is fixed by ``key`` (the owning object, the
        entry point, the shape, dtype and symbolic flag of every
        operand).  The first time the rank sees a key the pass executes
        while a :class:`_Tape` notes each kernel's price, each
        ``save_for_backward`` stash and the result; afterwards the pass
        is not run: the same prices are added to the clock and to
        ``compute_seconds`` one by one, the stashes go through
        ``save_for_backward`` again (so the memory tracker sees an
        executed pass) and the result's containers are rebuilt around the
        recorded shape-only arrays.

        Whether to replay is decided from what the rank can observe, not
        by an option: real-mode, traced and faulted ranks call ``fn()``.
        A pass that communicates, reads the clock, changes the memory
        tracker other than by stashing (``Module.saved`` frees, so it
        counts), returns real data or reaches another ``replay`` abandons
        its recording: it still runs to the end, and its key is never
        replayed.
        """
        if not self._replays or self.trace.enabled:
            return fn()
        self._tape = None  # a pass that nests another is not replayable
        recordings = self._recordings
        rec = recordings.get(key, _UNSEEN)
        if rec is None:
            return fn()
        if rec is _UNSEEN:
            if len(recordings) >= self.MAX_RECORDINGS:
                return fn()
            return self._record(key, fn)
        dts, stashes, result = rec
        self.compute_seconds = self.clock.advance_each(
            dts, self.compute_seconds
        )
        self.kernels += len(dts)
        for module, tensors in stashes:
            module.save_for_backward(*tensors)
        return _copy_shapes(result)

    def _record(self, key: Any, fn: Callable[[], Any]) -> Any:
        """Execute ``fn`` under a fresh tape; keep it if nothing abandoned."""
        recordings = self._recordings
        recordings[key] = None  # until the pass proves replayable
        tape = self._tape = _Tape(self.mem.changes)
        try:
            result = fn()
        finally:
            intact = self._tape is tape
            self._tape = None
        if intact and self.mem.changes == tape.mem_changes:
            try:
                kept = _copy_shapes(result)
            except _NotShapeOnly:
                return result
            recordings[key] = (tuple(tape.dts), self._pooled(tape.stashes),
                               kept)
        return result

    def _pooled(self, stashes: list[tuple[Any, tuple]]) -> tuple:
        """``stashes`` as a tuple, shared with every earlier recording that
        stashed signature-equal arrays on the same modules: passes that
        differ only in, say, the KV length they attend over stash the same
        activations, and the stashes are most of a recording's bytes."""
        try:
            signature = tuple([
                (module, tuple([t.signature() if type(t) is VArray else t
                                for t in tensors]))
                for module, tensors in stashes
            ])
            return self._stash_pool.setdefault(signature, tuple(stashes))
        except TypeError:  # an unhashable stash member: keep it apart
            return tuple(stashes)

    def abandon_recording(self) -> None:
        """The running pass did something no replay could repeat (called
        by :class:`~repro.comm.communicator.Communicator` on every
        collective, p2p and batch window)."""
        self._tape = None

    def check_faults(self) -> None:
        """Die if this rank's scheduled crash time has passed.

        Called after every local kernel and at every communication entry
        point, so crash detection is a function of *virtual* time and
        program order only — never of wall-clock interleaving.  A rank
        already marked dead (by its crash or by a cascaded failure) raises
        the recorded cause again, so programs that swallow the error
        cannot keep communicating.
        """
        eng = self.engine
        if eng._dead:
            cause = eng._dead.get(self.rank)
            if cause is not None:
                raise cause.clone()
        if self._crash_at is not None and self.clock.now >= self._crash_at:
            raise eng._kill(self.rank, self._crash_at, node=self._crash_node)

    def rng(self, *tags) -> "Any":
        """Rank-independent named RNG stream (same data on every rank)."""
        return rng_for(self.engine.seed, *tags)

    def rank_rng(self, *tags) -> "Any":
        """Rank-specific named RNG stream."""
        return rng_for(self.engine.seed, "rank", self.rank, *tags)

    # --- sequence numbers -------------------------------------------------------

    def next_group_seq(self, granks: tuple[int, ...]) -> int:
        seq = self._group_seq.get(granks, 0)
        self._group_seq[granks] = seq + 1
        return seq

    def next_p2p_seq(self, src: int, dst: int, tag: Any) -> int:
        key = (src, dst, tag)
        seq = self._p2p_seq.get(key, 0)
        self._p2p_seq[key] = seq + 1
        return seq


class Engine:
    """The SPMD simulation engine.

    Parameters
    ----------
    cluster:
        Hardware description; defaults to a MeluXina slice big enough for
        ``nranks`` (4 GPUs per node).
    nranks:
        Number of ranks to simulate.
    mode:
        ``"real"`` (numpy data flows through every op) or ``"symbolic"``
        (shape-only; used by the paper-scale benchmarks).
    placement:
        Rank-to-node placement policy.
    comm_alg:
        Collective pricing family (see :class:`CollectiveAlg`).
    op_timeout:
        Wall-clock seconds a rank may wait inside one rendezvous before the
        threaded backend's watchdog declares a deadlock.  The event
        backend detects the same deadlocks instantly (a drained run queue
        with blocked ranks cannot recover); the value still appears in
        its error messages so diagnostics are backend-independent.
    seed:
        Base seed for all RNG streams.
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` of injected failures
        (rank crashes, correlated node losses, link degradation,
        stragglers, transient sends, delivery jitter).  ``None`` simulates
        a healthy cluster.
    backend:
        Scheduler backend: ``"event"`` (default: one drive loop, deferred
        collective timing, multi-engine multiplexing), ``"threaded"``
        (one OS thread per rank; the reference the test suites compare
        against), or a :class:`~repro.sim.schedulers.SchedulerBackend`
        instance.  ``None`` consults ``REPRO_ENGINE_BACKEND``; an
        unrecognized name raises :class:`ValueError`.  Backends trade
        wall-clock dispatch cost only; modeled virtual time, results and
        traces are bit-identical between them.

    Examples
    --------
    >>> from repro.sim import Engine
    >>> eng = Engine(nranks=4)
    >>> def program(ctx):
    ...     ctx.compute(flops=1e9)
    ...     return ctx.rank * 10
    >>> eng.run(program)
    [0, 10, 20, 30]
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        nranks: int | None = None,
        mode: str = "real",
        placement: Placement = Placement.BLOCK,
        comm_alg: CollectiveAlg = CollectiveAlg.AUTO,
        trace: bool = True,
        op_timeout: float = 120.0,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        backend: str | SchedulerBackend | None = None,
    ):
        if mode not in ("real", "symbolic"):
            raise SimulationError(f"mode must be 'real' or 'symbolic', got {mode!r}")
        if nranks is None:
            nranks = cluster.total_gpus if cluster is not None else 1
        if cluster is None:
            cluster = meluxina(ceil_div(nranks, 4))
        self.cluster = cluster
        self.nranks = int(nranks)
        self.mode = mode
        self.seed = seed
        self.op_timeout = op_timeout
        self.topology = Topology(cluster, nranks=self.nranks, placement=placement)
        self.fault_plan = fault_plan
        #: rank -> (effective crash time, node index | None): the merge of
        #: personal RankCrash entries with NodeCrash fault domains resolved
        #: against this engine's topology.  Ties go to the node — the
        #: correlated event subsumes the solo crash.
        self._crash_site: dict[int, tuple[float, int | None]] = {}
        if fault_plan is not None:
            for crash in fault_plan.crashes:
                if not 0 <= crash.rank < self.nranks:
                    raise SimulationError(
                        f"fault plan kills rank {crash.rank}, but the engine "
                        f"has only {self.nranks} ranks"
                    )
                self._crash_site[crash.rank] = (crash.at, None)
            for nc in fault_plan.node_crashes:
                try:
                    members = self.topology.node_ranks(nc.node)
                except GridError:
                    raise SimulationError(
                        f"fault plan kills node {nc.node}, but the engine's "
                        f"topology only uses {self.topology.nodes_used} "
                        f"node(s)"
                    ) from None
                for r in members:
                    prev = self._crash_site.get(r)
                    if prev is None or nc.at <= prev[0]:
                        self._crash_site[r] = (nc.at, nc.node)
            for lf in fault_plan.link_faults:
                self.topology.degrade_link(lf.src, lf.dst, lf.factor)
        self.compute_model = ComputeCostModel(cluster.gpu)
        self.comm_model = CommCostModel(self.topology, alg=comm_alg)
        self.trace = Trace(enabled=trace)

        self._sched = resolve_backend(backend)
        #: resolved backend name ("event" / "threaded")
        self.backend = self._sched.name
        #: the live scheduler backend (the event one exposes ``handoffs``,
        #: the deterministic hand-off count of the most recent run)
        self.scheduler = self._sched
        self._shards = tuple(
            _Shard(self._sched.make_lock()) for _ in range(_N_SHARDS)
        )
        self._channels: dict[tuple[int, ...], _GroupChannel] = {}
        self._channels_lock = self._sched.make_lock()
        self._err_lock = self._sched.make_lock()
        self._error: BaseException | None = None
        #: deferred collective timing: sound only when nothing observable
        #: depends on mid-run wall order — symbolic data (results are
        #: shape-functions), no fault plan (crash times compare against
        #: live clocks), tracing off (events embed times at record time),
        #: and a backend whose one-runner invariant makes the node
        #: bookkeeping below lock-free.  Everything else takes the
        #: blocking path, which is what keeps the event backend
        #: bit-identical over the fuzzer corpus.
        self._deferred = (
            mode == "symbolic"
            and fault_plan is None
            and not self.trace.enabled
            and self.nranks > 1
            and getattr(self._sched, "supports_deferred_sync", False)
        )
        #: (granks, gen) -> incomplete deferred node (deadlock naming
        #: scans this; completed nodes leave it immediately)
        self._dpending: dict[tuple[tuple[int, ...], int], _DeferredNode] = {}
        self._node_seq = 0
        #: global rank -> root-cause failure, for ranks that can no longer
        #: communicate (crashed, or cascaded out by a partner's crash)
        self._dead: dict[int, RankFailureError] = {}
        #: ranks whose *scheduled* crash actually fired (subset of _dead —
        #: cascaded deaths are excluded), and the node fault domains that
        #: fired; together these define :meth:`lost_ranks`
        self._crashed: set[int] = set()
        self._fired_nodes: set[int] = set()
        self.contexts: list[RankContext] = []
        self.closed = False  #: set by :meth:`shutdown` (cache eviction)

    # --- running programs -------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` on every rank; return all results.

        Results are ordered by rank.  If any rank raises, all ranks are
        aborted and the first exception (by rank) is re-raised.  Any
        threads the backend needs come from persistent process-wide
        pools, so calling ``run`` repeatedly (the benchmark harness does,
        hundreds of times) does not pay thread spawn/join per call.
        """
        worker, results, errors = self._prepare_run(fn, args, kwargs)
        if self.nranks == 1:
            worker(0)
        else:
            self._sched.run(self.nranks, worker)
        return self._finish_run(results, errors)

    def _prepare_run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> tuple[Callable[[int], None], list[Any], list[BaseException | None]]:
        """Reset run state and build the rank worker (run = prepare;
        drive the scheduler; finish).  Split out so :func:`run_engines`
        can drive several engines' workers on one multiplexed scheduler
        loop."""
        kwargs = kwargs or {}
        for shard in self._shards:
            shard.mailboxes.clear()
            shard.recv_waiters.clear()
        with self._channels_lock:
            self._channels.clear()
        self._error = None
        self._dead = {}
        self._crashed = set()
        self._fired_nodes = set()
        self._dpending = {}
        self._node_seq = 0
        self.closed = False
        self.contexts = [RankContext(self, r) for r in range(self.nranks)]
        results: list[Any] = [None] * self.nranks
        errors: list[BaseException | None] = [None] * self.nranks

        def worker(rank: int) -> None:
            ctx = self.contexts[rank]
            try:
                results[rank] = fn(ctx, *args, **kwargs)
            except RankFailureError as exc:
                # Injected-fault path: the failure already propagated to
                # exactly the ranks that depend on the dead one (see
                # _mark_dead); unrelated ranks keep running, so this must
                # NOT trip the global abort sweep.
                errors[rank] = exc
                self._mark_dead(rank, exc)
            except BaseException as exc:  # noqa: BLE001 - must abort peers
                errors[rank] = exc
                self._abort(exc)
            finally:
                # recordings die with the program: their keys hold the
                # modules that hold this context, a cycle that would
                # otherwise outlive the engine until the collector ran
                ctx._recordings.clear()
                ctx._stash_pool.clear()

        return worker, results, errors

    def _finish_run(
        self,
        results: list[Any],
        errors: list[BaseException | None],
    ) -> list[Any]:
        """Post-scheduler half of :meth:`run`: deferred finalization and
        error surfacing."""
        if self._deferred:
            self._finalize_deferred()
        for rank, exc in enumerate(errors):
            if exc is not None and not isinstance(exc, _AbortedError):
                raise exc
        if self._error is not None and not isinstance(self._error, _AbortedError):
            # No rank raised directly (e.g. the watchdog flagged a deadlock
            # while every rank merely observed the abort): surface the cause.
            raise self._error
        return results

    def max_time(self) -> float:
        """Largest rank clock after a run — the simulated makespan."""
        if not self.contexts:
            raise SimulationError("engine has not run anything yet")
        return max(ctx.clock.now for ctx in self.contexts)

    # --- failure handling -----------------------------------------------------

    def _abort(self, exc: BaseException) -> None:
        """Record the first failure and release every waiting rank."""
        with self._err_lock:
            if self._error is None:
                self._error = exc
        for shard in self._shards:
            with shard.lock:
                for evt in shard.recv_waiters.values():
                    evt.set()
        with self._channels_lock:
            channels = list(self._channels.values())
        for ch in channels:
            with ch.lock:
                for fg in ch.gens.values():
                    fg.event.set()
        # Deferred-timing waiters (event backend): ranks parked for a
        # non-local result or inside a force-sync.
        for node in self._dpending.values():
            for evt in node.waiters.values():
                evt.set()
        for ctx in self.contexts:
            evt = ctx._sync_event
            if evt is not None:
                evt.set()

    def _check_abort(self) -> None:
        if self._error is not None:
            raise _AbortedError("aborted because another rank failed")

    # --- fault injection -------------------------------------------------------

    def _kill(
        self, rank: int, t: float, node: int | None = None
    ) -> RankFailureError:
        """Execute rank ``rank``'s scheduled crash at virtual time ``t``.

        Records the :class:`FaultEvent`, marks the rank dead (waking every
        pending wait that can no longer complete) and returns the error
        for the dying rank's own thread to raise.  ``node`` names the
        correlated fault domain when the crash is part of a
        :class:`~repro.sim.faults.NodeCrash` — each node member still dies
        by its *own* clock reaching ``t`` (never by a sibling's wall-clock
        progress), which is what keeps node losses bit-identical across
        scheduler backends.
        """
        if node is None:
            cause = RankFailureError(rank, t)
            kind = "crash"
        else:
            cause = RankFailureError(
                rank, t,
                message=(
                    f"rank {rank} died at t={t:.6e}s "
                    f"(node {node} lost: correlated fault domain)"
                ),
            )
            kind = "node_crash"
            self._fired_nodes.add(node)
        self._crashed.add(rank)
        self.trace.record(
            FaultEvent(rank=rank, kind=kind, t=t, detail=str(cause))
        )
        self._mark_dead(rank, cause)
        return cause.clone()

    def lost_ranks(self) -> set[int]:
        """Ranks lost to *fired* scheduled crashes, expanded to whole nodes.

        A node member that never individually reached its crash time (it
        was blocked, or cascaded out by a partner's death first) is still
        lost — the host is gone — so recovery logic must not count it as a
        survivor.  Cascaded deaths of ranks with no fired crash of their
        own are *not* included: that hardware is healthy and available to
        the next restart attempt.
        """
        lost = set(self._crashed)
        for node in self._fired_nodes:
            lost.update(self.topology.node_ranks(node))
        return lost

    def _mark_dead(self, rank: int, cause: RankFailureError) -> None:
        """Mark ``rank`` unable to communicate; promptly fail its waiters.

        Every channel generation or pending receive that is still
        waiting for ``rank`` is marked failed and woken *now* — no
        surviving partner ever rides out the watchdog timeout.  A
        generation the dead rank already deposited into is left alone: it
        can still complete for the others (the crash happened after the
        rank's arrival in its own program order).  ``cause`` is the *root*
        failure, so cascaded deaths keep naming the originally-crashed
        rank.
        """
        with self._err_lock:
            if rank in self._dead:
                return
            self._dead[rank] = cause
        for shard in self._shards:
            with shard.lock:
                for key, evt in shard.recv_waiters.items():
                    if (isinstance(key, tuple) and len(key) >= 4
                            and key[1] == "p2p" and key[2] == rank
                            and key not in shard.mailboxes):
                        evt.set()
        with self._channels_lock:
            channels = [
                ch for ch in self._channels.values() if rank in ch.granks
            ]
        for ch in channels:
            with ch.lock:
                for fg in ch.gens.values():
                    if (not fg.done and fg.failed is None
                            and rank not in fg.arrivals):
                        fg.failed = cause
                        fg.event.set()

    def _fail_rank(self, rank: int, cause: RankFailureError) -> RankFailureError:
        """Cascade: ``rank`` can never finish this op, so it dies too.

        Marking it dead immediately (instead of waiting for the exception
        to unwind to the worker) wakes *its* pending partners without a
        detour through wall-clock time.  Returns the error to raise.
        """
        self._mark_dead(rank, cause)
        return cause.clone()

    def _dead_member(
        self, granks: Sequence[int], arrivals: dict[int, Any]
    ) -> RankFailureError | None:
        """Root cause if some group member is dead and can never arrive."""
        for r in granks:
            cause = self._dead.get(r)
            if cause is not None and r not in arrivals:
                return cause
        return None

    def estimated_footprint(self) -> int:
        """Estimated resident bytes this engine pins while cached.

        Used by the bench engine cache (:mod:`repro.bench.runner`) to
        evict by memory cost rather than by entry count alone.  The
        estimate is deliberately simple and monotone in the things that
        actually grow: per-rank contexts (clock, counters, memory
        tracker), the topology's per-rank tables, and — dominant after a
        traced run — the accumulated trace events.
        """
        per_rank = 4096       # RankContext + clock + seq counters + tracker
        per_event = 200       # dataclass event + list slot + payload floats
        base = 65536          # engine, shards, channels, cost models
        return int(
            base
            + self.nranks * per_rank
            + len(self.trace) * per_event
        )

    def shutdown(self) -> None:
        """Release all rendezvous/trace state (engine-cache eviction).

        The engine stays usable — :meth:`run` rebuilds everything — but a
        shut-down engine holds no payload references (mailboxes, channel
        generations, or the deferred nodes an aborted run leaves behind),
        no trace events and no live rendezvous, so evicting it from a
        cache actually frees memory.
        """
        for shard in self._shards:
            with shard.lock:
                shard.mailboxes.clear()
                shard.recv_waiters.clear()
        with self._channels_lock:
            self._channels.clear()
        self._dpending = {}
        self.trace.clear()
        self.contexts = []
        self._error = None
        self._dead = {}
        self.closed = True

    def _shard(self, key: Any) -> _Shard:
        return self._shards[hash(key) & (_N_SHARDS - 1)]

    # --- group-channel rendezvous ---------------------------------------------

    def _channel(self, granks: tuple[int, ...]) -> _GroupChannel:
        ch = self._channels.get(granks)
        if ch is None:
            with self._channels_lock:
                ch = self._channels.get(granks)
                if ch is None:
                    ch = _GroupChannel(granks, self._sched.make_lock())
                    self._channels[granks] = ch
        return ch

    def fused_collective(
        self,
        granks: tuple[int, ...],
        gen: int,
        rank: int,
        arrival: tuple[list[Any], float],
        sig: tuple[str, ...],
        finisher: Callable[
            [dict[int, Any]], tuple[dict[int, list[Any]], tuple[float, ...]]
        ],
    ) -> tuple[list[Any], tuple[float, ...]]:
        """Join generation ``gen`` of group ``granks``'s fused channel.

        ``arrival`` is ``(per-op payload list, flush time)`` — a plain
        collective passes a one-element list, a batch window passes one
        entry per queued op.  ``sig`` is the tuple of op kinds; every rank
        of the generation must pass an identical ``sig`` or the engine
        aborts with :class:`CommError`.  ``finisher`` runs exactly once,
        on the thread of the last arriver, with the full
        ``{rank: arrival}`` map; it returns per-rank result lists and the
        synchronized per-op completion times.

        The channel persists across the group's whole lifetime (no
        registry entry per call), the last arriver wakes the group with a
        single event broadcast, and a batch amortizes one sleep/wake
        cycle over all its ops.
        """
        if self._error is not None:
            self._check_abort()
        if self._dead:
            cause = self._dead.get(rank)
            if cause is not None:
                raise cause.clone()
        ch = self._channel(granks)
        mismatch: CommError | None = None
        failed: RankFailureError | None = None
        with ch.lock:
            fg = ch.gens.get(gen)
            if fg is None:
                fg = _FusedGen(sig, self._sched.make_event())
                ch.gens[gen] = fg
            if fg.failed is not None:
                failed = fg.failed
            elif self._dead:
                failed = self._dead_member(granks, fg.arrivals)
                if failed is not None:
                    fg.failed = failed
                    fg.event.set()
            if failed is not None:
                pass
            elif fg.sig != sig:
                mismatch = CommError(
                    f"collective mismatch in group {granks} (gen {gen}): "
                    f"rank {rank} called {self._sig_name(sig)!r} but the "
                    f"group already started {self._sig_name(fg.sig)!r}"
                )
            elif rank in fg.arrivals:
                raise CommError(
                    f"rank {rank} joined generation {gen} of group {granks} "
                    f"twice (sequence counters out of sync?)"
                )
            else:
                fg.arrivals[rank] = arrival
                is_last = len(fg.arrivals) == ch.size
        if failed is not None:
            raise self._fail_rank(rank, failed)
        if mismatch is not None:
            self._abort(mismatch)
            raise mismatch

        if is_last:
            # The generation is complete: no thread mutates fg anymore, so
            # the finisher runs without holding the channel lock.
            try:
                fg.results, fg.t_ends = finisher(fg.arrivals)
            except BaseException as exc:
                self._abort(exc)
                raise
            fg.done = True
            fg.event.set()  # one wakeup broadcast for the whole group
        else:
            if self._error is not None:
                # An abort may have swept the channels before our
                # generation was inserted; don't sleep on a dead run.
                fg.event.set()
            self._sched.wait(
                fg.event, self.op_timeout,
                lambda: self._fire_fused_deadlock(granks, gen, fg),
            )
            if not fg.done:
                if fg.failed is not None:
                    raise self._fail_rank(rank, fg.failed)
                self._check_abort()
                # Backstop: the watchdog itself failed to fire.
                err = self._fused_deadlock_error(granks, gen, fg)
                if isinstance(err, RankFailureError):
                    raise self._fail_rank(rank, err)
                self._abort(err)
                raise err

        with ch.lock:
            result = fg.results.pop(rank, None)
            t_ends = fg.t_ends
            fg.arrivals.pop(rank, None)
            # Last rank to pick up its results reclaims the generation.
            if not fg.arrivals:
                ch.gens.pop(gen, None)
        return result if result is not None else [], t_ends

    #: Name kept only because ``benchmarks/e2e/e2e_tracer.py`` wraps
    #: ``Engine.collective``; the keyed rendezvous it once named is gone.
    collective = fused_collective

    @staticmethod
    def _sig_name(sig: tuple[str, ...]) -> str:
        return sig[0] if len(sig) == 1 else f"fused[{', '.join(sig)}]"

    def _fused_deadlock_error(
        self, granks: tuple[int, ...], gen: int, fg: _FusedGen
    ) -> SimulationError:
        arrived = sorted(fg.arrivals)
        missing = sorted(set(granks) - set(arrived))
        for r in missing:
            cause = self._dead.get(r)
            if cause is not None:
                # Not a deadlock: the missing partner is dead.
                return cause.clone()
        return DeadlockError(
            f"rendezvous {(granks, 'coll', gen)} ({self._sig_name(fg.sig)}) "
            f"timed out after {self.op_timeout}s: {len(arrived)}/"
            f"{len(granks)} ranks arrived {arrived}; missing ranks {missing}"
        )

    def _fire_fused_deadlock(
        self, granks: tuple[int, ...], gen: int, fg: _FusedGen
    ) -> None:
        if fg.done or fg.failed is not None or self._error is not None:
            return
        err = self._fused_deadlock_error(granks, gen, fg)
        if isinstance(err, RankFailureError):
            ch = self._channel(granks)
            with ch.lock:
                if fg.failed is None and not fg.done:
                    fg.failed = err
                    fg.event.set()
            return
        self._abort(err)

    # --- deferred collective timing (event backend) ---------------------------
    #
    # All state below is mutated without locks: deferral requires the
    # event backend, whose one-runner invariant makes every method here a
    # critical section by construction.

    def fused_collective_deferred(
        self,
        group: Any,
        gen: int,
        rank: int,
        arrival: tuple[list[Any], float],
        sig: tuple[str, ...],
        completer: Callable[
            [dict[int, Any]], tuple[dict[int, list[Any]], tuple[float, ...]]
        ],
        local_fns: Sequence[Callable[[int, dict[int, Any]],
                                     tuple[bool, Any]] | None],
    ) -> tuple[list[Any], tuple[float, ...]]:
        """Deposit into generation ``gen`` of ``granks`` without blocking
        on the completion *time*.

        The deferred twin of :meth:`fused_collective`: ``completer`` runs
        exactly once on the last arriver with the full arrival map and
        returns per-rank result lists plus per-op cost *offsets* (not
        absolute times — the group arrival time is not known yet).  A
        non-last rank takes a locally computed result when every op's
        ``local_fns`` entry can produce one from the arrivals so far
        (shapes mostly can), and only otherwise parks until completion.
        Either way the rank's clock stays at its own arrival time and a
        new deferred epoch starts; true times materialize later in
        :meth:`_resolve_deferred` / :meth:`sync_rank`.

        ``group`` is the communicator's :class:`ProcessGroup`; deferred
        state is keyed by the group object (cached value hash) — see
        :meth:`collective_deferred_single`.
        """
        if self._error is not None:
            self._check_abort()
        granks = group.ranks
        key = (group, gen)
        node = self._dpending.get(key)
        if node is None:
            node = _DeferredNode(granks, gen, sig, self._node_seq)
            self._node_seq += 1
            self._dpending[key] = node
        if node.sig != sig:
            mismatch = CommError(
                f"collective mismatch in group {granks} (gen {gen}): "
                f"rank {rank} called {self._sig_name(sig)!r} but the "
                f"group already started {self._sig_name(node.sig)!r}"
            )
            self._abort(mismatch)
            raise mismatch
        if rank in node.arrivals:
            raise CommError(
                f"rank {rank} joined generation {gen} of group {granks} "
                f"twice (sequence counters out of sync?)"
            )
        ctx = self.contexts[rank]
        prev = ctx._prev_node
        # Pickup happens at deposit: the link captures the clock deltas
        # logged since the previous node's pickup, the new epoch bases
        # this rank's provisional time on the current node.
        node.links[rank] = (prev, ctx.clock.begin_epoch())
        node.arrivals[rank] = arrival
        ctx._prev_node = node
        ctx._pending += 1
        if len(node.arrivals) == node.size:
            self._complete_deferred(key, node, completer)
            results = node.results.pop(rank)
        else:
            results = self._local_results(node, rank, local_fns)
            if results is None:
                evt = self._sched.make_event()
                node.waiters[rank] = evt
                self._sched.wait(
                    evt, self.op_timeout, self._fire_deferred_deadlock
                )
                if not node.done:
                    self._check_abort()
                    # Backstop (mirrors fused_collective): nothing fired.
                    err = self._fused_deadlock_error(granks, gen, node)
                    self._abort(err)
                    raise err
                results = node.results.pop(rank)
        # Provisional completion: the rank resumes at its own arrival
        # time; the communicator's sync_to of this is a no-op.
        return results, (arrival[1],) * len(sig)

    def collective_deferred_single(
        self,
        group: Any,
        ctx: RankContext,
        payload: Any,
        kind: str,
        finisher_data: Callable[[dict[int, Any]], dict[int, Any]],
        cost_fn: Callable[[], float],
        local: Any,
    ) -> Any:
        """Unbatched deferred deposit, specialized for the per-op hot path.

        Semantically :meth:`fused_collective_deferred` with a one-op
        signature, but shaped for throughput: the per-rank deposit builds
        *no closures and no op object* — ``finisher_data``/``cost_fn``
        are carried raw and wrapped into a completer only by the last
        arriver, so each collective is priced exactly once and the offset
        is broadcast to every member when the node resolves.  The group
        generation counter and arrival clock are read inline here rather
        than through their accessors.  ``local`` is a
        :data:`LOCAL_NONE`/:data:`LOCAL_ECHO` sentinel, a
        ``(op_index, arrivals) -> (ok, value)`` callable, or ``None``.

        ``group`` is the communicator's :class:`ProcessGroup` — deferred
        state (generation counters, pending nodes) is keyed by the group
        *object*, whose value hash is cached, rather than by the rank
        tuple, whose hash is O(members) and would make every deposit's
        bookkeeping linear in group size.  Nodes keep the fused arrival
        shape (``([payload], t)``), so a rank entering a mismatching
        *fused* window on the same generation still gets the
        byte-identical mismatch error.
        """
        if self._error is not None:
            self._check_abort()
        rank = ctx.rank
        granks = group.ranks
        group_seq = ctx._group_seq
        gen = group_seq.get(group, 0)
        group_seq[group] = gen + 1
        sig = _SIG1.get(kind)
        if sig is None:
            sig = _SIG1[kind] = (kind,)
        key = (group, gen)
        node = self._dpending.get(key)
        if node is None:
            node = _DeferredNode(granks, gen, sig, self._node_seq)
            self._node_seq += 1
            self._dpending[key] = node
        elif node.sig != sig:
            mismatch = CommError(
                f"collective mismatch in group {granks} (gen {gen}): "
                f"rank {rank} called {self._sig_name(sig)!r} but the "
                f"group already started {self._sig_name(node.sig)!r}"
            )
            self._abort(mismatch)
            raise mismatch
        arrivals = node.arrivals
        if rank in arrivals:
            raise CommError(
                f"rank {rank} joined generation {gen} of group {granks} "
                f"twice (sequence counters out of sync?)"
            )
        node.links[rank] = (ctx._prev_node, ctx.clock.begin_epoch())
        arrivals[rank] = ([payload], ctx.clock._now)
        ctx._prev_node = node
        ctx._pending += 1
        if len(arrivals) == node.size:
            def completer(arrivals: dict[int, Any]):
                ordered = {g: arrivals[g][0][0] for g in granks}
                per_rank = finisher_data(ordered)
                return {g: [per_rank[g]] for g in granks}, (cost_fn(),)

            self._complete_deferred(key, node, completer)
            return node.results.pop(rank)[0]
        if local is LOCAL_NONE:
            return None
        if local is LOCAL_ECHO:
            return payload
        if local is not None:
            ok, val = local(0, arrivals)
            if ok:
                return val
        evt = self._sched.make_event()
        node.waiters[rank] = evt
        self._sched.wait(evt, self.op_timeout, self._fire_deferred_deadlock)
        if not node.done:
            self._check_abort()
            # Backstop (mirrors fused_collective): nothing fired.
            err = self._fused_deadlock_error(granks, gen, node)
            self._abort(err)
            raise err
        return node.results.pop(rank)[0]

    def _local_results(
        self,
        node: _DeferredNode,
        rank: int,
        local_fns: Sequence[Callable[[int, dict[int, Any]],
                                     tuple[bool, Any]] | None],
    ) -> list[Any] | None:
        """Per-op results computable from the arrivals so far, else None.

        Entries are :data:`LOCAL_NONE`/:data:`LOCAL_ECHO` sentinels or
        callables.  A callable receives its op index and the raw arrival
        map ``{grank: (payloads, t)}`` *by reference* — a fn that only
        needs this rank's own payload (the symbolic-reduce shape rule)
        must not pay for a copy of everyone else's; keeping deposits
        O(ops) is what makes the deferred sweep linear in group size.
        """
        vals: list[Any] = []
        arrivals = node.arrivals
        own: list[Any] | None = None
        for k, fn in enumerate(local_fns):
            if fn is None:
                return None
            if fn is LOCAL_NONE:
                vals.append(None)
                continue
            if fn is LOCAL_ECHO:
                if own is None:
                    own = arrivals[rank][0]
                vals.append(own[k])
                continue
            ok, val = fn(k, arrivals)
            if not ok:
                return None
            vals.append(val)
        return vals

    def _complete_deferred(
        self,
        key: tuple[tuple[int, ...], int],
        node: _DeferredNode,
        completer: Callable[
            [dict[int, Any]], tuple[dict[int, list[Any]], tuple[float, ...]]
        ],
    ) -> None:
        """Last arriver's path: run the completer, wire the node into the
        resolution DAG, wake parked members."""
        try:
            node.results, node.offsets = completer(node.arrivals)
        except BaseException as exc:
            self._abort(exc)
            raise
        node.done = True
        del self._dpending[key]
        inputs = {
            id(prev): prev
            for prev, _ in node.links.values()
            if prev is not None and not prev.resolved
        }
        node.unresolved_inputs = len(inputs)
        for prev in inputs.values():
            prev.dependents.append(node)
        if not node.unresolved_inputs:
            self._resolve_deferred(node)
        waiters = node.waiters
        node.waiters = {}
        for evt in waiters.values():
            evt.set()

    def _resolve_deferred(self, node: _DeferredNode) -> None:
        """Compute true completion times for ``node`` and every dependent
        that becomes resolvable (iterative worklist, no recursion).

        The arithmetic is the blocking finisher's, performed late: each
        member's true arrival is its previous node's last completion time
        folded left-to-right with the member's logged clock deltas; the
        group arrival is the max; per-op completion is arrival + offset.
        """
        stack = [node]
        while stack:
            n = stack.pop()
            t_arrive = 0.0
            for r in n.granks:
                prev, dts = n.links[r]
                if prev is None:
                    t = n.arrivals[r][1]  # clock was true at deposit
                else:
                    t = prev.t_ends[-1]
                    for dt in dts:
                        t += dt
                if t > t_arrive:
                    t_arrive = t
            n.t_ends = tuple(t_arrive + off for off in n.offsets)
            n.resolved = True
            n.arrivals = {}
            n.links = {}
            for r in n.granks:
                ctx = self.contexts[r]
                ctx._pending -= 1
                if ctx._pending == 0 and ctx._sync_event is not None:
                    ctx._sync_event.set()
            dependents = n.dependents
            n.dependents = []
            for dep in dependents:
                dep.unresolved_inputs -= 1
                if not dep.unresolved_inputs:
                    stack.append(dep)

    def sync_rank(self, ctx: RankContext) -> None:
        """Force ``ctx``'s deferred timeline to true virtual time.

        No-op unless the rank has an open deferred epoch.  Called before
        anything that observes real time: ``ctx.now``, p2p send/receive
        and the end-of-run finalization.  If the
        rank's pending nodes cannot resolve yet the rank parks; a drained
        run queue then names the earliest incomplete node, exactly like a
        blocked collective would.
        """
        if ctx._prev_node is None:
            return
        while ctx._pending:
            if self._error is not None:
                self._check_abort()
            evt = self._sched.make_event()
            ctx._sync_event = evt
            self._sched.wait(
                evt, self.op_timeout, self._fire_deferred_deadlock
            )
            ctx._sync_event = None
            if ctx._pending:
                self._check_abort()
                err = self._deferred_deadlock_error()
                self._abort(err)
                raise err
        node = ctx._prev_node
        ctx._prev_node = None
        ctx.clock.end_epoch(node.t_ends[-1])

    def _deferred_deadlock_error(self) -> SimulationError:
        """The earliest incomplete node explains a deferred stall."""
        node = min(self._dpending.values(), key=lambda n: n.seq)
        return self._fused_deadlock_error(node.granks, node.gen, node)

    def _fire_deferred_deadlock(self) -> None:
        if self._error is not None or not self._dpending:
            return
        self._abort(self._deferred_deadlock_error())

    def _finalize_deferred(self) -> None:
        """End-of-run pass: flag leftover incomplete nodes as the deadlock
        they are, then land every rank's clock on true time."""
        if self._error is None and self._dpending:
            # Every rank returned, yet a collective never completed — the
            # blocking backends would have parked its members forever.
            self._abort(self._deferred_deadlock_error())
        if self._error is None:
            for ctx in self.contexts:
                if ctx._prev_node is not None:
                    node = ctx._prev_node
                    ctx._prev_node = None
                    ctx.clock.end_epoch(node.t_ends[-1])

    # --- buffered p2p ---------------------------------------------------------------

    def post_message(self, key: Any, payload: Any, t_sent: float) -> None:
        """Deposit a buffered p2p message (sender side, non-blocking)."""
        self._check_abort()
        shard = self._shard(key)
        with shard.lock:
            if key in shard.mailboxes:
                raise CommError(
                    f"duplicate p2p message at {key}; sequence counters out of sync"
                )
            shard.mailboxes[key] = _Mailbox(payload, t_sent)
            waiter = shard.recv_waiters.get(key)
            if waiter is not None:
                waiter.set()

    def take_message(
        self, key: Any, rank: int | None = None, src: int | None = None
    ) -> tuple[Any, float]:
        """Block until the matching message exists; return (payload, t_sent).

        ``rank`` (the receiver) and ``src`` (the expected sender) are used
        only for fault propagation: a receive whose sender died before
        posting fails immediately with :class:`RankFailureError` — a
        message posted *before* the sender's crash is still delivered
        (program order on the sender decides, deterministically).
        """
        self._check_abort()
        if self._dead and rank is not None:
            cause = self._dead.get(rank)
            if cause is not None:
                raise cause.clone()
        shard = self._shard(key)
        with shard.lock:
            box = shard.mailboxes.pop(key, None)
            if box is None:
                if src is not None and src in self._dead:
                    dead_src = self._dead[src]
                else:
                    dead_src = None
                    evt = shard.recv_waiters.setdefault(
                        key, self._sched.make_event()
                    )
        if box is None:
            if dead_src is not None:
                # Sender is dead and never posted: it can never post.
                if rank is not None:
                    raise self._fail_rank(rank, dead_src)
                raise dead_src.clone()
            if self._error is not None:
                evt.set()
            self._sched.wait(
                evt, self.op_timeout,
                lambda: self._fire_recv_deadlock(key),
            )
            with shard.lock:
                shard.recv_waiters.pop(key, None)
                box = shard.mailboxes.pop(key, None)
            if box is None:
                if src is not None and src in self._dead:
                    # Woken by the death sweep, not by a post.
                    cause = self._dead[src]
                    if rank is not None:
                        raise self._fail_rank(rank, cause)
                    raise cause.clone()
                self._check_abort()
                err = self._recv_deadlock_error(key)
                if isinstance(err, RankFailureError):
                    if rank is not None:
                        raise self._fail_rank(rank, err)
                    raise err
                self._abort(err)
                raise err
        return box.payload, box.t_sent

    def _recv_deadlock_error(self, key: Any) -> SimulationError:
        detail = ""
        if isinstance(key, tuple) and len(key) >= 4 and key[1] == "p2p":
            cause = self._dead.get(key[2])
            if cause is not None:
                # Not a deadlock: the sender died before posting.
                return cause.clone()
            detail = f" (missing sender: rank {key[2]})"
        return DeadlockError(
            f"recv at {key} timed out after {self.op_timeout}s: "
            f"no matching send was posted{detail}"
        )

    def _fire_recv_deadlock(self, key: Any) -> None:
        shard = self._shard(key)
        with shard.lock:
            delivered = key in shard.mailboxes or key not in shard.recv_waiters
        if delivered or self._error is not None:
            return
        self._abort(self._recv_deadlock_error(key))


class _AbortedError(SimulationError):
    """Raised inside non-failing ranks when a peer rank aborted the run."""


def run_engines(
    jobs: Sequence[tuple["Engine", Callable[..., Any]]],
) -> list[list[Any]]:
    """Run several engines' programs multiplexed on one scheduler loop.

    ``jobs`` is a sequence of ``(engine, program)`` pairs.  Every engine
    must have been built on the *same* scheduler backend instance (pass
    ``backend=<instance>`` to each constructor): the backend's events
    route through its own run queue, so tasks of a foreign scheduler
    would never be woken.  With an :class:`~repro.sim.schedulers.
    EventScheduler` the rank tasks of all engines interleave on one run
    queue — a sweep over many engines shares a single scheduler loop
    instead of paying one ``run`` cycle per engine; the threaded backend
    falls back to running the jobs back to back.

    Results are returned per job, in order.  Errors are surfaced after
    *every* engine's run has been finalized, first job first — one
    engine's failure does not leave another's bookkeeping half-done.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    sched = jobs[0][0]._sched
    for engine, _ in jobs:
        if engine._sched is not sched:
            raise SimulationError(
                "run_engines requires all engines to share one scheduler "
                "backend instance; build them with backend=<the same "
                "SchedulerBackend object>"
            )
    prepared = [engine._prepare_run(fn) for engine, fn in jobs]
    sched.run_many(
        [(engine.nranks, prep[0]) for (engine, _), prep in zip(jobs, prepared)]
    )
    out: list[list[Any]] = []
    failure: BaseException | None = None
    for (engine, _), (_, results, errors) in zip(jobs, prepared):
        try:
            out.append(engine._finish_run(results, errors))
        except BaseException as exc:  # noqa: BLE001 - finalize all first
            out.append([])
            if failure is None:
                failure = exc
    if failure is not None:
        raise failure
    return out
