"""Rank-scheduling backends for the SPMD engine.

The engine's channel/mailbox state machine is pure bookkeeping: who
arrived at which collective, which receive is pending, which generation
completed.  *How ranks wait* — what an event is, what happens when a rank
blocks — is the scheduler backend's business.  There are two:

``event`` (the default)
    All ranks of a run execute as steps of one *drive loop*: exactly one
    rank is runnable at any instant, fresh rank tasks are called inline
    on the loop's thread, and only a task that actually blocks parks its
    stack on a per-task baton lock while the drive role moves on (a
    directed hand-off, never a broadcast).  Two engine-visible
    capabilities ride on that: ``run_many`` multiplexes the rank tasks of
    *several engines* onto one run queue (so ``bench/runner.py`` sweeps
    share a single scheduler loop), and ``supports_deferred_sync`` lets
    the engine defer symbolic-mode collective timing entirely — ranks
    deposit their arrival and run on without blocking, completion times
    are resolved as a dependency DAG, and a whole sweep executes with
    zero hand-offs.  Deadlock falls out instantly: a drained run queue
    with blocked tasks *is* the deadlock.

``threaded`` (the reference oracle)
    One preemptive OS thread per rank from a persistent process-global
    pool (:class:`RankPool`), real ``threading`` primitives, and an
    event-driven deadlock :class:`Watchdog` that sleeps until the
    earliest outstanding deadline.  Shares no scheduling code with
    ``event``, which is why the fuzz, fault and deadlock-message suites
    replay every case under both and require identical output.

Determinism across backends
---------------------------
Backends change *when ranks run*, never *what they compute*: reductions
are applied in group-rank order by the last arriver, completion times
are functions of the full arrival map (not arrival order), and fault
cascades are functions of per-rank program order and virtual time only.
The engine-fuzzer corpus asserts bit-identical results, per-rank traces
and virtual times across both backends
(``tests/sim/test_engine_fuzz.py``).

Deadlock semantics under the event backend
------------------------------------------
A waiting rank registers the same ``fire`` callback the threaded
watchdog would run.  When the run queue drains while tasks are still
blocked, the scheduler fires the registered callbacks in registration
order (producing byte-identical :class:`DeadlockError` messages — they
embed ``op_timeout``, not measured wall time), and as a final backstop
force-wakes every blocked task so the engine's own post-wait recovery
paths run, mirroring the ``WATCHDOG_SLACK`` backstop of the threaded
backend.
"""

from __future__ import annotations

import _thread
import heapq
import importlib.util
import os
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = [
    "SchedulerBackend",
    "ThreadedScheduler",
    "EventScheduler",
    "resolve_backend",
    "available_backends",
    "greenlet_available",
    "WATCHDOG_SLACK",
]

#: Extra wall seconds a threaded waiter sleeps past ``op_timeout`` before
#: assuming the watchdog failed and raising the deadlock itself.
WATCHDOG_SLACK = 5.0

#: Environment variable consulted when ``Engine(backend=None)``.
BACKEND_ENV = "REPRO_ENGINE_BACKEND"


class RankPool:
    """Process-global pool of daemon worker threads for rank programs.

    ``run(n, target)`` executes ``target(0) .. target(n-1)`` concurrently
    and returns when all have finished.  The pool *always* holds at least
    as many workers as there are queued tasks, so every rank of a run is
    guaranteed its own thread — ranks block on each other inside
    collectives, which makes bounded pools (and therefore queuing) a
    deadlock, not an optimization.  Idle workers linger ``_IDLE_TIMEOUT``
    seconds so back-to-back :meth:`Engine.run` calls pay zero spawns, then
    exit so test processes shed threads.
    """

    _IDLE_TIMEOUT = 30.0

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._tasks: deque[Callable[[], None]] = deque()
        self._idle = 0
        self._spawned = 0

    def run(self, n: int, target: Callable[[int], None]) -> None:
        """Run ``target(rank)`` for every rank on pool threads; block until done."""
        done = threading.Event()
        state_lock = threading.Lock()
        pending = [n]

        def task_for(rank: int) -> Callable[[], None]:
            def task() -> None:
                try:
                    target(rank)
                finally:
                    with state_lock:
                        pending[0] -= 1
                        if pending[0] == 0:
                            done.set()

            return task

        with self._cond:
            for rank in range(n):
                self._tasks.append(task_for(rank))
            # One worker per queued task; idle workers cover the rest.
            for _ in range(max(0, len(self._tasks) - self._idle)):
                self._spawned += 1
                threading.Thread(
                    target=self._worker,
                    name=f"repro-rank-worker-{self._spawned}",
                    daemon=True,
                ).start()
            self._cond.notify(n)
        done.wait()

    def _worker(self) -> None:
        while True:
            with self._cond:
                self._idle += 1
                try:
                    while not self._tasks:
                        if not self._cond.wait(timeout=self._IDLE_TIMEOUT):
                            if not self._tasks:
                                return
                    task = self._tasks.popleft()
                finally:
                    self._idle -= 1
            task()  # exceptions are captured inside the task closure


class Watchdog:
    """One timer thread for every outstanding rendezvous deadline.

    Waiting ranks register ``(deadline, fire)`` pairs; the single watchdog
    thread sleeps until the earliest deadline and calls ``fire`` (which
    records a :class:`DeadlockError` and releases all waiters) only if the
    wait was not cancelled first.  This replaces per-rank polling wakeups:
    nobody wakes up just to check a clock.  Only the threaded backend
    needs it — the event backend detects a stall the instant its run
    queue drains.

    Deadlines live in a min-heap keyed by ``(deadline, token)`` while the
    ``fire`` callbacks live in a separate token->callback dict.  A cancel
    only removes the dict entry (O(1)); the stale heap entry is reaped
    lazily when it surfaces at the top of the heap in :meth:`_loop`, and
    eagerly compacted away whenever cancelled entries outnumber live ones
    — so the heap stays bounded by ``max(_COMPACT_MIN, 2x live waits)``
    no matter how many waits a long sweep registers and cancels.
    """

    _IDLE_TIMEOUT = 30.0
    #: below this size the heap is never compacted — reaping a few dozen
    #: stale tops lazily is cheaper than rebuilding the heap.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int]] = []
        self._fires: dict[int, Callable[[], None]] = {}
        self._next_token = 0
        self._running = False
        #: the deadline the watchdog thread is currently sleeping toward;
        #: registrations only wake it for *earlier* deadlines, so the
        #: common case (every wait uses the same timeout, deadlines arrive
        #: in increasing order) never touches the watchdog thread at all.
        self._armed = float("inf")

    def register(self, deadline: float, fire: Callable[[], None]) -> int:
        with self._cond:
            token = self._next_token
            self._next_token += 1
            self._fires[token] = fire
            heapq.heappush(self._heap, (deadline, token))
            if not self._running:
                self._running = True
                threading.Thread(
                    target=self._loop, name="repro-watchdog", daemon=True
                ).start()
            elif deadline < self._armed:
                self._cond.notify()
            return token

    def cancel(self, token: int) -> None:
        # No notify: a spurious watchdog wakeup at a stale deadline is
        # harmless (it reaps the top and goes back to sleep).
        with self._cond:
            if self._fires.pop(token, None) is None:
                return
            if (len(self._heap) >= self._COMPACT_MIN
                    and len(self._heap) > 2 * len(self._fires)):
                self._heap = [e for e in self._heap if e[1] in self._fires]
                heapq.heapify(self._heap)

    def _loop(self) -> None:
        with self._cond:
            while True:
                heap = self._heap
                while heap and heap[0][1] not in self._fires:
                    heapq.heappop(heap)  # reap cancelled entries lazily
                if not heap:
                    self._armed = float("inf")
                    if not self._cond.wait(timeout=self._IDLE_TIMEOUT):
                        if not self._heap:
                            self._running = False
                            return
                    continue
                deadline, token = heap[0]
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    self._armed = deadline
                    self._cond.wait(timeout=remaining)
                    self._armed = float("inf")
                    continue
                heapq.heappop(heap)
                fire = self._fires.pop(token)
                self._cond.release()
                try:
                    fire()
                finally:
                    self._cond.acquire()


#: Process-global singletons shared by every threaded-backend engine.
pool = RankPool()
watchdog = Watchdog()


def greenlet_available() -> bool:
    """True when :mod:`greenlet` is importable.

    No backend uses it; the name stays only because
    ``benchmarks/e2e/e2e_child.py`` imports it for its ``env`` block.
    """
    return importlib.util.find_spec("greenlet") is not None


class SchedulerBackend:
    """How the engine runs rank programs and waits at blocking points.

    A backend supplies the synchronization primitives the engine's state
    machine is parameterized over:

    * :meth:`make_lock` — guards mailbox shards / channels / error state;
    * :meth:`make_event` — one per fused generation / pending receive;
      the engine only ever calls ``.set()`` on it;
    * :meth:`wait` — block the calling rank on an event with a deadlock
      deadline (``fire`` is the engine callback that names the missing
      ranks and releases everyone);
    * :meth:`run` — execute ``worker(0) .. worker(n-1)`` to completion.

    ``worker`` must not raise (the engine catches everything inside it).
    """

    name: str = "?"
    #: True when the engine may defer symbolic-mode collective timing:
    #: deposit-and-run-on instead of blocking at every rendezvous, with
    #: completion times resolved later as a dependency DAG.  Requires
    #: that at most one rank executes engine code at any instant *and*
    #: instant deadlock detection (the engine leans on the
    #: drained-run-queue callback to name incomplete collectives).
    supports_deferred_sync: bool = False

    def run(self, n: int, worker: Callable[[int], None]) -> None:
        raise NotImplementedError

    def run_many(
        self, jobs: "list[tuple[int, Callable[[int], None]]]"
    ) -> None:
        """Run several ``(n, worker)`` jobs; backends may multiplex them.

        The default runs the jobs back to back — correct for any backend.
        The event backend overrides this to interleave all jobs' rank
        tasks on one run queue, so a sweep over many engines shares a
        single scheduler loop.
        """
        for n, worker in jobs:
            self.run(n, worker)

    def make_event(self) -> Any:
        raise NotImplementedError

    def make_lock(self) -> Any:
        raise NotImplementedError

    def wait(
        self, event: Any, timeout: float, fire: Callable[[], None]
    ) -> None:
        raise NotImplementedError


class ThreadedScheduler(SchedulerBackend):
    """One preemptive OS thread per rank (the original engine design).

    Kept as the independent reference the event backend is compared
    against, not as a faster or slower alternative to choose between.
    """

    name = "threaded"

    def run(self, n: int, worker: Callable[[int], None]) -> None:
        pool.run(n, worker)

    def make_event(self) -> threading.Event:
        return threading.Event()

    def make_lock(self) -> threading.Lock:
        return threading.Lock()

    def wait(
        self, event: threading.Event, timeout: float, fire: Callable[[], None]
    ) -> None:
        token = watchdog.register(time.monotonic() + timeout, fire)
        try:
            event.wait(timeout + WATCHDOG_SLACK)
        finally:
            watchdog.cancel(token)


class _Event:
    """Flag + waiter list; ``set()`` moves waiters onto the run queue."""

    __slots__ = ("_sched", "_flag", "_waiters")

    def __init__(self, sched: "EventScheduler"):
        self._sched = sched
        self._flag = False
        self._waiters: list[_Task] = []

    def set(self) -> None:
        self._flag = True
        waiters = self._waiters
        if waiters:
            runnable = self._sched._runnable
            for t in waiters:
                # Skip entries gone stale through a force-wake: a task
                # only re-runs if it is still blocked *on this event*.
                if t.state == "blocked" and t.wait_event is self:
                    t.state = "runnable"
                    t.wait_event = None
                    runnable.append(t)
            waiters.clear()

    def is_set(self) -> bool:
        return self._flag


class _Task:
    """One rank's scheduling state under the event backend."""

    __slots__ = ("index", "state", "wait_event", "fire", "fire_seq",
                 "baton")

    def __init__(self, index: int):
        self.index = index
        self.state = "runnable"  #: runnable | running | blocked | finished
        self.wait_event: _Event | None = None
        #: one-shot deadline callback for the wait in progress, fired in
        #: registration (``fire_seq``) order when the run queue drains
        self.fire: Callable[[], None] | None = None
        self.fire_seq = 0
        #: pre-acquired lock this task's stack parks on once it has
        #: blocked; ``None`` while the task is fresh (never started or
        #: never blocked), which is what lets the drive loop call it inline
        self.baton: Any = None


class _DriverPool:
    """Process-global pool of parked threads that carry the event drive role.

    The event backend runs rank tasks *inline* on whichever thread
    currently holds the drive role.  When an inline task blocks, its
    stack owns that thread, so the role must migrate: ``dispatch(fn)``
    wakes exactly one parked pool thread to run ``fn`` (the scheduler's
    drive loop), spawning a new daemon thread only when none is parked.
    Threads return to the pool when their drive loop ends and linger
    ``_IDLE_TIMEOUT`` seconds, so repeated runs and many scheduler
    instances share a handful of threads instead of spawning per block.
    """

    _IDLE_TIMEOUT = 30.0

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sem = threading.Semaphore(0)
        self._fns: deque[Callable[[], None]] = deque()
        self._idle = 0
        self._spawned = 0

    def dispatch(self, fn: Callable[[], None]) -> None:
        spawn = False
        with self._lock:
            self._fns.append(fn)
            if self._idle < len(self._fns):
                self._idle += 1  # reserve the thread we are about to spawn
                self._spawned += 1
                spawn = True
                serial = self._spawned
        if spawn:
            threading.Thread(
                target=self._worker,
                name=f"repro-event-driver-{serial}",
                daemon=True,
            ).start()
        self._sem.release()

    def _worker(self) -> None:
        while True:
            if not self._sem.acquire(timeout=self._IDLE_TIMEOUT):
                with self._lock:
                    if not self._fns:
                        self._idle -= 1
                        return
                continue  # a dispatch raced the timeout; take its permit
            with self._lock:
                fn = self._fns.popleft()
                self._idle -= 1
            try:
                fn()
            finally:
                with self._lock:
                    self._idle += 1


_drivers = _DriverPool()


class EventScheduler(SchedulerBackend):
    """Single-thread run loop with resumable steps and deferred sync.

    All ranks of a run execute as steps of one *drive loop* on a single
    thread: the loop pops the explicit run queue and calls fresh rank
    tasks inline — no OS thread per rank, no futex wakes.  A
    symbolic-mode deferred sweep (``supports_deferred_sync=True``: ranks
    deposit collective arrivals and run straight on) therefore
    degenerates to a plain sequential loop with **zero** hand-offs, which
    is where the backend's order-of-magnitude win over the threaded
    backend comes from.

    Only a task that actually *blocks* (traced/real-mode rendezvous, p2p
    receive, forced clock sync) parks: its stack waits on a
    lazily-allocated baton lock and the drive role migrates — to a parked
    peer via a directed baton release, or to a pooled driver thread
    (:class:`_DriverPool`) when the next step is a fresh task needing a
    free stack.  ``handoffs`` counts exactly these thread-switching
    transfers, so it stays a deterministic function of the schedule and
    is ``0`` for a never-blocking deferred sweep.

    Invariant: at most one task executes engine code at any instant, so
    all scheduler state below is mutated without locks.  Hand-off points
    are exactly the engine's blocking points — channel wait, mailbox
    receive, deferred force-sync — plus task completion.  (Fault *retry*
    sleeps advance virtual time only and never block.)  When the queue
    drains with tasks still blocked, their deadline callbacks fire in
    ``fire_seq`` order, then the force-wake backstop runs; that keeps
    results, traces, clocks and deadlock messages bit-identical to
    ``threaded`` over the fuzzer corpus.  :meth:`run_many` interleaves
    several engines' rank tasks on this one loop so ``bench/runner.py``
    sweeps share a scheduler.
    """

    name = "event"
    supports_deferred_sync = True

    def __init__(self) -> None:
        self._tasks: list[_Task] = []
        self._runnable: deque[_Task] = deque()
        self._next_seq = 0
        self._finished = 0
        self._current: _Task | None = None
        self._live = False
        #: hand-offs performed during the most recent ``run`` — a
        #: deterministic function of the schedule, exported by the
        #: overhead bench as a nightly-diffable metric.
        self.handoffs = 0
        self._worker_fn: Callable[[int], None] | None = None
        self._done: threading.Event | None = None
        self._errors: list[BaseException] = []

    # --- primitives -----------------------------------------------------------

    def make_event(self) -> _Event:
        return _Event(self)

    def make_lock(self) -> threading.Lock:
        # Uncontended by the one-runner invariant, and an uncontended C
        # lock's with-statement is cheaper than a Python-level no-op's
        # ``__enter__``/``__exit__`` calls.
        return threading.Lock()

    def wait(
        self, event: _Event, timeout: float, fire: Callable[[], None]
    ) -> None:
        if event._flag:
            return
        task = self._current
        if task is None:
            # Inline single-rank execution (no scheduler run is active):
            # nobody else exists to set the event, so the stall is already
            # a deadlock — fire the deadline now and let the engine's
            # post-wait recovery path raise.
            fire()
            return
        # The deadline callback lives on the task itself (no registry):
        # it is only consulted on the cold drained-run-queue path, and a
        # task can be inside at most one wait at a time.
        task.fire = fire
        task.fire_seq = self._next_seq
        self._next_seq += 1
        task.state = "blocked"
        task.wait_event = event
        event._waiters.append(task)
        self._suspend(task)
        # No post-resume cleanup needed: every wake path (event set,
        # force-wake, deadline fire) already cleared ``wait_event``/
        # ``fire``, and a stale ``fire`` on a non-blocked task is ignored
        # by ``_pick_next`` and overwritten by the next wait.

    # --- run-queue core -------------------------------------------------------

    def _pick_next(self) -> _Task | None:
        """Next task to run, driving deadlock handling when none exists.

        When the run queue drains with tasks still blocked, fire the
        blocked tasks' deadline callbacks in registration (``fire_seq``)
        order (instant, deterministic deadlock detection); if every
        deadline fired and tasks are *still* blocked, force-wake them all
        so the engine's own post-wait backstops raise.  Returns ``None``
        only when every task has finished.
        """
        runnable = self._runnable
        while True:
            while runnable:
                t = runnable.popleft()
                if t.state == "runnable":
                    return t
            if self._finished >= len(self._tasks):
                return None
            pending = [t for t in self._tasks
                       if t.state == "blocked" and t.fire is not None]
            if pending:
                t = min(pending, key=lambda t: t.fire_seq)
                fire = t.fire
                t.fire = None  # one-shot
                fire()
                continue
            woke = False
            for t in self._tasks:
                if t.state == "blocked":
                    t.state = "runnable"
                    t.wait_event = None
                    runnable.append(t)
                    woke = True
            if not woke:  # pragma: no cover - scheduler invariant
                raise SimulationError(
                    "event scheduler wedged: no runnable, blocked, or "
                    "unfinished task remains"
                )

    def run(self, n: int, worker: Callable[[int], None]) -> None:
        if self._live:
            raise SimulationError(
                "event scheduler is already running a program; one "
                "scheduler instance drives one run at a time (use "
                "run_many to multiplex engines)"
            )
        self._tasks = [_Task(i) for i in range(n)]
        self._runnable = deque(self._tasks)
        self._next_seq = 0
        self._finished = 0
        self._live = True
        self.handoffs = 0
        self._worker_fn = worker
        self._errors = []
        done = self._done = threading.Event()
        try:
            self._drive()
            # The drive role may have migrated to pool threads; wait for
            # the loop that retires the last task to signal completion.
            done.wait()
            if self._errors:
                raise self._errors[0]
        finally:
            self._live = False
            self._worker_fn = None
            self._done = None
            # A stale pointer here would send a later *inline* wait (no
            # run active, e.g. a 1-rank engine sharing this instance)
            # down the park path instead of firing its deadline.
            self._current = None

    def _drive(self) -> None:
        """Run ready steps inline until the role transfers or all finish.

        Fresh tasks execute directly on this thread.  Popping a *parked*
        task instead releases its baton — its stack resumes on the thread
        it blocked on and that thread continues the loop — so this frame
        returns, handing the role away.
        """
        try:
            while True:
                nxt = self._pick_next()
                if nxt is None:
                    self._done.set()  # every task finished
                    return
                if nxt.baton is None:
                    self._current = nxt
                    nxt.state = "running"
                    try:
                        self._worker_fn(nxt.index)
                    except BaseException as exc:
                        self._errors.append(exc)
                    finally:
                        nxt.state = "finished"
                        self._finished += 1
                    continue
                self.handoffs += 1
                nxt.baton.release()
                return
        except BaseException as exc:  # pragma: no cover - wedge invariant
            self._errors.append(exc)
            self._done.set()

    def _suspend(self, task: _Task) -> None:
        # The blocking task's stack owns this thread, so park it on its
        # baton and move the drive role: a parked successor gets a
        # directed baton release (it resumes and keeps driving); a fresh
        # successor needs a free stack, so a pooled driver thread takes
        # over the loop.  Either way: one futex wake per actual block.
        nxt = self._pick_next()
        if nxt is None or nxt is task:
            # Force-woken (or re-picked) without anyone else to run.
            task.state = "running"
            return
        if task.baton is None:
            task.baton = _thread.allocate_lock()
            task.baton.acquire()
        self.handoffs += 1
        if nxt.baton is None:
            self._runnable.appendleft(nxt)  # the driver re-pops it in order
            _drivers.dispatch(self._drive)
        else:
            nxt.baton.release()
        task.baton.acquire()  # park until a drive loop resumes us
        self._current = task
        task.state = "running"

    def run_many(
        self, jobs: "list[tuple[int, Callable[[int], None]]]"
    ) -> None:
        """Interleave all jobs' rank tasks on one run loop.

        Task index ``i`` of the combined run maps onto the job covering
        ``i`` — rank hand-offs then flow freely across engine boundaries,
        so one engine's ranks progress while another's wait at a
        rendezvous.  All participating engines must have been built on
        *this* scheduler instance (their events route through this run
        queue); :func:`repro.sim.engine.run_engines` enforces that.
        """
        if len(jobs) == 1:
            n, worker = jobs[0]
            self.run(n, worker)
            return
        starts: list[int] = []
        total = 0
        for n, _ in jobs:
            starts.append(total)
            total += n
        def dispatch(index: int) -> None:
            for j in range(len(jobs) - 1, -1, -1):
                if index >= starts[j]:
                    jobs[j][1](index - starts[j])
                    return
        self.run(total, dispatch)


def resolve_backend(
    spec: "str | SchedulerBackend | None" = None,
) -> SchedulerBackend:
    """Turn an ``Engine(backend=...)`` argument into a backend instance.

    ``None`` consults the ``REPRO_ENGINE_BACKEND`` environment variable
    and defaults to ``"event"``.
    """
    if isinstance(spec, SchedulerBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "event"
    name = str(spec).strip().lower()
    if name == "event":
        return EventScheduler()
    if name == "threaded":
        return ThreadedScheduler()
    raise ValueError(
        f"unknown engine backend {name!r} (from Engine(backend=...) or "
        f"${BACKEND_ENV}); valid backends: 'threaded', 'event'"
    )


def available_backends() -> tuple[str, ...]:
    """Backend names, oracle first (the cross-backend suites iterate)."""
    return ("threaded", "event")
