"""Unit tests for the pluggable scheduler backends (`repro.sim.schedulers`).

The engine-level contracts (bit-identical results/traces/clocks across
backends, identical deadlock messages) live in ``test_engine_fuzz.py`` and
``test_deadlock_messages.py``; this module covers the scheduler layer
itself: backend resolution, the event run-queue machinery, hand-off
determinism, and the instant-deadlock property.
"""

import time

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.schedulers import (
    BACKEND_ENV,
    EventScheduler,
    SchedulerBackend,
    ThreadedScheduler,
    Watchdog,
    available_backends,
    resolve_backend,
)


#: names old configs and CI files may still pass: plain unknown names,
#: no special-case error
RETIRED_NAMES = ("baton", "greenlet", "cooperative", "coop")


class TestResolveBackend:
    def test_default_is_event(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None).name == "event"

    def test_explicit_names(self):
        assert isinstance(resolve_backend("threaded"), ThreadedScheduler)
        assert isinstance(resolve_backend("event"), EventScheduler)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "threaded")
        assert resolve_backend(None).name == "threaded"

    def test_instance_passes_through(self):
        sched = EventScheduler()
        assert resolve_backend(sched) is sched

    @pytest.mark.parametrize("name", ("fibers",) + RETIRED_NAMES)
    def test_unknown_name_raises_value_error_listing_backends(self, name):
        with pytest.raises(ValueError, match="unknown engine backend") as ei:
            resolve_backend(name)
        msg = str(ei.value)
        assert msg.endswith("valid backends: 'threaded', 'event'")
        assert BACKEND_ENV in msg

    @pytest.mark.parametrize("name", ("fibers",) + RETIRED_NAMES)
    def test_unknown_env_backend_raises_value_error(self, monkeypatch, name):
        monkeypatch.setenv(BACKEND_ENV, name)
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend(None)
        with pytest.raises(ValueError, match="unknown engine backend"):
            Engine(nranks=2)

    def test_retired_name_via_engine_kwarg_raises_value_error(self):
        with pytest.raises(ValueError, match="'threaded', 'event'"):
            Engine(nranks=2, backend="baton")

    def test_event_backend_supports_deferred_sync(self):
        assert resolve_backend("event").supports_deferred_sync
        assert not resolve_backend("threaded").supports_deferred_sync

    def test_available_backends_is_concrete(self):
        names = available_backends()
        assert names == ("threaded", "event")
        for name in names:
            backend = resolve_backend(name)
            assert isinstance(backend, SchedulerBackend)
            assert backend.name == name


class TestEventRunQueue:
    def test_single_rank_inline_wait_fires_deadline(self):
        """A wait with no scheduler run active is already a deadlock."""
        sched = EventScheduler()
        fired = []
        event = sched.make_event()
        sched.wait(event, timeout=60.0, fire=lambda: fired.append(True))
        assert fired == [True]

    def test_set_event_skips_the_wait(self):
        sched = EventScheduler()
        event = sched.make_event()
        event.set()
        sched.wait(event, timeout=60.0,
                   fire=lambda: pytest.fail("deadline fired on a set event"))

    def test_run_executes_all_ranks_in_order_without_blocking(self):
        sched = EventScheduler()
        order = []
        sched.run(5, order.append)
        assert sorted(order) == [0, 1, 2, 3, 4]

    def test_handoff_count_is_deterministic(self):
        """The hand-off count is a pure function of the schedule.

        Tracing is on, so every barrier takes the blocking path (the
        deferred path never hands off — ``TestEngineOverheadSmoke``
        pins that count at exactly zero).
        """

        def run_once():
            engine = Engine(nranks=8, mode="symbolic", trace=True,
                            backend="event", op_timeout=5.0)
            assert not engine._deferred
            from repro.comm.communicator import Communicator

            def program(ctx):
                comm = Communicator(ctx, tuple(range(8)))
                for _ in range(3):
                    comm.barrier()

            engine.run(program)
            count = engine.scheduler.handoffs
            engine.shutdown()
            return count

        counts = {run_once() for _ in range(3)}
        assert len(counts) == 1
        assert counts.pop() > 0

    def test_reentrant_run_is_rejected(self):
        sched = EventScheduler()
        errors = []

        def worker(rank):
            if rank == 0:
                try:
                    sched.run(1, lambda r: None)
                except SimulationError as exc:
                    errors.append(str(exc))

        sched.run(2, worker)
        assert errors and "already running" in errors[0]


class TestInstantDeadlockDetection:
    def test_event_deadlock_does_not_wait_for_timeout(self):
        """A drained run queue *is* the deadlock — no wall-clock sleep.

        The threaded watchdog can only fire after ``op_timeout`` wall
        seconds; the event backend fires the same callback the moment
        no task can run.  With a 30 s timeout, finishing in well under a
        second proves the detection is instant.
        """
        from repro.comm.communicator import Communicator

        def prog(ctx):
            if ctx.rank == 1:
                return  # rank 1 skips the barrier: guaranteed deadlock
            Communicator(ctx, (0, 1, 2)).barrier()

        engine = Engine(nranks=3, op_timeout=30.0, backend="event")
        t0 = time.monotonic()
        with pytest.raises(DeadlockError, match=r"missing ranks \[1\]"):
            engine.run(prog)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, (
            f"event deadlock detection took {elapsed:.1f}s — it slept "
            f"toward the wall-clock timeout instead of firing instantly"
        )
        # the message still reports the *configured* timeout
        engine.shutdown()


class TestWatchdogHeapBounded:
    """Satellite: cancelled deadline tokens must not accumulate forever."""

    def test_register_cancel_churn_keeps_heap_bounded(self):
        wd = Watchdog()
        far = time.monotonic() + 3600.0
        for i in range(1000):
            token = wd.register(far + i, lambda: pytest.fail("fired"))
            wd.cancel(token)
        with wd._cond:
            assert not wd._fires
            # Compaction triggers at _COMPACT_MIN, so churn can never
            # leave more than one un-compacted batch behind.
            assert len(wd._heap) <= wd._COMPACT_MIN

    def test_bulk_cancel_compacts_against_live_waits(self):
        wd = Watchdog()
        far = time.monotonic() + 3600.0
        live = [wd.register(far + i, lambda: pytest.fail("fired"))
                for i in range(10)]
        stale = [wd.register(far + 100 + i, lambda: pytest.fail("fired"))
                 for i in range(500)]
        for token in stale:
            wd.cancel(token)
        with wd._cond:
            assert len(wd._fires) == len(live)
            assert len(wd._heap) <= max(wd._COMPACT_MIN, 2 * len(wd._fires))
        for token in live:
            wd.cancel(token)

    def test_double_cancel_is_harmless(self):
        wd = Watchdog()
        token = wd.register(time.monotonic() + 3600.0, lambda: None)
        wd.cancel(token)
        wd.cancel(token)
        with wd._cond:
            assert not wd._fires


class TestEventDeferredParity:
    """Engine-level spot checks; the fuzz corpus covers the traced paths."""

    def _program(self, ctx):
        from repro.comm.communicator import Communicator
        from repro.varray.varray import VArray
        import numpy as np

        comm = Communicator(ctx, range(ctx.engine.nranks))
        arr = VArray.symbolic((64, 64), np.float32)
        ctx.compute(flops=1e9 * (1 + ctx.rank % 3))
        for _ in range(4):
            arr = comm.all_reduce(arr)
            ctx.compute(flops=5e8 * (1 + ctx.rank % 2))
        with comm.batch():
            comm.all_reduce(arr)
            comm.all_reduce(VArray.symbolic((32, 32), np.float32))
        comm.barrier()
        return ctx.now

    def _run(self, backend):
        engine = Engine(nranks=8, mode="symbolic", trace=False,
                        backend=backend, op_timeout=30.0)
        results = engine.run(self._program)
        clocks = [c.clock.now for c in engine.contexts]
        engine.shutdown()
        return results, clocks

    def test_event_deferral_is_bit_identical_to_threaded(self):
        assert self._run("event") == self._run("threaded")

    def test_deferred_gate_requires_symbolic_traceless(self):
        assert Engine(nranks=4, mode="symbolic", trace=False,
                      backend="event")._deferred
        assert not Engine(nranks=4, mode="symbolic", trace=True,
                          backend="event")._deferred
        assert not Engine(nranks=4, mode="real", trace=False,
                          backend="event")._deferred
        assert not Engine(nranks=4, mode="symbolic", trace=False,
                          backend="threaded")._deferred

    def test_deferred_deadlock_matches_threaded_message(self):
        from repro.comm.communicator import Communicator
        from repro.varray.varray import VArray
        import numpy as np

        def prog(ctx):
            comm = Communicator(ctx, range(4))
            arr = comm.all_reduce(VArray.symbolic((8, 8), np.float32))
            if ctx.rank != 0:
                comm.all_reduce(arr)

        msgs = {}
        for backend in ("threaded", "event"):
            engine = Engine(nranks=4, mode="symbolic", trace=False,
                            backend=backend, op_timeout=2.0)
            with pytest.raises(DeadlockError) as ei:
                engine.run(prog)
            msgs[backend] = str(ei.value)
            engine.shutdown()
        assert msgs["threaded"] == msgs["event"]

    def test_deferred_deadlock_is_instant(self):
        from repro.comm.communicator import Communicator
        from repro.varray.varray import VArray
        import numpy as np

        def prog(ctx):
            comm = Communicator(ctx, range(3))
            if ctx.rank == 1:
                return
            comm.all_reduce(VArray.symbolic((8, 8), np.float32))

        engine = Engine(nranks=3, mode="symbolic", trace=False,
                        backend="event", op_timeout=30.0)
        t0 = time.monotonic()
        with pytest.raises(DeadlockError, match=r"missing ranks \[1\]"):
            engine.run(prog)
        assert time.monotonic() - t0 < 5.0
        engine.shutdown()
