"""Fault injection: crashes, transients, stragglers, degraded links.

The guarantees under test (see "Fault injection" in ``sim/engine.py`` and
"Fault model & recovery" in ``docs/architecture.md``):

* determinism — the same fault plan reproduces a bit-identical failure
  trace (error messages, dead sets, per-rank event streams) on fresh
  engines, regardless of OS thread interleaving;
* prompt propagation — survivors of a crash observe
  :class:`RankFailureError` naming the dead rank and its virtual crash
  time at their first dependent operation, *without* waiting for the
  watchdog timeout, and never a spurious :class:`DeadlockError`;
* volume invariance — transient-send retries burn virtual time
  (``RetryEvent``) but never change any rank's accounted ``CommEvent``
  bytes;
* pricing — stragglers scale compute, link faults scale the transport
  term of p2p transfers and of collectives spanning the degraded pair.
"""

import time

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.errors import DeadlockError, RankFailureError, SimulationError
from repro.sim.engine import Engine
from repro.sim.faults import (
    ComputeSlowdown,
    FaultPlan,
    LinkFault,
    NodeCrash,
    NodeRepair,
    RankCrash,
    RetryPolicy,
    SpareArrival,
)
from repro.sim.schedulers import available_backends
from repro.varray.varray import VArray


@pytest.fixture(params=available_backends(), autouse=True)
def engine_backend(request, monkeypatch):
    """Run the whole module under every scheduler backend.

    Fault guarantees (determinism, prompt propagation, volume invariance,
    pricing) are backend-independent by design; driving selection through
    ``REPRO_ENGINE_BACKEND`` also exercises the env-var resolution path
    every ``Engine(backend=None)`` construction takes.
    """
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", request.param)
    return request.param


def _payload(rank, n=256):
    return VArray.from_numpy(np.full(n, float(rank + 1), dtype=np.float32))


def _allreduce_loop(steps=50, flops=1e9):
    """A program: compute + world all-reduce per step, returns step count."""

    def program(ctx):
        comm = Communicator(ctx, tuple(range(ctx.nranks)))
        done = 0
        for _ in range(steps):
            ctx.compute(flops=flops)
            comm.all_reduce(_payload(ctx.rank))
            done += 1
        return done

    return program


class TestFaultPlanValidation:
    def test_rejects_duplicate_crash_ranks(self):
        with pytest.raises(SimulationError):
            FaultPlan(crashes=(RankCrash(rank=1, at=0.1),
                               RankCrash(rank=1, at=0.2)))

    def test_rejects_bad_transient_rate(self):
        with pytest.raises(SimulationError):
            FaultPlan(transient_rate=1.0)

    def test_rejects_negative_crash_time(self):
        with pytest.raises(SimulationError):
            RankCrash(rank=0, at=-1.0)

    def test_rejects_speedup_link_factor(self):
        with pytest.raises(SimulationError):
            LinkFault(src=0, dst=1, factor=0.5)

    def test_engine_rejects_out_of_range_crash_rank(self):
        plan = FaultPlan(crashes=(RankCrash(rank=7, at=0.1),))
        with pytest.raises(SimulationError):
            Engine(nranks=4, fault_plan=plan)

    def test_retry_delay_is_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1e-4)
        assert policy.delay(2) == pytest.approx(2e-4)
        assert policy.delay(3) == pytest.approx(4e-4)

    def test_rejects_negative_node_index(self):
        with pytest.raises(SimulationError):
            NodeCrash(node=-1, at=0.1)

    def test_rejects_negative_node_crash_time(self):
        with pytest.raises(SimulationError):
            NodeCrash(node=0, at=-0.1)

    def test_rejects_duplicate_crash_nodes(self):
        with pytest.raises(SimulationError):
            FaultPlan(node_crashes=(NodeCrash(node=1, at=0.1),
                                    NodeCrash(node=1, at=0.2)))

    def test_node_crash_time_lookup(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=0.25),))
        assert plan.node_crash_time(1) == pytest.approx(0.25)
        assert plan.node_crash_time(0) is None

    def test_describe_names_node_crashes(self):
        plan = FaultPlan(crashes=(RankCrash(rank=0, at=0.1),),
                         node_crashes=(NodeCrash(node=2, at=0.3),))
        desc = plan.describe()
        assert "crash(rank=0" in desc
        assert "node_crash(node=2" in desc

    def test_engine_rejects_node_beyond_topology(self):
        # 4 ranks pack onto one node under the default placement, so
        # node 1 does not exist in the used topology.
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=0.1),))
        with pytest.raises(SimulationError, match="topology"):
            Engine(nranks=4, fault_plan=plan)


class TestAvailabilitySchedule:
    """NodeRepair / SpareArrival validation and the describe() timeline."""

    def test_rejects_negative_repair_fields(self):
        with pytest.raises(SimulationError):
            NodeRepair(node=-1, at=0.5)
        with pytest.raises(SimulationError):
            NodeRepair(node=0, at=-0.5)

    def test_rejects_bad_spare_arrival(self):
        with pytest.raises(SimulationError):
            SpareArrival(count=0, at=0.5)
        with pytest.raises(SimulationError):
            SpareArrival(count=2, at=-0.1)

    def test_rejects_repair_for_never_crashed_node(self):
        with pytest.raises(SimulationError, match="no scheduled NodeCrash"):
            FaultPlan(node_repairs=(NodeRepair(node=3, at=0.5),))

    def test_rejects_repair_before_its_crash(self):
        with pytest.raises(SimulationError):
            FaultPlan(node_crashes=(NodeCrash(node=1, at=0.4),),
                      node_repairs=(NodeRepair(node=1, at=0.3),))

    def test_rejects_duplicate_repairs(self):
        with pytest.raises(SimulationError):
            FaultPlan(node_crashes=(NodeCrash(node=1, at=0.1),),
                      node_repairs=(NodeRepair(node=1, at=0.2),
                                    NodeRepair(node=1, at=0.3),))

    def test_repair_time_and_arrived_spares(self):
        plan = FaultPlan(
            node_crashes=(NodeCrash(node=1, at=0.1),),
            node_repairs=(NodeRepair(node=1, at=0.4),),
            spare_arrivals=(SpareArrival(count=2, at=0.2),
                            SpareArrival(count=3, at=0.6)),
        )
        assert plan.repair_time(1) == pytest.approx(0.4)
        assert plan.repair_time(0) is None
        assert plan.arrived_spares(0.1) == 0
        assert plan.arrived_spares(0.2) == 2
        assert plan.arrived_spares(1.0) == 5

    def test_rejects_nonpositive_slowdown_window(self):
        with pytest.raises(SimulationError):
            ComputeSlowdown(rank=0, factor=2.0, until=0.0)

    def test_windowed_slowdown_expires(self):
        plan = FaultPlan(slowdowns=(
            ComputeSlowdown(rank=0, factor=4.0, until=0.5),
        ))
        assert plan.has_windowed_slowdown(0)
        assert not plan.has_windowed_slowdown(1)
        assert plan.compute_factor(0, now=0.2) == pytest.approx(4.0)
        assert plan.compute_factor(0, now=0.5) == pytest.approx(1.0)

    def test_describe_timeline_is_in_event_order(self):
        plan = FaultPlan(
            crashes=(RankCrash(rank=0, at=0.35),),
            node_crashes=(NodeCrash(node=2, at=0.1),),
            node_repairs=(NodeRepair(node=2, at=0.5),),
            spare_arrivals=(SpareArrival(count=4, at=0.2),),
            slowdowns=(ComputeSlowdown(rank=3, factor=2.0, until=0.8),),
        )
        desc = plan.describe()
        # Timed events render in event order on the shared timeline.
        order = [desc.index(s) for s in (
            "node_crash(node=2", "spares(+4", "crash(rank=0",
            "repair(node=2",
        )]
        assert order == sorted(order)
        assert "until t=0.8" in desc

    def test_describe_ties_put_repair_after_crash(self):
        plan = FaultPlan(
            node_crashes=(NodeCrash(node=0, at=0.2),
                          NodeCrash(node=1, at=0.1),),
            node_repairs=(NodeRepair(node=1, at=0.2),),
            spare_arrivals=(SpareArrival(count=1, at=0.2),),
        )
        desc = plan.describe()
        crash = desc.index("node_crash(node=0")
        repair = desc.index("repair(node=1")
        spares = desc.index("spares(+1")
        assert crash < repair < spares

    def test_without_fired_drops_fired_crashes_and_their_repairs(self):
        plan = FaultPlan(
            seed=3,
            crashes=(RankCrash(rank=1, at=0.1), RankCrash(rank=6, at=0.4)),
            node_crashes=(NodeCrash(node=0, at=0.2),
                          NodeCrash(node=2, at=0.3)),
            node_repairs=(NodeRepair(node=0, at=0.5),
                          NodeRepair(node=2, at=0.6)),
            slowdowns=(ComputeSlowdown(rank=3, factor=2.0),),
        )
        # node 0 (ranks 0-3) fired; rank 6 only cascaded dead
        after = plan.without_fired({0, 1, 2, 3}, {0})
        assert after.crashes == (RankCrash(rank=6, at=0.4),)
        assert after.node_crashes == (NodeCrash(node=2, at=0.3),)
        assert after.node_repairs == (NodeRepair(node=2, at=0.6),)
        assert (after.seed, after.slowdowns) == (plan.seed, plan.slowdowns)


class TestCrashPropagation:
    PLAN = FaultPlan(seed=3, crashes=(RankCrash(rank=2, at=5e-4),))

    def test_raises_rank_failure_naming_rank_and_time(self):
        engine = Engine(nranks=4, fault_plan=self.PLAN)
        with pytest.raises(RankFailureError) as exc_info:
            engine.run(_allreduce_loop())
        assert exc_info.value.rank == 2
        assert exc_info.value.t == pytest.approx(5e-4)
        assert "rank 2" in str(exc_info.value)
        assert "5.0" in str(exc_info.value)  # crash time in the message

    def test_every_survivor_observes_the_failure(self):
        def program(ctx):
            comm = Communicator(ctx, tuple(range(ctx.nranks)))
            try:
                for _ in range(50):
                    ctx.compute(flops=1e9)
                    comm.all_reduce(_payload(ctx.rank))
            except RankFailureError as exc:
                return (exc.rank, exc.t)
            return None

        engine = Engine(nranks=4, fault_plan=self.PLAN)
        results = engine.run(program)
        for rank, outcome in enumerate(results):
            assert outcome == (2, 5e-4), f"rank {rank} missed the failure"

    def test_propagation_beats_the_watchdog(self):
        """Survivors learn of the crash promptly, not after op_timeout."""
        engine = Engine(nranks=4, fault_plan=self.PLAN, op_timeout=60.0)
        t0 = time.monotonic()
        with pytest.raises(RankFailureError):
            engine.run(_allreduce_loop())
        assert time.monotonic() - t0 < 10.0  # nowhere near the 60s timeout

    def test_no_spurious_deadlock_error(self):
        """A short watchdog fuse still reports the crash, not a deadlock."""
        engine = Engine(nranks=4, fault_plan=self.PLAN, op_timeout=0.2)
        try:
            engine.run(_allreduce_loop())
            raise AssertionError("expected a failure")
        except RankFailureError:
            pass  # the only acceptable outcome
        except DeadlockError as exc:  # pragma: no cover - the bug under test
            raise AssertionError(f"watchdog raced the crash: {exc}")

    def test_dead_sender_fails_receiver_promptly(self):
        plan = FaultPlan(crashes=(RankCrash(rank=0, at=1e-4),))

        def program(ctx):
            comm = Communicator(ctx, (0, 1))
            if ctx.rank == 0:
                ctx.compute(flops=1e12)  # pushes clock past the crash time
                comm.send(_payload(0), dst=1)
            else:
                comm.recv(src=0)

        engine = Engine(nranks=2, fault_plan=plan, op_timeout=60.0)
        t0 = time.monotonic()
        with pytest.raises(RankFailureError) as exc_info:
            engine.run(program)
        assert exc_info.value.rank == 0
        assert time.monotonic() - t0 < 10.0

    def test_identical_seed_reproduces_identical_trace(self):
        def run_once():
            engine = Engine(nranks=4, fault_plan=self.PLAN)
            try:
                engine.run(_allreduce_loop())
                message = None
            except RankFailureError as exc:
                message = str(exc)
            events = [
                (type(e).__name__, getattr(e, "nbytes", 0.0),
                 e.t_start, e.t_end)
                for e in engine.trace.events
                if getattr(e, "rank", None) == 0 and hasattr(e, "t_start")
            ]
            return message, sorted(engine._dead), events

        runs = [run_once() for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] is not None

    def test_crash_records_exactly_one_fault_event(self):
        engine = Engine(nranks=4, fault_plan=self.PLAN)
        with pytest.raises(RankFailureError):
            engine.run(_allreduce_loop())
        crashes = engine.trace.fault_events()
        assert len(crashes) == 1
        assert crashes[0].rank == 2 and crashes[0].kind == "crash"

    def test_unrelated_ranks_unaffected(self):
        """A crash in one group must not disturb a disjoint group."""
        plan = FaultPlan(crashes=(RankCrash(rank=0, at=1e-4),))

        def program(ctx):
            if ctx.rank < 2:
                comm = Communicator(ctx, (0, 1))
                try:
                    for _ in range(20):
                        ctx.compute(flops=1e9)
                        comm.all_reduce(_payload(ctx.rank))
                except RankFailureError:
                    return "failed"
                return "ok"
            comm = Communicator(ctx, (2, 3))
            for _ in range(20):
                ctx.compute(flops=1e9)
                comm.all_reduce(_payload(ctx.rank))
            return "ok"

        engine = Engine(nranks=4, fault_plan=plan)
        assert engine.run(program) == ["failed", "failed", "ok", "ok"]


class TestNodeCrashPropagation:
    """A NodeCrash is one correlated event: the whole fault domain dies.

    The default cluster packs four ranks per node (BLOCK placement), so
    an 8-rank engine spans nodes 0 (ranks 0-3) and 1 (ranks 4-7).
    """

    PLAN = FaultPlan(seed=3, node_crashes=(NodeCrash(node=1, at=5e-4),))
    NODE1 = {4, 5, 6, 7}

    def test_whole_node_is_lost(self):
        engine = Engine(nranks=8, fault_plan=self.PLAN)
        with pytest.raises(RankFailureError):
            engine.run(_allreduce_loop())
        # lost_ranks expands the fired node to every resident rank, even
        # members that never individually reached the crash time.
        assert engine.lost_ranks() == self.NODE1
        assert engine._fired_nodes == {1}

    def test_survivors_see_the_correlated_domain_named(self):
        def program(ctx):
            comm = Communicator(ctx, tuple(range(ctx.nranks)))
            try:
                for _ in range(50):
                    ctx.compute(flops=1e9)
                    comm.all_reduce(_payload(ctx.rank))
            except RankFailureError as exc:
                return str(exc)
            return None

        engine = Engine(nranks=8, fault_plan=self.PLAN)
        results = engine.run(program)
        for rank in range(4):  # the survivors on node 0
            assert results[rank] is not None, f"rank {rank} missed the loss"
            assert "node 1 lost: correlated fault domain" in results[rank]

    def test_fault_events_carry_the_node_kind(self):
        engine = Engine(nranks=8, fault_plan=self.PLAN)
        with pytest.raises(RankFailureError):
            engine.run(_allreduce_loop())
        events = engine.trace.fault_events()
        assert events, "a fired node crash must be traced"
        assert all(e.kind == "node_crash" for e in events)
        assert {e.rank for e in events} <= self.NODE1

    def test_members_die_by_their_own_clocks(self):
        """A straggler member's lag never delays its siblings' deaths."""
        plan = FaultPlan(
            node_crashes=(NodeCrash(node=1, at=5e-4),),
            slowdowns=(ComputeSlowdown(rank=7, factor=50.0),),
        )
        engine = Engine(nranks=8, fault_plan=plan)
        with pytest.raises(RankFailureError):
            engine.run(_allreduce_loop())
        assert engine.lost_ranks() == self.NODE1
        # Every traced member death sits exactly at the scheduled time.
        for e in engine.trace.fault_events():
            assert e.t == pytest.approx(5e-4)

    def test_tie_with_personal_crash_reports_the_node(self):
        """Same instant, rank and node: the correlated event subsumes."""
        plan = FaultPlan(
            crashes=(RankCrash(rank=4, at=5e-4),),
            node_crashes=(NodeCrash(node=1, at=5e-4),),
        )
        engine = Engine(nranks=8, fault_plan=plan)
        with pytest.raises(RankFailureError):
            engine.run(_allreduce_loop())
        assert engine.lost_ranks() == self.NODE1
        kinds = {e.rank: e.kind for e in engine.trace.fault_events()}
        if 4 in kinds:  # rank 4 may cascade out before its own site fires
            assert kinds[4] == "node_crash"

    def test_earlier_personal_crash_fires_alone(self):
        plan = FaultPlan(
            crashes=(RankCrash(rank=4, at=1e-4),),
            node_crashes=(NodeCrash(node=1, at=10.0),),  # beyond makespan
        )
        engine = Engine(nranks=8, fault_plan=plan)
        with pytest.raises(RankFailureError) as exc_info:
            engine.run(_allreduce_loop())
        assert exc_info.value.rank == 4
        assert engine.lost_ranks() == {4}
        assert engine._fired_nodes == set()

    def test_node_loss_trace_is_deterministic(self):
        """Everything semantic is replayed bit-identically.

        Which *member* a failure message names is first-sweep-wins (all
        four die at the same virtual instant — the same wall-clock race
        the multi-crash fuzzer tolerates), so the named rank is checked
        for membership and masked out before comparing.
        """

        def run_once():
            engine = Engine(nranks=8, fault_plan=self.PLAN)
            try:
                engine.run(_allreduce_loop())
                message = None
            except RankFailureError as exc:
                assert exc.rank in self.NODE1
                message = str(exc).replace(f"rank {exc.rank}", "rank <n>")
            events = [
                (type(e).__name__, getattr(e, "nbytes", 0.0),
                 e.t_start, e.t_end)
                for e in engine.trace.events
                if getattr(e, "rank", None) == 0 and hasattr(e, "t_start")
            ]
            return message, sorted(engine._dead), sorted(
                engine.lost_ranks()), events

        runs = [run_once() for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] is not None


class TestTransientRetries:
    def _ring(self, steps=20):
        def program(ctx):
            comm = Communicator(ctx, tuple(range(ctx.nranks)))
            for _ in range(steps):
                comm.sendrecv(
                    _payload(ctx.rank),
                    dst=(comm.rank + 1) % comm.size,
                    src=(comm.rank - 1) % comm.size,
                )
            return ctx.now

        return program

    def test_retries_preserve_comm_volume_exactly(self):
        clean = Engine(nranks=2)
        clean_times = clean.run(self._ring())
        clean_vols = [clean.trace.comm_volume(rank=r) for r in range(2)]

        plan = FaultPlan(seed=11, transient_rate=0.3)
        flaky = Engine(nranks=2, fault_plan=plan)
        flaky_times = flaky.run(self._ring())
        flaky_vols = [flaky.trace.comm_volume(rank=r) for r in range(2)]

        retries = flaky.trace.retry_events()
        assert retries, "rate 0.3 over 40 sends should produce retries"
        assert flaky_vols == clean_vols  # bytes must be identical
        assert max(flaky_times) > max(clean_times)  # but time is not
        assert flaky.trace.retry_time(0) + flaky.trace.retry_time(1) > 0.0

    def test_retry_budget_exhaustion_raises(self):
        plan = FaultPlan(seed=0, transient_rate=0.999,
                         retry=RetryPolicy(max_attempts=3))

        def program(ctx):
            comm = Communicator(ctx, (0, 1))
            if ctx.rank == 0:
                comm.send(_payload(0), dst=1)
            else:
                comm.recv(src=0)

        from repro.errors import CommError

        with pytest.raises(CommError, match="retry budget"):
            Engine(nranks=2, fault_plan=plan).run(program)


class TestEnvironmentFaults:
    def test_straggler_scales_compute(self):
        def program(ctx):
            ctx.compute(flops=1e9)
            return ctx.now

        base = Engine(nranks=2).run(program)
        plan = FaultPlan(slowdowns=(ComputeSlowdown(rank=1, factor=3.0),))
        slow = Engine(nranks=2, fault_plan=plan).run(program)
        assert slow[0] == pytest.approx(base[0])
        assert slow[1] == pytest.approx(3.0 * base[1])

    def test_link_fault_scales_p2p(self):
        def program(ctx):
            comm = Communicator(ctx, (0, 1))
            if ctx.rank == 0:
                comm.send(_payload(0, n=1 << 16), dst=1)
            else:
                comm.recv(src=0)
            return ctx.now

        base = Engine(nranks=2).run(program)
        plan = FaultPlan(link_faults=(LinkFault(src=0, dst=1, factor=8.0),))
        slow = Engine(nranks=2, fault_plan=plan).run(program)
        assert max(slow) > max(base)

    def test_link_fault_scales_collectives_spanning_the_pair(self):
        def program(ctx):
            comm = Communicator(ctx, tuple(range(ctx.nranks)))
            comm.all_reduce(_payload(ctx.rank, n=1 << 16))
            return ctx.now

        base = Engine(nranks=4).run(program)
        plan = FaultPlan(link_faults=(LinkFault(src=0, dst=1, factor=8.0),))
        slow = Engine(nranks=4, fault_plan=plan).run(program)
        assert max(slow) > max(base)

    def test_jitter_delays_delivery(self):
        def program(ctx):
            comm = Communicator(ctx, (0, 1))
            if ctx.rank == 0:
                comm.send(_payload(0), dst=1)
            else:
                comm.recv(src=0)
            return ctx.now

        base = Engine(nranks=2).run(program)
        plan = FaultPlan(seed=5, jitter=1e-3)
        jit = Engine(nranks=2, fault_plan=plan).run(program)
        assert jit[1] > base[1]


class TestEngineShutdown:
    def test_shutdown_clears_state_and_run_revives(self):
        engine = Engine(nranks=2)
        engine.run(_allreduce_loop(steps=2))
        assert engine.trace.events
        engine.shutdown()
        assert engine.closed
        assert not engine.trace.events
        # A shut-down engine can be revived by the next run().
        assert engine.run(_allreduce_loop(steps=2)) == [2, 2]
        assert not engine.closed
