"""Tests for the SPMD engine: execution, rendezvous, failures, determinism."""

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.errors import CommError, ConfigError, DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.varray.varray import VArray

from tests.conftest import run_spmd, run_spmd_engine


class TestBasicExecution:
    def test_results_ordered_by_rank(self):
        assert run_spmd(4, lambda ctx: ctx.rank * 2) == [0, 2, 4, 6]

    def test_single_rank_runs_inline(self):
        assert run_spmd(1, lambda ctx: "ok") == ["ok"]

    def test_args_passed_through(self):
        engine = Engine(nranks=2)
        out = engine.run(lambda ctx, a, b=0: (ctx.rank, a, b), args=(5,),
                         kwargs={"b": 7})
        assert out == [(0, 5, 7), (1, 5, 7)]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            Engine(nranks=1, mode="fake")

    def test_default_cluster_sized_to_ranks(self):
        engine = Engine(nranks=6)
        assert engine.cluster.total_gpus >= 6

    def test_max_time_requires_run(self):
        with pytest.raises(SimulationError):
            Engine(nranks=1).max_time()


class TestClockAccounting:
    def test_compute_advances_clock(self):
        def prog(ctx):
            ctx.compute(flops=1e9)
            return ctx.now

        times = run_spmd(2, prog)
        assert all(t > 0 for t in times)
        assert times[0] == times[1]  # same work, same model

    def test_compute_records_event(self):
        engine, _ = run_spmd_engine(1, lambda ctx: ctx.compute(flops=123.0))
        events = engine.trace.compute_events(0)
        assert len(events) == 1
        assert events[0].flops == 123.0

    def test_min_dim_slows_narrow_kernels(self):
        def narrow(ctx):
            ctx.compute(flops=1e12, min_dim=16)
            return ctx.now

        def wide(ctx):
            ctx.compute(flops=1e12, min_dim=4096)
            return ctx.now

        assert run_spmd(1, narrow)[0] > run_spmd(1, wide)[0]

    def test_marker(self):
        engine, _ = run_spmd_engine(1, lambda ctx: ctx.marker("here"))
        assert engine.trace.markers("here")

    def test_max_time(self):
        engine, _ = run_spmd_engine(
            2, lambda ctx: ctx.compute(flops=1e9 * (1 + ctx.rank))
        )
        assert engine.max_time() == max(c.clock.now for c in engine.contexts)


class TestRng:
    def test_shared_stream_identical_across_ranks(self):
        def prog(ctx):
            return float(ctx.rng("w").normal())

        values = run_spmd(4, prog)
        assert len(set(values)) == 1

    def test_rank_stream_differs(self):
        def prog(ctx):
            return float(ctx.rank_rng("mask").normal())

        values = run_spmd(4, prog)
        assert len(set(values)) == 4

    def test_seed_changes_streams(self):
        a = run_spmd(1, lambda ctx: float(ctx.rng("w").normal()), seed=0)
        b = run_spmd(1, lambda ctx: float(ctx.rng("w").normal()), seed=1)
        assert a != b


class TestFailurePropagation:
    def test_exception_propagates(self):
        def prog(ctx):
            if ctx.rank == 2:
                raise ValueError("boom on rank 2")
            return ctx.rank

        with pytest.raises(ValueError, match="boom on rank 2"):
            run_spmd(4, prog)

    def test_peer_waiting_in_collective_released_on_failure(self):
        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("rank 0 dies")
            comm = Communicator(ctx, range(4))
            comm.barrier()  # would deadlock forever without abort
            return True

        with pytest.raises(RuntimeError, match="rank 0 dies"):
            run_spmd(4, prog)

    def test_deadlock_detection(self):
        def prog(ctx):
            if ctx.rank == 0:
                return "skipped the barrier"
            comm = Communicator(ctx, range(2))
            comm.barrier()

        with pytest.raises(DeadlockError, match="timed out"):
            run_spmd(2, prog, op_timeout=0.5)

    def test_deadlock_names_missing_ranks(self):
        def prog(ctx):
            if ctx.rank in (0, 2):
                return "skipped the barrier"
            comm = Communicator(ctx, range(4))
            comm.barrier()

        with pytest.raises(DeadlockError, match=r"missing ranks \[0, 2\]"):
            run_spmd(4, prog, op_timeout=0.5)

    def test_recv_deadlock_names_missing_sender(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            if ctx.rank == 1:
                comm.recv(0)

        with pytest.raises(DeadlockError, match="missing sender: rank 0"):
            run_spmd(2, prog, op_timeout=0.5)

    def test_collective_mismatch_detected(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            x = VArray.from_numpy(np.ones(2, dtype=np.float32))
            if ctx.rank == 0:
                comm.all_reduce(x)
            else:
                comm.broadcast(x, root=0)

        with pytest.raises((CommError, SimulationError)):
            run_spmd(2, prog)


class TestDeterminism:
    def test_two_runs_bit_identical(self):
        def prog(ctx):
            comm = Communicator(ctx, range(8))
            x = VArray.from_numpy(
                np.full((3, 3), 0.1 * (ctx.rank + 1), dtype=np.float32)
            )
            return comm.all_reduce(x).numpy().tobytes()

        a = run_spmd(8, prog)
        b = run_spmd(8, prog)
        assert a == b

    def test_simulated_time_deterministic(self):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            ctx.compute(flops=1e9 * (ctx.rank + 1))
            comm.barrier()
            return ctx.now

        assert run_spmd(4, prog) == run_spmd(4, prog)


class TestRerun:
    def test_engine_reusable(self):
        engine = Engine(nranks=2)
        assert engine.run(lambda ctx: ctx.rank) == [0, 1]
        assert engine.run(lambda ctx: ctx.rank + 10) == [10, 11]

    def test_many_reruns_on_one_engine(self):
        # Repeated runs reuse the persistent worker pool; collectives must
        # still rendezvous correctly with no state bleeding across runs.
        engine = Engine(nranks=4)

        def prog(ctx):
            comm = Communicator(ctx, range(4))
            comm.barrier()
            return ctx.rank

        for _ in range(20):
            assert engine.run(prog) == [0, 1, 2, 3]

    def test_interleaved_engines_share_pool_safely(self):
        a = Engine(nranks=2)
        b = Engine(nranks=3)
        for _ in range(5):
            assert a.run(lambda ctx: ctx.rank) == [0, 1]
            assert b.run(lambda ctx: ctx.rank) == [0, 1, 2]

    def test_engine_usable_after_deadlock(self):
        engine = Engine(nranks=2, op_timeout=0.5)

        def bad(ctx):
            if ctx.rank == 0:
                return None
            Communicator(ctx, range(2)).barrier()

        def good(ctx):
            Communicator(ctx, range(2)).barrier()
            return ctx.rank

        with pytest.raises(DeadlockError):
            engine.run(bad)
        assert engine.run(good) == [0, 1]
