"""Tests for every collective of the Communicator (real + symbolic modes)."""

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.comm.reduce_ops import ReduceOp, combine
from repro.errors import CommError, ShapeError
from repro.sim.engine import Engine
from repro.varray.varray import VArray

from tests.conftest import run_spmd, run_spmd_engine


def _mine(ctx, shape=(2, 2), value=None):
    v = float(ctx.rank + 1) if value is None else value
    return VArray.from_numpy(np.full(shape, v, dtype=np.float32))


class TestBroadcast:
    def test_root_value_everywhere(self):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            arr = _mine(ctx) if comm.rank == 2 else None
            out = comm.broadcast(arr, root=2)
            return float(out.numpy()[0, 0])

        assert run_spmd(4, prog) == [3.0] * 4

    def test_nonroot_payload_ignored(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            out = comm.broadcast(_mine(ctx), root=0)
            return float(out.numpy()[0, 0])

        assert run_spmd(2, prog) == [1.0, 1.0]

    def test_subgroup_broadcast(self):
        def prog(ctx):
            if ctx.rank in (1, 3):
                comm = Communicator(ctx, [1, 3])
                out = comm.broadcast(_mine(ctx) if ctx.rank == 3 else None, root=1)
                return float(out.numpy()[0, 0])
            return None

        res = run_spmd(4, prog)
        assert res[1] == res[3] == 4.0
        assert res[0] is None

    def test_size_one_group(self):
        def prog(ctx):
            comm = Communicator(ctx, [ctx.rank])
            return float(comm.broadcast(_mine(ctx), root=0).numpy()[0, 0])

        assert run_spmd(2, prog) == [1.0, 2.0]

    def test_bad_root(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            comm.broadcast(_mine(ctx), root=5)

        with pytest.raises(CommError):
            run_spmd(2, prog)

    def test_advances_clock(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            comm.broadcast(_mine(ctx) if comm.rank == 0 else None, root=0)
            return ctx.now

        assert all(t > 0 for t in run_spmd(2, prog))


class TestReduce:
    def test_sum_to_root(self):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            out = comm.reduce(_mine(ctx), root=1)
            return None if out is None else float(out.numpy()[0, 0])

        res = run_spmd(4, prog)
        assert res[1] == 10.0
        assert res[0] is None and res[2] is None and res[3] is None

    def test_max_op(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            out = comm.reduce(_mine(ctx), root=0, op=ReduceOp.MAX)
            return None if out is None else float(out.numpy()[0, 0])

        assert run_spmd(3, prog)[0] == 3.0


class TestAllReduce:
    def test_sum_everywhere(self):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            return float(comm.all_reduce(_mine(ctx)).numpy()[0, 0])

        assert run_spmd(4, prog) == [10.0] * 4

    def test_identity_on_single(self):
        def prog(ctx):
            comm = Communicator(ctx, [ctx.rank])
            return float(comm.all_reduce(_mine(ctx)).numpy()[0, 0])

        assert run_spmd(2, prog) == [1.0, 2.0]

    def test_multiple_groups_concurrently(self):
        def prog(ctx):
            pair = [ctx.rank - ctx.rank % 2, ctx.rank - ctx.rank % 2 + 1]
            comm = Communicator(ctx, pair)
            return float(comm.all_reduce(_mine(ctx)).numpy()[0, 0])

        assert run_spmd(4, prog) == [3.0, 3.0, 7.0, 7.0]


class TestAllGather:
    def test_order_is_group_order(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            parts = comm.all_gather(_mine(ctx, shape=(1,)))
            return [float(p.numpy()[0]) for p in parts]

        assert run_spmd(3, prog) == [[1.0, 2.0, 3.0]] * 3


class TestReduceScatter:
    def test_chunk_routing(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            chunks = [
                VArray.from_numpy(
                    np.full((2,), 10 * ctx.rank + j, dtype=np.float32)
                )
                for j in range(3)
            ]
            out = comm.reduce_scatter(chunks)
            return float(out.numpy()[0])

        # rank j receives sum_r (10r + j) = 30 + 3j
        assert run_spmd(3, prog) == [30.0, 33.0, 36.0]

    def test_wrong_chunk_count(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            comm.reduce_scatter([_mine(ctx)])

        with pytest.raises(CommError):
            run_spmd(2, prog)


class TestScatterGather:
    def test_scatter(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            chunks = None
            if comm.rank == 0:
                chunks = [
                    VArray.from_numpy(np.full((1,), float(j), dtype=np.float32))
                    for j in range(3)
                ]
            out = comm.scatter(chunks, root=0)
            return float(out.numpy()[0])

        assert run_spmd(3, prog) == [0.0, 1.0, 2.0]

    def test_scatter_root_must_provide_chunks(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            comm.scatter(None, root=0)

        with pytest.raises(CommError):
            run_spmd(2, prog)

    def test_gather(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            out = comm.gather(_mine(ctx, shape=(1,)), root=2)
            if out is None:
                return None
            return [float(p.numpy()[0]) for p in out]

        res = run_spmd(3, prog)
        assert res[2] == [1.0, 2.0, 3.0]
        assert res[0] is None


class TestAllToAll:
    def test_transpose_of_chunks(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            chunks = [
                VArray.from_numpy(
                    np.full((1,), 10 * ctx.rank + j, dtype=np.float32)
                )
                for j in range(3)
            ]
            out = comm.all_to_all(chunks)
            return [float(p.numpy()[0]) for p in out]

        res = run_spmd(3, prog)
        # rank j receives [chunk j of rank 0, 1, 2] = [j, 10+j, 20+j]
        assert res[1] == [1.0, 11.0, 21.0]


class TestBarrier:
    def test_synchronizes_clocks(self):
        def prog(ctx):
            ctx.compute(flops=1e9 * (ctx.rank + 1))
            comm = Communicator(ctx, range(4))
            comm.barrier()
            return ctx.now

        times = run_spmd(4, prog)
        assert len(set(round(t, 12) for t in times)) == 1


class TestSymbolicMode:
    def test_all_reduce_symbolic(self):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            out = comm.all_reduce(VArray.symbolic((8, 8)))
            return out.is_symbolic, out.shape, ctx.now

        res = run_spmd(4, prog, mode="symbolic")
        assert all(sym and shape == (8, 8) and t > 0 for sym, shape, t in res)

    def test_broadcast_symbolic_costs_time(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            arr = VArray.symbolic((1024, 1024)) if comm.rank == 0 else None
            comm.broadcast(arr, root=0)
            return ctx.now

        assert all(t > 0 for t in run_spmd(2, prog, mode="symbolic"))


def _array(ctx, shape, dtype="float32"):
    """A rank-valued array, or its shape only in a symbolic engine."""
    if ctx.symbolic:
        return VArray.symbolic(shape, dtype)
    return VArray.from_numpy(np.full(shape, ctx.rank + 1.0, dtype=dtype))


#: every backend, real and symbolic; untraced, so that the event backend
#: defers a symbolic run's collectives (ranks run on past a deposit)
ENGINES = [(b, m) for b in ("threaded", "event") for m in ("real", "symbolic")]


def _engine(nranks, backend, mode):
    return Engine(nranks=nranks, mode=mode, trace=False, backend=backend,
                  op_timeout=5.0)


@pytest.mark.parametrize("backend,mode", ENGINES)
class TestReceiveBuffersAndShapeRules:
    """A broadcast receive buffer must match the root's payload; a
    symbolic root reduce is its own payload's shape; a mismatched member
    still fails in an engine whose ranks run on past their deposits."""

    # group rank 1 is the root; the event backend runs rank 0 before it
    # and rank 2 after it
    @pytest.mark.parametrize("bad", [0, 2])
    @pytest.mark.parametrize("shape,dtype,named", [
        ((3, 2), "float32", "float32[3, 2]"),
        ((2, 2), "float64", "float64[2, 2]"),
    ])
    def test_mismatched_buffer_names_both_signatures(
            self, backend, mode, bad, shape, dtype, named):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            if ctx.rank == bad:
                buf = _array(ctx, shape, dtype)
            else:
                buf = _array(ctx, (2, 2))
            comm.broadcast(buf, root=1)

        with pytest.raises(CommError) as info:
            _engine(3, backend, mode).run(prog)
        msg = str(info.value)
        assert f"group rank {bad} is {named}" in msg
        assert "root 1 sends float32[2, 2]" in msg

    def test_matching_buffers_receive_the_root_payload(self, backend, mode):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            out = comm.broadcast(_array(ctx, (2, 2)), root=1)
            return out.signature(), None if out.is_symbolic else out.numpy()

        for sig, data in _engine(3, backend, mode).run(prog):
            assert sig == ((2, 2), np.dtype("float32"), mode == "symbolic")
            if mode == "real":
                assert (data == 2.0).all()

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int32"])
    @pytest.mark.parametrize("op", list(ReduceOp))
    def test_root_reduce_has_the_combined_signature(self, backend, mode,
                                                    dtype, op):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            mine = _array(ctx, (3, 5), dtype)
            out = comm.reduce(mine, root=2, op=op)
            want = combine(op, [mine] * comm.size)
            return None if out is None else (out.signature(),
                                              want.signature())

        res = _engine(4, backend, mode).run(prog)
        assert [r is None for r in res] == [True, True, False, True]
        got, want = res[2]
        assert got == want

    @pytest.mark.parametrize("kind", ["all_reduce", "reduce"])
    @pytest.mark.parametrize("odd", [0, 3])
    def test_mismatched_member_raises_shape_error(self, backend, mode, kind,
                                                  odd):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            shape = (2, 3) if ctx.rank == odd else (2, 2)
            if kind == "all_reduce":
                comm.all_reduce(_array(ctx, shape))
            else:
                comm.reduce(_array(ctx, shape), root=1)

        with pytest.raises(ShapeError, match="shape mismatch"):
            _engine(4, backend, mode).run(prog)


class TestMembership:
    def test_nonmember_cannot_build(self):
        def prog(ctx):
            if ctx.rank == 3:
                Communicator(ctx, [0, 1])
            return True

        with pytest.raises(CommError, match="does not belong"):
            run_spmd(4, prog)


class TestTracing:
    def test_collective_recorded_per_rank(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            comm.all_reduce(_mine(ctx))

        engine, _ = run_spmd_engine(2, prog)
        events = engine.trace.comm_events()
        assert len(events) == 2
        assert all(e.kind.startswith("all_reduce") for e in events)
        assert engine.trace.message_count() == 1


class TestAccounting:
    """Per-rank ``CommEvent.nbytes`` follows the module's convention table."""

    @staticmethod
    def _vol(engine, rank):
        return engine.trace.comm_volume(rank=rank)

    def test_broadcast_records_payload_on_every_rank(self):
        # (2, 2) float32 payload = 16 bytes: root sends it, others receive it.
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            comm.broadcast(_mine(ctx) if comm.rank == 0 else None, root=0)

        engine, _ = run_spmd_engine(3, prog)
        assert [self._vol(engine, r) for r in range(3)] == [16.0] * 3

    def test_all_gather_records_remote_chunks_only(self):
        # chunk = 4 bytes; each rank receives the g-1 = 2 remote chunks.
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            comm.all_gather(_mine(ctx, shape=(1,)))

        engine, _ = run_spmd_engine(3, prog)
        assert [self._vol(engine, r) for r in range(3)] == [8.0] * 3
        assert engine.trace.comm_volume() == 24.0  # not g * N = 36

    def test_gather_root_sums_remote_chunks(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            comm.gather(_mine(ctx, shape=(1,)), root=2)

        engine, _ = run_spmd_engine(3, prog)
        # non-roots send their 4-byte chunk; the root receives 2 chunks.
        assert [self._vol(engine, r) for r in range(3)] == [4.0, 4.0, 8.0]

    def test_scatter_root_sends_others_receive_own_chunk(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            chunks = None
            if comm.rank == 1:
                chunks = [
                    VArray.from_numpy(np.zeros((1,), dtype=np.float32))
                    for _ in range(3)
                ]
            comm.scatter(chunks, root=1)

        engine, _ = run_spmd_engine(3, prog)
        # the root ships the two remote chunks; members get 4 bytes each.
        assert [self._vol(engine, r) for r in range(3)] == [4.0, 8.0, 4.0]

    def test_all_to_all_records_remote_chunks_only(self):
        def prog(ctx):
            comm = Communicator(ctx, range(3))
            chunks = [
                VArray.from_numpy(np.zeros((1,), dtype=np.float32))
                for _ in range(3)
            ]
            comm.all_to_all(chunks)

        engine, _ = run_spmd_engine(3, prog)
        # 2 remote chunks in, 2 out; nbytes counts the received side.
        assert [self._vol(engine, r) for r in range(3)] == [8.0] * 3

    def test_reduce_scatter_records_one_chunk(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            chunks = [_mine(ctx, shape=(2,)) for _ in range(2)]
            comm.reduce_scatter(chunks)

        engine, _ = run_spmd_engine(2, prog)
        assert [self._vol(engine, r) for r in range(2)] == [8.0, 8.0]

    def test_reduce_records_buffer_on_every_rank(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            comm.reduce(_mine(ctx), root=0)

        engine, _ = run_spmd_engine(2, prog)
        # the non-root sends its 16-byte buffer, the root receives one.
        assert [self._vol(engine, r) for r in range(2)] == [16.0, 16.0]

    def test_barrier_moves_no_bytes(self):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            comm.barrier()

        engine, _ = run_spmd_engine(4, prog)
        assert engine.trace.comm_volume() == 0.0
        assert engine.trace.message_count() == 1

    def test_p2p_counts_both_sides(self):
        def prog(ctx):
            comm = Communicator(ctx, range(2))
            if comm.rank == 0:
                comm.send(_mine(ctx), dst=1)
            else:
                comm.recv(0)

        engine, _ = run_spmd_engine(2, prog)
        assert engine.trace.comm_volume(kind="send") == 16.0
        assert engine.trace.comm_volume(kind="recv") == 16.0
