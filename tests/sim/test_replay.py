"""``RankContext.replay``: a symbolic pass is recorded once per process
and replayed.

Nothing here measures wall time.  The oracle is the repository's own
real == symbolic contract: a real-mode rank never replays, so every test
runs one program in both modes and requires the same clock, the same
``compute_seconds``, the same kernel count and the same memory peaks, bit
for bit, while counting how often the pass body actually ran.  Each test
starts from an empty recording table of its own (the ``cold_table``
fixture), so what it counts does not depend on which tests ran before.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.errors import SimulationError
from repro.hardware.spec import H100_80GB, custom_cluster
from repro.models.configs import TransformerConfig
from repro.models.transformer import TransformerLM
from repro.nn.linear import Linear
from repro.sim.engine import Engine, RankContext
from repro.sim.faults import ComputeSlowdown, FaultPlan, RankCrash
from repro.varray import ops
from repro.varray.varray import VArray

CALLS = 3
#: input rows per key: different keys stash different byte counts on the
#: one module, so each pass supersedes the other's stash
ROWS = {"k": 4, "a": 4, "b": 6, "c": 8}


@pytest.fixture(autouse=True)
def cold_table(monkeypatch):
    """An empty process-wide recording table for the test, restored after."""
    table: dict = {}
    monkeypatch.setattr(RankContext, "_recordings", table)
    return table


def _state(ctx) -> tuple:
    """Everything a replay must leave exactly as an executed pass does."""
    return (ctx.now.hex(), ctx.compute_seconds.hex(), ctx.kernels,
            ctx.mem.summary(), ctx.mem.current_total)


def _shapes(x):
    if isinstance(x, (list, tuple)):
        return type(x)(_shapes(v) for v in x)
    return (x.shape, x.dtype) if isinstance(x, VArray) else type(x).__name__


def _program(offender=None, keys=("k",), between=None):
    """A rank program that sends one pass through ``ctx.replay`` ``CALLS``
    times per key.  Returns per rank: how often the body ran, what the
    recording table holds per key at the end, result shapes, final state."""

    def program(ctx):
        comm = Communicator(ctx, range(ctx.nranks))
        lin = Linear(ctx, 8, 16)
        lin.eval()
        owner = ctx.replay_owner("Linear", 8, 16)  # a structural key
        xs = {key: VArray.zeros((ROWS[key], 8), symbolic=ctx.symbolic)
              for key in keys}
        runs = {key: 0 for key in keys}
        seen = []

        def body(key):
            runs[key] += 1
            y = lin.forward(xs[key])  # stashes its input
            extra = offender(ctx, comm, lin, y) if offender else None
            halves = ops.split(ctx, ops.gelu(ctx, y), 2, axis=-1)
            return y, [tuple(halves), extra]

        for _ in range(CALLS):
            for key in keys:
                y, rest = ctx.replay((owner, key, xs[key].signature()),
                                     lambda: body(key), [lin])
                assert len(rest) == 2  # a fresh container on every call
                rest.append("the caller may edit what it was handed")
                seen.append((_shapes((y, rest[:2])), ctx.mem.current_total))
                if between:
                    between(ctx, comm)
        table = {
            key: ctx._recordings.get((owner, key, xs[key].signature()),
                                     "unseen")
            for key in keys
        }
        return runs, table, seen, _state(ctx)

    return program


def _both_modes(program, nranks=1, **engine_kwargs):
    out = {}
    for mode in ("real", "symbolic"):
        engine = Engine(nranks=nranks, mode=mode, trace=False,
                        **engine_kwargs)
        out[mode] = engine.run(program)
    return out["real"], out["symbolic"]


class TestRecordOnceReplayAfterwards:
    def test_body_runs_once_and_everything_else_is_unchanged(self):
        real, sym = _both_modes(_program())
        (r_runs, r_table, r_seen, r_state), = real
        (s_runs, s_table, s_seen, s_state), = sym
        assert r_runs == {"k": CALLS} and r_table == {"k": "unseen"}
        assert s_runs == {"k": 1}
        dts, stashed, nbytes, _ = s_table["k"]
        assert len(dts) == 4  # matmul, bias add, gelu, split: one per kernel
        # the Linear (index 0 of the modules passed) stashes its [4, 8] input
        assert stashed == (0,) and nbytes == (ROWS["k"] * 8 * 4,)
        assert s_seen == r_seen and len(set(map(str, s_seen))) == 1
        assert s_state == r_state
        assert s_state[2] == 4 * CALLS  # kernels: executed or replayed

    def test_stashes_are_applied_again_on_replay(self):
        # "a" and "b" stash 128 and 192 bytes on the same module: what the
        # tracker holds after each call shows whose stash is in place
        real, sym = _both_modes(_program(keys=("a", "b")))
        assert sym[0][0] == {"a": 1, "b": 1}
        assert sym[0][2] == real[0][2] and sym[0][3] == real[0][3]
        held = [current for _, current in sym[0][2]]
        assert held[1] - held[0] == held[3] - held[2] == (6 - 4) * 8 * 4

    def test_a_full_table_stops_recording(self, monkeypatch):
        monkeypatch.setattr(RankContext, "MAX_RECORDINGS", 2)
        real, sym = _both_modes(_program(keys=("a", "b", "c")))
        runs, table, _, state = sym[0]
        assert runs == {"a": 1, "b": 1, "c": CALLS}
        assert table["c"] == "unseen"
        assert state == real[0][3]

    def test_replay_under_both_backends_and_deferred_timing(self, cold_table):
        # four ranks, a collective between the passes: on the event backend
        # the clocks run provisionally and every replayed price must land
        # in the open epoch log
        def between(ctx, comm):
            comm.all_reduce(VArray.zeros((64,), symbolic=ctx.symbolic))
            comm.barrier()

        program = _program(between=between)
        states = {}
        for backend in ("event", "threaded"):
            cold_table.clear()  # each backend records, then replays
            engine = Engine(nranks=4, mode="symbolic", trace=False,
                            backend=backend, op_timeout=5.0)
            out = engine.run(program)
            assert [o[0] for o in out] == [{"k": 1}] * 4
            states[backend] = [o[3] for o in out]
        real = Engine(nranks=4, mode="real", trace=False).run(program)
        assert states["event"] == states["threaded"] == [o[3] for o in real]


def _all_reduce(ctx, comm, lin, y):
    comm.all_reduce(y)


def _barrier(ctx, comm, lin, y):
    comm.barrier()


def _p2p(ctx, comm, lin, y):
    other = 1 - comm.rank
    comm.sendrecv(y, dst=other, src=other)


def _batch_window(ctx, comm, lin, y):
    with comm.batch():
        comm.all_reduce(y)


def _own_group_collective(ctx, comm, lin, y):
    Communicator(ctx, [ctx.rank]).all_reduce(y)  # size 1: returns at once


def _now(ctx, comm, lin, y):
    assert ctx.now > 0


def _marker(ctx, comm, lin, y):
    ctx.marker("inside the pass")


def _alloc(ctx, comm, lin, y):
    ctx.mem.alloc(64, "buffers")


def _alloc_and_free(ctx, comm, lin, y):
    ctx.mem.alloc(64, "buffers")
    ctx.mem.free(64, "buffers")


def _saved(ctx, comm, lin, y):
    lin.saved()


def _real_result(ctx, comm, lin, y):
    return VArray.from_numpy(np.zeros(2, dtype=np.float32))


def _unknown_result(ctx, comm, lin, y):
    return {"a": y}


def _nested(ctx, comm, lin, y):
    ctx.replay((ctx.replay_owner("inner"), y.signature()),
               lambda: ops.exp(ctx, y))


ABANDON_RULES = [
    _all_reduce, _barrier, _p2p, _batch_window, _own_group_collective,
    _now, _marker, _alloc, _alloc_and_free, _saved,
    _real_result, _unknown_result, _nested,
]


class TestAbandonRules:
    @pytest.mark.parametrize("offender", ABANDON_RULES,
                             ids=lambda f: f.__name__.lstrip("_"))
    def test_pass_still_runs_is_never_replayed_and_prices_the_same(
            self, offender):
        real, sym = _both_modes(_program(offender), nranks=2)
        for (r_runs, _, r_seen, r_state), (s_runs, s_table, s_seen,
                                           s_state) in zip(real, sym):
            assert s_runs == r_runs == {"k": CALLS}
            assert s_table == {"k": None}
            assert s_seen == r_seen and s_state == r_state

    def test_the_inner_pass_of_a_nest_replays_on_its_own(self):
        inner_runs = []

        def nested(ctx, comm, lin, y):
            def inner():
                inner_runs.append(ctx.mode)
                return ops.exp(ctx, y)

            ctx.replay((ctx.replay_owner("inner"), y.signature()), inner)

        real, sym = _both_modes(_program(nested))
        assert sym[0][0] == {"k": CALLS} and sym[0][3] == real[0][3]
        assert inner_runs.count("symbolic") == 1
        assert inner_runs.count("real") == CALLS

    def test_reaching_a_recorded_pass_abandons_too(self):
        # the inner pass is recorded before the outer one first runs, so the
        # outer tape would miss the kernels the inner replay adds
        def program(ctx):
            x = VArray.symbolic((4, 4))
            runs = []

            def inner():
                return ops.exp(ctx, x)

            def outer():
                runs.append(1)
                return ops.neg(ctx, ctx.replay("inner", inner))

            ctx.replay("inner", inner)
            for _ in range(CALLS):
                ctx.replay("outer", outer)
            return (len(runs), ctx._recordings.get("outer", "unseen"),
                    ctx.kernels, ctx.now.hex())

        (runs, outer, kernels, now), = Engine(
            nranks=1, mode="symbolic", trace=False).run(program)
        assert (runs, outer, kernels) == (CALLS, None, 1 + 2 * CALLS)
        (_, _, _, real_now), = Engine(nranks=1, mode="real",
                                      trace=False).run(program)
        assert now == real_now

    def test_a_raising_pass_is_not_recorded(self):
        def program(ctx):
            def boom():
                ops.exp(ctx, VArray.symbolic((2, 2)))
                raise KeyError("from the pass")

            for _ in range(2):
                with pytest.raises(KeyError, match="from the pass"):
                    ctx.replay("boom", boom)
            return (ctx._recordings.get("boom", "unseen"), ctx.kernels,
                    ctx._tape)

        assert Engine(nranks=1, mode="symbolic", trace=False).run(program) \
            == [("unseen", 2, None)]


FAULTED_RANK_1 = {
    "crash_site": FaultPlan(crashes=(RankCrash(rank=1, at=1e9),)),
    "constant_slowdown": FaultPlan(
        slowdowns=(ComputeSlowdown(rank=1, factor=3.0),)),
    "windowed_slowdown": FaultPlan(
        slowdowns=(ComputeSlowdown(rank=1, factor=3.0, until=1e-4),)),
}


class TestOnlyHealthySymbolicRanksReplay:
    @pytest.mark.parametrize("plan", sorted(FAULTED_RANK_1))
    def test_faulted_rank_executes_every_pass(self, plan):
        real, sym = _both_modes(_program(), nranks=2,
                                fault_plan=FAULTED_RANK_1[plan])
        assert sym[0][0] == {"k": 1}  # its neighbour is healthy
        assert sym[1][0] == {"k": CALLS} and sym[1][1] == {"k": "unseen"}
        assert [s[3] for s in sym] == [r[3] for r in real]
        if plan != "crash_site":
            assert sym[1][3][0] != sym[0][3][0]  # the slow-down did apply

    def test_traced_engine_records_the_executed_event_sequence(self):
        events = {}
        for mode in ("real", "symbolic"):
            engine = Engine(nranks=1, mode=mode, trace=True)
            (runs, table, _, _), = engine.run(_program())
            assert runs == {"k": CALLS} and table == {"k": "unseen"}
            events[mode] = [
                (e.rank, e.t_start.hex(), e.t_end.hex(), e.flops,
                 e.bytes_touched, e.tag)
                for e in engine.trace.compute_events()
            ]
        assert events["symbolic"] == events["real"]
        assert len(events["real"]) == 4 * CALLS
        one_pass = [e[3:] for e in events["real"][:4]]
        assert [e[3:] for e in events["real"]] == one_pass * CALLS


class TestStashesKeepBytesOnly:
    def test_a_backward_after_a_replayed_pass_raises(self):
        def program(ctx):
            lin = Linear(ctx, 8, 16).eval()
            x = VArray.zeros((4, 8), symbolic=ctx.symbolic)
            for _ in range(2):
                ctx.replay(("fwd",), lambda: lin.forward(x), [lin])
            try:
                lin.backward(VArray.zeros((4, 16), symbolic=ctx.symbolic))
            except SimulationError as exc:
                return str(exc)
            return "ran"

        assert Engine(nranks=1, mode="real", trace=False).run(program) \
            == ["ran"]
        (msg,) = Engine(nranks=1, mode="symbolic", trace=False).run(program)
        assert "replayed symbolic pass keeps no activations" in msg

    def test_a_stash_in_training_mode_abandons(self):
        def program(ctx):
            lin = Linear(ctx, 8, 16)  # training mode
            x = VArray.symbolic((4, 8))
            ctx.replay(("train",), lambda: lin.forward(x), [lin])
            lin.backward(VArray.symbolic((4, 16)))  # the tensors are kept
            return ctx._recordings.get(("train",), "unseen")

        assert Engine(nranks=1, mode="symbolic", trace=False).run(program) \
            == [None]

    def test_a_stash_outside_the_modules_passed_abandons(self):
        def program(ctx):
            lin = Linear(ctx, 8, 16).eval()
            x = VArray.symbolic((4, 8))
            for _ in range(2):
                ctx.replay(("elsewhere",), lambda: lin.forward(x))
            return ctx._recordings.get(("elsewhere",), "unseen"), ctx.kernels

        assert Engine(nranks=1, mode="symbolic", trace=False).run(program) \
            == [(None, 4)]


class TestOneTablePerProcess:
    def test_a_later_run_replays_what_an_earlier_one_recorded(
            self, cold_table):
        real, cold = _both_modes(_program(keys=("a", "b")))
        table = dict(cold_table)
        (warm,) = Engine(nranks=1, mode="symbolic", trace=False).run(
            _program(keys=("a", "b")))
        assert cold[0][0] == {"a": 1, "b": 1}
        assert warm[0] == {"a": 0, "b": 0}  # nothing executed
        assert warm[1] == cold[0][1] and cold_table == table
        assert warm[2] == cold[0][2] == real[0][2]
        assert warm[3] == cold[0][3] == real[0][3]

    def test_nothing_of_a_finished_run_is_kept_alive(self, cold_table):
        def program(ctx):
            model = TransformerLM(ctx, LM).eval()
            tokens = VArray.from_numpy(np.zeros((2, 4), np.int64))
            _, kv = model.prefill(tokens)
            step = VArray.from_numpy(np.zeros((2, 1), np.int64))
            model.decode_step(step, step, kv)
            return weakref.ref(model)

        engine = Engine(nranks=1, mode="symbolic", trace=False)
        (model_ref,) = engine.run(program)
        refs = [weakref.ref(engine), model_ref,
                *map(weakref.ref, engine.contexts)]
        del engine
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert len(cold_table) == 2  # prefill and decode_step
        assert all(rec is not None for rec in cold_table.values())


LM = TransformerConfig(num_layers=1, hidden=16, nheads=2, seq_len=8,
                       vocab=16, causal=True)


def _prefill_owner(cfg=LM, layout="serial"):
    """A rank program: build the LM on ``layout`` and prefill it once."""

    def program(ctx):
        group = (ctx if layout == "serial"
                 else Communicator(ctx, [ctx.rank]))  # a one-rank Megatron
        model = TransformerLM(group, cfg).eval()
        model.prefill(VArray.from_numpy(np.zeros((2, 4), np.int64)))
        return model._pass_owner

    return program


class TestKeysAreStructural:
    """LMs that differ in one thing a pass depends on never share a
    recording; equal ones do."""

    def test_each_difference_records_its_own_pass(self, cold_table):
        one_rank = {"nranks": 1, "mode": "symbolic", "trace": False}
        h100 = custom_cluster(1, gpus_per_node=1, gpu=H100_80GB)
        runs = {
            "base": (one_rank, _prefill_owner()),
            "gpu": ({**one_rank, "cluster": h100}, _prefill_owner()),
            "config": (one_rank, _prefill_owner(
                dataclasses.replace(LM, causal=False))),
            "layout": (one_rank, _prefill_owner(layout="megatron")),
            "rank_and_world": ({**one_rank, "nranks": 2}, _prefill_owner()),
        }
        owners, grown = [], []
        for kwargs, program in runs.values():
            before = len(cold_table)
            owners += Engine(**kwargs).run(program)
            grown.append(len(cold_table) - before)
        assert len(set(owners)) == len(owners) == 6
        assert grown == [1, 1, 1, 1, 2]  # one prefill key per rank
        # the same structure again: the same owner, nothing recorded
        assert Engine(**one_rank).run(_prefill_owner()) == owners[:1]
        assert len(cold_table) == 6


def _charges(batched):
    """Charge the same cache kernels batched or one call per kernel, inside
    a replayed pass and outside one, after a collective (so a deferring
    engine's clocks run provisionally)."""

    def charge(ctx, nbytes, count):
        if batched:
            ops.charge_move(ctx, nbytes, "kv", count)
        else:
            for _ in range(count):
                ops.charge_move(ctx, nbytes, "kv")

    def program(ctx):
        comm = Communicator(ctx, range(ctx.nranks))
        comm.all_reduce(VArray.zeros((64,), symbolic=ctx.symbolic))

        def body():
            ops.exp(ctx, VArray.zeros((4, 4), symbolic=ctx.symbolic))
            for nbytes, count in ((96, 5), (24, 3), (8, 1), (40, 0)):
                charge(ctx, nbytes, count)

        key = (ctx.replay_owner("charges"), batched)  # one per rank
        ctx.replay(key, body)
        charge(ctx, 72, 4)
        comm.barrier()
        rec = ctx._recordings.get(key, "unseen")
        return (ctx.now.hex(), ctx.compute_seconds.hex(), ctx.kernels,
                rec if rec in (None, "unseen") else rec[0])

    return program


class TestBatchedCharge:
    @pytest.mark.parametrize("mode", ["real", "symbolic"])
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced",
                                                          "traced"])
    @pytest.mark.parametrize("plan", [None, *sorted(FAULTED_RANK_1)])
    def test_count_n_is_n_single_charges(self, mode, trace, plan,
                                         monkeypatch):
        compute, calls = RankContext.compute, []

        def counting(ctx, *args, **kwargs):
            calls.append(ctx.rank)
            return compute(ctx, *args, **kwargs)

        monkeypatch.setattr(RankContext, "compute", counting)
        out, events = {}, {}
        for batched in (False, True):
            calls.clear()
            engine = Engine(nranks=2, mode=mode, trace=trace,
                            fault_plan=FAULTED_RANK_1.get(plan))
            out[batched] = engine.run(_charges(batched))
            events[batched] = [
                (e.rank, e.t_start.hex(), e.t_end.hex(), e.flops,
                 e.bytes_touched, e.tag)
                for e in engine.trace.compute_events()]
            out[batched].append(sorted(calls))
        assert out[True][:2] == out[False][:2]
        assert events[True] == events[False]
        assert out[True][0][2] == 1 + 5 + 3 + 1 + 4  # kernels, rank 0
        if mode == "symbolic" and not trace:
            # the healthy rank recorded one tape entry per kernel ...
            assert len(out[True][0][3]) == 1 + 5 + 3 + 1
            # ... and priced each batch in one call, not one per kernel
            assert out[True][2].count(0) == 2 and \
                out[False][2].count(0) == 1 + 5 + 3 + 1 + 4
        if trace:
            assert len(events[True]) == 2 * (1 + 5 + 3 + 1 + 4)
        if plan is not None:  # the faulted rank charges one by one
            assert out[True][2].count(1) == out[False][2].count(1) == 14
