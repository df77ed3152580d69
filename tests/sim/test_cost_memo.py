"""The memoized roofline: exact, bounded, and blind to injected slow-downs.

``ComputeCostModel.op_time`` keeps every price it has computed and
``RankContext.compute`` reads that table before calling it.  Nothing here
measures wall time: the properties are bit-equality with
``GPUSpec.compute_time``, the bound, and identical virtual clocks whether
the table is cold or warm.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CommError
from repro.hardware.spec import meluxina
from repro.sim.cost import ComputeCostModel
from repro.sim.engine import Engine
from repro.sim.events import ComputeEvent
from repro.sim.faults import ComputeSlowdown, FaultPlan
from repro.varray import ops
from repro.varray.varray import VArray

GPU = meluxina(1).gpu

#: zero or at least one flop / byte / row: the roofline itself divides by a
#: utilization that underflows to zero for subnormal sizes
work = st.one_of(
    st.integers(0, 2**60),
    st.floats(1.0, 1e18, allow_nan=False),
    st.sampled_from([0, 0.0, 1, 1.0, 5e9, 2**53 + 1]),
)
min_dims = st.one_of(st.none(), st.floats(1.0, 1e5, allow_nan=False),
                     st.integers(0, 4096))
keys = st.tuples(work, work, min_dims)


@settings(max_examples=200, deadline=None)
@given(st.lists(keys, min_size=1, max_size=30), st.data())
def test_memoized_price_is_the_roofline_bit_for_bit(fresh, data):
    # random keys, each priced again later in a random order (hits)
    repeats = data.draw(st.lists(st.sampled_from(fresh), max_size=30))
    model = ComputeCostModel(GPU)
    for flops, nbytes, min_dim in fresh + repeats:
        want = GPU.compute_time(flops, nbytes, min_dim)
        got = model.op_time(flops, nbytes, min_dim)
        assert got == want and got.hex() == want.hex()
    assert len(model.op_times) <= len(set(fresh))


def test_int_and_float_spellings_of_one_size_share_an_exact_price():
    # 6 == 6.0 hash alike, so they share a table entry; the roofline gives
    # both the same float, so whichever came first serves the other exactly
    model = ComputeCostModel(GPU)
    first = model.op_time(6, 24)
    assert len(model.op_times) == 1
    assert model.op_time(6.0, 24.0) == first == GPU.compute_time(6.0, 24.0)
    assert len(model.op_times) == 1


@pytest.mark.parametrize("flops,nbytes", [(-1.0, 0.0), (0.0, -1.0), (-2, -2)])
def test_negative_work_raises_on_miss_and_after_hits(flops, nbytes):
    model = ComputeCostModel(GPU)
    for _ in range(2):  # never stored, so the second call is a miss as well
        with pytest.raises(CommError, match="negative work"):
            model.op_time(flops, nbytes)
    model.op_time(abs(flops), abs(nbytes))  # warm the table next to it
    model.op_time(abs(flops), abs(nbytes))
    with pytest.raises(CommError, match="negative work"):
        model.op_time(flops, nbytes)
    assert all(f >= 0 and b >= 0 for f, b, _ in model.op_times)


def test_negative_work_raises_through_rank_context():
    def program(ctx):
        ctx.compute(flops=1e6)
        with pytest.raises(CommError, match="negative work"):
            ctx.compute(flops=-1e6)
        return ctx.clock.now

    (now,) = Engine(nranks=1, mode="symbolic").run(program)
    assert now == GPU.compute_time(1e6)


def test_table_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(ComputeCostModel, "MAX_OP_TIMES", 8)
    model = ComputeCostModel(GPU)
    for n in range(1, 21):
        assert model.op_time(1e6 * n, 4e3 * n) == GPU.compute_time(1e6 * n, 4e3 * n)
    assert len(model.op_times) == 8
    stored = dict(model.op_times)
    for n in range(1, 21):  # hits below the bound, recomputed above: same floats
        assert model.op_time(1e6 * n, 4e3 * n) == GPU.compute_time(1e6 * n, 4e3 * n)
    assert model.op_times == stored


def test_models_do_not_share_a_table_and_compare_by_gpu():
    a, b = ComputeCostModel(GPU), ComputeCostModel(GPU)
    a.op_time(1e9)
    assert a.op_times and not b.op_times
    assert a == b and hash(a) == hash(b)


# --- through the engine ---------------------------------------------------------

#: (flops, bytes_touched, min_dim, tag) of every kernel `_program` launches
def _kernels():
    mm = (2.0 * 8 * 16 * 4, (8 * 16 + 16 * 4 + 8 * 4) * 4, 4.0, "mm")
    gelu = (8.0 * 32, 2 * 32 * 4, None, "gelu")
    cat = (0.0, 2 * (2 * 32 * 4), None, "concat")
    raw = (1e9, 0.0, None, "raw")
    return [mm, gelu, cat, raw] * 3


def _program(ctx):
    x, w = VArray.symbolic((8, 16)), VArray.symbolic((16, 4))
    for _ in range(3):
        y = ops.gelu(ctx, ops.matmul(ctx, x, w, tag="mm"))
        ops.concat(ctx, [y, y], axis=0)
        ctx.compute(flops=1e9, tag="raw")
    return ctx.clock.now, ctx.compute_seconds


def _fold(plan, rank):
    """The clock a rank must reach: the roofline priced kernel by kernel,
    slow-down applied to each price at the kernel's start time."""
    t = busy = 0.0
    events = []
    windowed = plan is not None and plan.has_windowed_slowdown(rank)
    for flops, nbytes, min_dim, tag in _kernels():
        dt = GPU.compute_time(flops, nbytes, min_dim)
        if windowed:
            dt *= plan.compute_factor(rank, now=t)
        elif plan is not None and plan.compute_factor(rank) != 1.0:
            dt *= plan.compute_factor(rank)
        events.append(ComputeEvent(rank, t, t + dt, flops, nbytes, tag))
        t += dt
        busy += dt
    return (t, busy), events


SLOW = FaultPlan(slowdowns=(
    ComputeSlowdown(rank=1, factor=3.0),
    ComputeSlowdown(rank=2, factor=4.0, until=2e-4),
))


@pytest.mark.parametrize("plan", [None, SLOW], ids=["healthy", "slowdowns"])
def test_cold_and_warm_tables_price_identically(plan):
    engine = Engine(nranks=3, mode="symbolic", trace=False, fault_plan=plan)
    cold = engine.run(_program)
    assert len(engine.compute_model.op_times) == 4  # distinct kernels
    warm = engine.run(_program)  # every price is now a table hit
    assert warm == cold == [_fold(plan, r)[0] for r in range(3)]
    # the table holds healthy-GPU prices only: factors are applied after it
    assert engine.compute_model.op_times == {
        (f, b, m): GPU.compute_time(f, b, m) for f, b, m, _ in _kernels()
    }
    if plan is not None:
        healthy = _fold(None, 0)[0][0]
        assert cold[1][0] > 2.9 * healthy  # persistent straggler
        assert healthy < cold[2][0] < 4.0 * healthy  # the window expired midway


@pytest.mark.parametrize("plan", [None, SLOW], ids=["healthy", "slowdowns"])
def test_traced_events_are_the_unmemoized_ones(plan):
    """With tracing on, each rank's compute events are exactly what pricing
    every kernel through ``GPUSpec.compute_time`` and folding the clock
    gives (what the engine recorded before prices were memoized)."""
    engine = Engine(nranks=3, mode="symbolic", trace=True, fault_plan=plan)
    for _ in range(2):  # cold table, then warm
        engine.trace.clear()
        engine.run(_program)
        for rank in range(3):
            assert engine.trace.compute_events(rank) == _fold(plan, rank)[1]


def test_untraced_run_builds_no_compute_events(monkeypatch):
    built = []

    def counting_event(*args, **kwargs):
        built.append(1)
        return ComputeEvent(*args, **kwargs)

    monkeypatch.setattr("repro.sim.engine.ComputeEvent", counting_event)
    Engine(nranks=2, mode="symbolic", trace=False).run(_program)
    assert not built
    Engine(nranks=2, mode="symbolic", trace=True).run(_program)
    assert len(built) == 2 * len(_kernels())
