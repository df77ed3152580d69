"""Golden-value regression tests for the simulation cost model.

The entire reproduction hinges on the simulated timings being stable and
deterministic.  These tests pin exact simulated values for small frozen
configurations; any change to the cost model (link efficiencies, roofline
parameters, collective formulas) will trip them — deliberately — so such
changes must be conscious and re-recorded here and in EXPERIMENTS.md.
"""

import pytest

from repro.comm.communicator import Communicator
from repro.hardware.spec import A100_40GB, INFINIBAND_HDR200, NVLINK3, meluxina
from repro.sim.cost import CommCostModel
from repro.sim.engine import Engine
from repro.hardware.topology import Topology
from repro.varray.varray import VArray


class TestHardwareConstants:
    """The modeled hardware matches the paper's stated testbed."""

    def test_nvlink_200GBps(self):
        assert NVLINK3.bandwidth == 200e9

    def test_infiniband_200Gbps(self):
        assert INFINIBAND_HDR200.bandwidth == 25e9  # 200 Gbit/s

    def test_a100_memory(self):
        assert A100_40GB.memory_bytes == 40e9

    def test_link_efficiencies_frozen(self):
        assert NVLINK3.efficiency == pytest.approx(0.8)
        assert INFINIBAND_HDR200.efficiency == pytest.approx(0.5)


class TestGoldenComputeTimes:
    def test_matmul_kernel_time(self):
        # 1 Tflop at full-size utilization.
        t = A100_40GB.compute_time(1e12, min_dim=4096)
        assert t == pytest.approx(9.4270e-03, rel=1e-3)

    def test_narrow_matmul_penalty_value(self):
        wide = A100_40GB.compute_time(1e12, min_dim=4096)
        narrow = A100_40GB.compute_time(1e12, min_dim=48)
        assert narrow / wide == pytest.approx(2.9297, rel=0.01)

    def test_memory_bound_op(self):
        t = A100_40GB.compute_time(0.0, bytes_touched=1.555e9)
        assert t == pytest.approx(1e-3 + A100_40GB.launch_overhead, rel=1e-6)


class TestGoldenCollectiveCosts:
    @pytest.fixture
    def model(self):
        return CommCostModel(Topology(meluxina(4), nranks=16))

    def test_intra_node_allreduce_100MB(self, model):
        # ring over 4 ranks on NVLink at 160 GB/s effective + gamma.
        t = model.all_reduce([0, 1, 2, 3], 100e6)
        assert t == pytest.approx(1.0138e-03, rel=1e-3)

    def test_cross_node_allreduce_100MB(self, model):
        t = model.all_reduce(list(range(16)), 100e6)
        assert t == pytest.approx(1.4602e-02, rel=1e-3)

    def test_intra_broadcast_10MB(self, model):
        t = model.broadcast([0, 1, 2, 3], 10e6)
        assert t == pytest.approx(2 * (2e-6 + 10e6 / 160e9), rel=1e-6)


class TestEngineOverheadSmoke:
    """Fast-mode run of ``benchmarks/bench_engine_overhead.py`` in tier-1.

    The full bench (512 ranks, wall-clock floor) only runs nightly; the
    merge gate keeps its deterministic gates only — no assertion here
    compares two wall-clock measurements.
    """

    def test_event_backend_deferred_structure(self):
        """Event backend at smoke scale: structural gates are exact.

        The wall-clock floor lives in the nightly bench (>= 10x at 512
        ranks); what tier-1 pins is the *deterministic* structure of the
        deferred sweep — zero hand-offs (no rank ever parks, the whole
        run is one inline sequential sweep) and bit-identical
        results/virtual clocks against the threaded backend.
        """
        from benchmarks.bench_engine_overhead import measure_event

        m = measure_event(nranks=64, rounds=8, runs=3, reps=1)
        assert m["results_match"], (
            "event backend diverged from threaded on the barrier sweep "
            "at smoke scale (results or virtual clocks differ)"
        )
        assert m["event_handoffs_per_run"] == 0, (
            f"deferred scheduling regression: "
            f"{m['event_handoffs_per_run']} hand-offs per run, expected "
            f"exactly 0 (some rank parked at a rendezvous it should have "
            f"deferred)"
        )


class TestDeferredCollectiveStructure:
    """The deferred sweep's structure, pinned exactly (no wall clocks).

    In a symbolic, untraced event-backend engine every collective a
    layer issues is answered from the rank's own operands: SUMMA passes
    each rank's block as the broadcast receive buffer, a symbolic root
    reduce or all-reduce echoes its own payload.  No rank parks, so a
    layer that never reads ``ctx.now`` runs with no scheduler hand-off,
    and deferring must not move a single number against blocking.
    """

    def test_tesseract_layer_runs_without_handoffs(self):
        from repro.parallel.factory import build_transformer_stack

        def prog(ctx):
            handle = build_transformer_stack(
                ctx, "tesseract", num_layers=1, hidden=64, nheads=4, q=2, d=2)
            y = handle.layers.forward(handle.symbolic_input(4, 16, 64))
            handle.layers.backward(VArray.symbolic(y.shape, y.dtype))
            return ctx.kernels

        engine = Engine(nranks=8, mode="symbolic", trace=False,
                        backend="event")
        kernels = engine.run(prog)
        assert engine._deferred and min(kernels) > 0
        assert engine.scheduler.handoffs == 0, (
            f"{engine.scheduler.handoffs} hand-offs: some rank parked at a "
            f"collective its own operands answer"
        )

    def test_small_table1_rows_equal_deferred_and_blocking(
            self, monkeypatch):
        from repro.bench.experiments import TABLE1_ROWS
        from repro.bench.runner import engine_for_row, run_row

        # only the event backend defers
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "event")
        rows = [row for row in TABLE1_ROWS if row.gpus <= 8]
        assert len(rows) == 4
        for row in rows:
            seen = []
            for collect_comm in (False, True):
                engine = engine_for_row(row, collect_comm=collect_comm)
                assert engine._deferred is (not collect_comm)
                m = run_row(row, seq_len=128, num_layers=1, engine=engine,
                            collect_comm=collect_comm)
                seen.append((
                    m.forward, m.backward, m.peak_memory_bytes,
                    [(c.clock.now, c.compute_seconds, c.kernels)
                     for c in engine.contexts],
                ))
            assert seen[0] == seen[1], f"{row.label}: deferred != blocking"


class TestPagedServingSmoke:
    """Fast-mode floor for ``benchmarks/bench_serving.py``'s paged arm.

    The full shared-prefix sweep (three rates, 24 requests, real-tensor
    parity check) runs nightly; this smoke runs the peak rate only with
    half the requests and a floor below the bench's 1.3x, so a collapse
    of the paged cache's goodput advantage — or a byte-level
    nondeterminism in its report — fails tier-1 without re-asserting the
    exact nightly numbers.
    """

    def test_paged_goodput_floor_and_determinism(self):
        import json

        from benchmarks.bench_serving import (
            RATES,
            _check_prefix_guarantees,
            run_prefix_sweep,
        )

        curves = run_prefix_sweep(rates=RATES[-1:], num_requests=12)
        _check_prefix_guarantees(curves, floor=1.15, check_ttft=False)
        again = run_prefix_sweep(rates=RATES[-1:], num_requests=12)
        assert (json.dumps(curves, sort_keys=True)
                == json.dumps(again, sort_keys=True)), (
            "paged serving report is not byte-deterministic"
        )


class TestGoldenEndToEnd:
    def test_small_allreduce_program_time_pinned(self):
        """A complete 8-rank program's makespan, pinned to the digit."""
        engine = Engine(nranks=8, mode="symbolic")

        def prog(ctx):
            comm = Communicator(ctx, range(8))
            ctx.compute(flops=1e9, min_dim=256)
            comm.all_reduce(VArray.symbolic((1024, 1024)))
            return ctx.now

        times = engine.run(prog)
        assert len(set(times)) == 1
        assert times[0] == pytest.approx(5.4465e-04, rel=1e-3)

    def test_rerun_bit_identical(self):
        def prog(ctx):
            comm = Communicator(ctx, range(4))
            ctx.compute(flops=3.3e9)
            comm.all_reduce(VArray.symbolic((100, 100)))
            return ctx.now

        a = Engine(nranks=4, mode="symbolic").run(prog)
        b = Engine(nranks=4, mode="symbolic").run(prog)
        assert a == b
