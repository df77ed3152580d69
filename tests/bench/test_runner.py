"""Tests for the benchmark runner (small configurations for speed)."""

import gc
import weakref

import pytest

from repro.bench.experiments import TABLE1_ROWS, BenchRow
from repro.bench import runner
from repro.bench.runner import (
    MeasuredRow,
    effective_batch,
    engine_for_row,
    run_row,
)
from repro.errors import ConfigError


def _row(scheme="tesseract", gpus=4, shape=(2, 2, 1), batch=8, hidden=16,
         heads=4):
    return BenchRow("test", scheme, gpus, shape, batch, hidden, heads,
                    0.1, 0.2, 3.33, 10.0)


def _mrow(gpus):
    """A valid Megatron row on ``gpus`` ranks (shape must multiply out)."""
    return _row("megatron", gpus, (gpus,))


def _spy_engines(monkeypatch, wrap=None):
    """Record every engine a row builds, in row order, through a spy on
    ``runner.engine_for_row``; ``wrap(engine)`` may patch the engine and
    returns what is recorded."""
    built = []
    engine_for_row = runner.engine_for_row

    def spying(*args, **kwargs):
        engine = engine_for_row(*args, **kwargs)
        built.append(engine if wrap is None else wrap(engine))
        return engine

    monkeypatch.setattr(runner, "engine_for_row", spying)
    return built


class TestEffectiveBatch:
    def test_megatron_untouched(self):
        assert effective_batch(_row("megatron", 4, (4,), batch=7)) == 7

    def test_divisible_untouched(self):
        assert effective_batch(_row(batch=8)) == 8

    def test_rounds_up_to_dq(self):
        row = _row("tesseract", 8, (2, 2, 2), batch=6)
        assert effective_batch(row) == 8  # dq = 4 -> ceil(6/4)*4

    def test_paper_444_case(self):
        row = BenchRow("t", "tesseract", 64, (4, 4, 4), 12, 64, 16,
                       0, 1, 1, 1)
        assert effective_batch(row) == 16


class TestRunRow:
    @pytest.mark.parametrize("scheme,gpus,shape", [
        ("megatron", 4, (4,)),
        ("optimus", 4, (2, 2)),
        ("tesseract", 8, (2, 2, 2)),
    ])
    def test_produces_positive_times(self, scheme, gpus, shape):
        m = run_row(_row(scheme, gpus, shape), seq_len=8, num_layers=1)
        assert m.forward > 0
        assert m.backward > 0
        assert m.throughput == pytest.approx(1.0 / (m.forward + m.backward))
        assert m.inference == pytest.approx(1.0 / m.forward)
        assert m.peak_memory_bytes > 0

    def test_comm_breakdown_collected(self):
        m = run_row(_row(), seq_len=8, num_layers=1)
        assert m.comm  # at least broadcasts from SUMMA
        assert any(k.startswith("broadcast") for k in m.comm)

    def test_collect_comm_off(self):
        m = run_row(_row(), seq_len=8, num_layers=1, collect_comm=False)
        assert m.comm == {}

    def test_deterministic(self):
        a = run_row(_row(), seq_len=8, num_layers=1)
        b = run_row(_row(), seq_len=8, num_layers=1)
        assert a.forward == b.forward
        assert a.backward == b.backward

    def test_more_layers_cost_more(self):
        one = run_row(_row(), seq_len=8, num_layers=1)
        two = run_row(_row(), seq_len=8, num_layers=2)
        assert two.forward > one.forward

    def test_depth_speeds_up_forward_at_fixed_q(self):
        """The paper's core strong-scaling observation, at test scale:
        greater depth reduces forward time for the same q (batch volume
        per slice shrinks)."""
        shallow = run_row(
            _row("tesseract", 4, (2, 2, 1), batch=32, hidden=32, heads=4),
            seq_len=64, num_layers=1)
        deep = run_row(
            _row("tesseract", 8, (2, 2, 2), batch=32, hidden=32, heads=4),
            seq_len=64, num_layers=1)
        assert deep.forward < shallow.forward

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("size", ["seq_len", "num_layers"])
    def test_rejects_sizes_below_one(self, monkeypatch, size, value):
        """A size below one is refused before any engine is built; it
        once priced zero tokens, returned all zeros or failed inside the
        engine."""
        built = _spy_engines(monkeypatch)
        sizes = {"seq_len": 8, "num_layers": 1, size: value}
        with pytest.raises(ConfigError, match=f"{size} must be >= 1"):
            run_row(_row(), **sizes)
        assert not built


class TestRunTable:
    """A table runs row by row, each row on an engine of its own that is
    shut down after it; each row must read as it does on a fresh engine
    the caller builds."""

    @pytest.mark.parametrize("collect_comm", [False, True])
    def test_table_equals_fresh_engine_rows(self, collect_comm):
        rows = [r for r in TABLE1_ROWS if r.gpus <= 8]
        assert len({r.gpus for r in rows}) > 1
        table = runner.run_table(rows, seq_len=128, num_layers=1,
                                 collect_comm=collect_comm)
        for row, got in zip(rows, table, strict=True):
            engine = engine_for_row(row, collect_comm=collect_comm)
            try:
                want = run_row(row, seq_len=128, num_layers=1,
                               collect_comm=collect_comm, engine=engine)
            finally:
                engine.shutdown()
            assert (got.forward, got.backward, got.peak_memory_bytes,
                    got.comm) == (want.forward, want.backward,
                                  want.peak_memory_bytes, want.comm)
            assert bool(got.comm) == collect_comm

    def test_no_engine_outlives_the_table(self, monkeypatch):
        rows = [_row(), _mrow(4), _row("tesseract", 8, (2, 2, 2))]
        refs = _spy_engines(monkeypatch, weakref.ref)
        table = runner.run_table(rows, seq_len=8, num_layers=1)
        assert len(refs) == len(table) == len(rows)
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(rows)

    def test_backend_is_read_per_row(self, monkeypatch):
        rows = [_row(), _mrow(4)]
        backends = _spy_engines(monkeypatch, lambda engine: engine.backend)
        tables = {}
        for backend in ("threaded", "event"):
            monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
            tables[backend] = [
                (m.forward, m.backward, m.peak_memory_bytes, m.comm)
                for m in runner.run_table(rows, seq_len=8, num_layers=1)
            ]
        assert backends == ["threaded"] * len(rows) + ["event"] * len(rows)
        assert tables["threaded"] == tables["event"]


class TestPoisonedEngineEviction:
    """A row that raises must leave no wedged engine behind.

    Regression for the sweep-cascade bug: discarding a failed row's
    engine used to call ``shutdown()`` unguarded, so an engine whose
    workers died mid-run (shutdown raises on the half-dead state) would
    stay in use — or the shutdown error would mask the row's real
    failure — and every later sweep in the session failed on the same
    poisoned engine.
    """

    @staticmethod
    def _poison_programs(monkeypatch):
        def bad_program(row, batch, seq_len, num_layers):
            def program(ctx):
                raise RuntimeError("row exploded")
            return program
        monkeypatch.setattr(runner, "_row_program", bad_program)

    def test_failed_row_evicts_and_next_sweep_recovers(self, monkeypatch):
        row = _mrow(4)
        built = _spy_engines(monkeypatch)
        with monkeypatch.context() as m:
            self._poison_programs(m)
            with pytest.raises(RuntimeError, match="row exploded"):
                runner.run_table([row], seq_len=8, num_layers=1)
        [poisoned] = built
        assert poisoned.closed
        out = runner.run_table([row], seq_len=8, num_layers=1)
        assert len(out) == 1 and isinstance(out[0], MeasuredRow)
        assert len(built) == 2 and built[1] is not poisoned

    def test_shutdown_error_does_not_mask_row_error(self, monkeypatch):
        def raising_shutdown(engine):
            real_shutdown = engine.shutdown

            def bad_shutdown():
                real_shutdown()
                raise OSError("half-dead worker state")

            monkeypatch.setattr(engine, "shutdown", bad_shutdown)
            return engine

        row = _mrow(4)
        built = _spy_engines(monkeypatch, raising_shutdown)
        with monkeypatch.context() as m:
            self._poison_programs(m)
            # The row's own error propagates, not the shutdown's.
            with pytest.raises(RuntimeError, match="row exploded"):
                runner.run_table([row], seq_len=8, num_layers=1)
        assert built[0].closed
        out = runner.run_table([row], seq_len=8, num_layers=1)
        assert len(out) == 1

    def test_evicted_engine_holds_no_deferred_nodes(self, monkeypatch):
        """An abort mid-sweep strands deposited-but-incomplete rendezvous
        generations (and the payloads they hold) in the engine's channel
        table; discarding the engine must drop them.  Deferred generations
        exist only on the event backend, so the test pins it."""
        from repro.comm.communicator import Communicator

        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "event")

        def deposit_then_explode(row, batch, seq_len, num_layers):
            def program(ctx):
                Communicator(ctx, range(ctx.nranks)).barrier()
                if ctx.rank == 0:
                    raise RuntimeError("row exploded")
            return program

        def incomplete(engine):
            return sum(not gen.done for ch in engine._channels.values()
                       for gen in ch.gens.values())

        stranded = []

        def recording_shutdown(engine):
            assert engine._deferred
            real_shutdown = engine.shutdown

            def shutdown():
                stranded.append(incomplete(engine))
                real_shutdown()

            monkeypatch.setattr(engine, "shutdown", shutdown)
            return engine

        built = _spy_engines(monkeypatch, recording_shutdown)
        monkeypatch.setattr(runner, "_row_program", deposit_then_explode)
        with pytest.raises(RuntimeError, match="row exploded"):
            runner.run_table([_mrow(4)], seq_len=8, num_layers=1,
                             collect_comm=False)
        assert stranded == [1]  # rank 0 deposited, then aborted the run
        [poisoned] = built
        assert poisoned.closed
        assert incomplete(poisoned) == 0
