"""Tests for the benchmark runner (small configurations for speed)."""

import pytest

from repro.bench.experiments import BenchRow
from repro.bench import runner
from repro.bench.runner import (
    MeasuredRow,
    clear_engine_cache,
    effective_batch,
    engine_for_row,
    run_row,
)


def _row(scheme="tesseract", gpus=4, shape=(2, 2, 1), batch=8, hidden=16,
         heads=4):
    return BenchRow("test", scheme, gpus, shape, batch, hidden, heads,
                    0.1, 0.2, 3.33, 10.0)


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


def _mrow(gpus):
    """A valid row with a per-``gpus`` cache key (shape must multiply out)."""
    return _row("megatron", gpus, (gpus,))


class TestEngineCacheLRU:
    """The session engine cache is LRU-bounded and evicts cleanly."""

    def setup_method(self):
        clear_engine_cache()

    def teardown_method(self):
        clear_engine_cache()

    def test_hit_returns_same_engine(self):
        a = engine_for_row(_mrow(4), cache=True)
        b = engine_for_row(_mrow(4), cache=True)
        assert a is b

    def test_cache_never_exceeds_bound(self):
        for gpus in range(1, runner.ENGINE_CACHE_MAX + 5):
            engine_for_row(_mrow(gpus), cache=True)
            assert len(runner._ENGINE_CACHE) <= runner.ENGINE_CACHE_MAX
        assert len(runner._ENGINE_CACHE) == runner.ENGINE_CACHE_MAX

    def test_eviction_shuts_down_oldest(self):
        first = engine_for_row(_mrow(1), cache=True)
        for gpus in range(2, runner.ENGINE_CACHE_MAX + 2):
            engine_for_row(_mrow(gpus), cache=True)
        assert first.closed  # evicted engine was shut down, not leaked
        fresh = engine_for_row(_mrow(1), cache=True)
        assert fresh is not first

    def test_hit_refreshes_lru_position(self):
        keep = engine_for_row(_mrow(1), cache=True)
        for gpus in range(2, runner.ENGINE_CACHE_MAX + 1):
            engine_for_row(_mrow(gpus), cache=True)
        # Touch the oldest entry, then overflow by one: the *second*
        # oldest must be the victim, not the refreshed one.
        assert engine_for_row(_mrow(1), cache=True) is keep
        engine_for_row(_mrow(runner.ENGINE_CACHE_MAX + 1), cache=True)
        assert not keep.closed
        assert engine_for_row(_mrow(1), cache=True) is keep

    def test_clear_shuts_down_everything(self):
        engines = [engine_for_row(_mrow(g), cache=True) for g in (1, 2)]
        clear_engine_cache()
        assert not runner._ENGINE_CACHE
        assert all(e.closed for e in engines)


class TestEngineCacheFootprint:
    """The byte budget evicts by estimated footprint, not just by count."""

    def setup_method(self):
        clear_engine_cache()

    def teardown_method(self):
        clear_engine_cache()

    def test_budget_evicts_before_entry_bound(self, monkeypatch):
        # Budget sized to hold roughly two small engines: inserting a
        # third must evict the oldest even though ENGINE_CACHE_MAX is 8.
        first = engine_for_row(_mrow(1), cache=True)
        budget = 2 * first.estimated_footprint() + 1024
        monkeypatch.setattr(runner, "ENGINE_CACHE_MAX_BYTES", budget)
        engine_for_row(_mrow(2), cache=True)
        engine_for_row(_mrow(3), cache=True)
        assert first.closed
        assert len(runner._ENGINE_CACHE) < runner.ENGINE_CACHE_MAX
        assert runner._cache_footprint() <= budget

    def test_sole_entry_survives_a_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(runner, "ENGINE_CACHE_MAX_BYTES", 1)
        engine = engine_for_row(_mrow(4), cache=True)
        assert not engine.closed
        assert len(runner._ENGINE_CACHE) == 1
        # and a hit still returns it rather than rebuilding
        assert engine_for_row(_mrow(4), cache=True) is engine

    def test_footprint_grows_with_rank_count(self):
        small = engine_for_row(_mrow(2), cache=True)
        large = engine_for_row(_mrow(16), cache=True)
        assert large.estimated_footprint() > small.estimated_footprint()

class TestPoisonedEngineEviction:
    """A row that raises must not leave a wedged engine in the cache.

    Regression for the sweep-cascade bug: eviction used to call
    ``shutdown()`` unguarded, so an engine whose workers died mid-run
    (shutdown raises on the half-dead state) would stay cached — or the
    shutdown error would mask the row's real failure — and every later
    sweep in the session failed on the same poisoned engine.
    """

    def setup_method(self):
        clear_engine_cache()

    def teardown_method(self):
        clear_engine_cache()

    @staticmethod
    def _poison_programs(monkeypatch):
        def bad_program(row, batch, seq_len, num_layers):
            def program(ctx):
                raise RuntimeError("row exploded")
            return program
        monkeypatch.setattr(runner, "_row_program", bad_program)

    def test_failed_row_evicts_and_next_sweep_recovers(self, monkeypatch):
        row = _mrow(4)
        poisoned = engine_for_row(row, cache=True)
        with monkeypatch.context() as m:
            self._poison_programs(m)
            with pytest.raises(RuntimeError, match="row exploded"):
                runner.run_table([row], seq_len=8, num_layers=1)
        assert poisoned.closed
        assert poisoned not in runner._ENGINE_CACHE.values()
        out = runner.run_table([row], seq_len=8, num_layers=1)
        assert len(out) == 1 and isinstance(out[0], MeasuredRow)
        assert engine_for_row(row, cache=True) is not poisoned

    def test_shutdown_error_does_not_mask_row_error(self, monkeypatch):
        row = _mrow(4)
        poisoned = engine_for_row(row, cache=True)

        real_shutdown = poisoned.shutdown

        def bad_shutdown():
            real_shutdown()
            raise OSError("half-dead worker state")

        monkeypatch.setattr(poisoned, "shutdown", bad_shutdown)
        with monkeypatch.context() as m:
            self._poison_programs(m)
            # The row's own error propagates, not the shutdown's.
            with pytest.raises(RuntimeError, match="row exploded"):
                runner.run_table([row], seq_len=8, num_layers=1)
        assert poisoned not in runner._ENGINE_CACHE.values()
        out = runner.run_table([row], seq_len=8, num_layers=1)
        assert len(out) == 1

    def test_evicted_engine_holds_no_deferred_nodes(self, monkeypatch):
        """An abort mid-sweep strands deposited-but-incomplete deferred
        nodes (and the payloads they hold); eviction must drop them."""
        from repro.comm.communicator import Communicator

        def deposit_then_explode(row, batch, seq_len, num_layers):
            def program(ctx):
                Communicator(ctx, range(ctx.nranks)).barrier()
                if ctx.rank == 0:
                    raise RuntimeError("row exploded")
            return program

        row = _mrow(4)
        poisoned = engine_for_row(row, cache=True, collect_comm=False)
        assert poisoned._deferred
        stranded = []
        real_shutdown = poisoned.shutdown

        def recording_shutdown():
            stranded.append(len(poisoned._dpending))
            real_shutdown()

        monkeypatch.setattr(poisoned, "shutdown", recording_shutdown)
        monkeypatch.setattr(runner, "_row_program", deposit_then_explode)
        with pytest.raises(RuntimeError, match="row exploded"):
            runner.run_table([row], seq_len=8, num_layers=1,
                             collect_comm=False)
        assert stranded == [1]  # rank 0 deposited, then aborted the run
        assert poisoned.closed
        assert not poisoned._dpending

    def test_clear_cache_survives_raising_shutdown(self, monkeypatch):
        engine = engine_for_row(_mrow(2), cache=True)
        monkeypatch.setattr(
            engine, "shutdown",
            lambda: (_ for _ in ()).throw(OSError("boom")))
        clear_engine_cache()
        assert not runner._ENGINE_CACHE


class TestEngineCacheBackendKey:
    def setup_method(self):
        clear_engine_cache()

    def teardown_method(self):
        clear_engine_cache()

    def test_backend_is_part_of_the_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "threaded")
        threaded = engine_for_row(_mrow(4), cache=True)
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "event")
        event = engine_for_row(_mrow(4), cache=True)
        assert threaded is not event
        assert threaded.backend == "threaded"
        assert event.backend == "event"
        # each variant still hits its own entry
        assert engine_for_row(_mrow(4), cache=True) is event
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "threaded")
        assert engine_for_row(_mrow(4), cache=True) is threaded
