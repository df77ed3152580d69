"""Elastic scale-up: grow-back after repair, spare arrival, quarantine.

The acceptance bar for the grow path mirrors the shrink path's
(``test_resilience.py::TestElasticReshape``): after a ``NodeRepair``
returns capacity and the grid grows back, the post-grow losses *and*
per-rank comm volumes must be bit-identical to a fresh run at the grown
shape restored from the same redistributed snapshot — under every
scheduler backend, since the grow decision rides on a barrier-synced
clock comparison every rank evaluates identically.
"""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageClassification
from repro.errors import ConfigError, RankFailureError, SimulationError
from repro.grid.context import ParallelContext
from repro.grid.shapes import TesseractShape
from repro.models.configs import ViTConfig
from repro.models.vit import TesseractViT
from repro.nn.optim import Adam
from repro.sim.engine import Engine
from repro.sim.faults import (
    ComputeSlowdown,
    FaultPlan,
    NodeCrash,
    NodeRepair,
    SpareArrival,
)
from repro.sim.schedulers import available_backends
from repro.train import (
    ElasticPolicy,
    ResilienceConfig,
    SnapshotStore,
    train_classifier,
    train_resilient,
)
from repro.train.resilience import redistribute_payloads

CFG = ViTConfig(image_size=8, patch_size=4, channels=3, hidden=16, nheads=4,
                num_layers=1, num_classes=4)
DATA = SyntheticImageClassification(num_classes=4, image_size=8,
                                    train_size=64, test_size=32, seed=3)
RES = ResilienceConfig(snapshot_every=2, max_restarts=3)


@pytest.fixture(params=available_backends(), autouse=True)
def engine_backend(request, monkeypatch):
    """Every grow decision must be bit-identical across backends."""
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", request.param)
    return request.param


def _setup4(ctx, shape):
    q, d = (shape.q, shape.d) if shape is not None else (2, 1)
    pc = ParallelContext.tesseract(ctx, q=q, d=d)
    model = TesseractViT(pc, CFG)
    opt = Adam(model.parameter_list(), lr=3e-3)
    return model, opt, pc


def _setup8(ctx, shape):
    q, d = (shape.q, shape.d) if shape is not None else (2, 2)
    pc = ParallelContext.tesseract(ctx, q=q, d=d)
    model = TesseractViT(pc, CFG)
    opt = Adam(model.parameter_list(), lr=3e-3)
    return model, opt, pc


def _prog(setup, store, shape):
    def fn(ctx):
        model, opt, pc = setup(ctx, shape)
        return train_classifier(model, DATA, opt, epochs=2, batch_size=16,
                                pc=pc, resilience=RES, snapshot_store=store)

    return fn


class TestGrowBack:
    """Node crash, shrink, repair, grow back to the original grid."""

    PLAN = FaultPlan(seed=5,
                     node_crashes=(NodeCrash(node=1, at=0.25),),
                     node_repairs=(NodeRepair(node=1, at=0.45),))

    def _factory(self, launch, world):
        return Engine(nranks=world if world is not None else 8,
                      fault_plan=self.PLAN if launch == 0 else None)

    def _run(self, **policy_kw):
        return train_resilient(
            self._factory, _setup8, DATA, epochs=2, batch_size=16,
            resilience=RES, elastic=ElasticPolicy(**policy_kw),
            availability=self.PLAN,
        )

    def test_grow_back_bit_identical_to_fresh_run(self):
        run = self._run()
        assert run.attempt_kinds == ["crash", "grow", "ok"]
        assert run.attempts == 1  # the grow is voluntary, not a restart
        assert [r.reason for r in run.reshapes] == ["shrink", "grow"]
        shrink, grow = run.reshapes
        assert (shrink.old_world, shrink.new_world) == (8, 4)
        assert (grow.old_world, grow.new_world) == (4, 8)
        assert grow.new_shape == (2, 2)
        assert grow.resume_step > shrink.resume_step > 0
        assert grow.reclaim_delay_s > 0.0
        assert run.final_world == 8
        assert run.time_to_reclaim_s == pytest.approx(grow.reclaim_delay_s)

        # Replay by hand: crash the 8-rank attempt, re-shard down to
        # (2, 1), run the 4-rank segment, re-shard its grow-step
        # snapshot up to (2, 2), then run *fresh* at 8 ranks.
        store = SnapshotStore()
        engine0 = Engine(nranks=8, fault_plan=self.PLAN)
        with pytest.raises(RankFailureError):
            engine0.run(_prog(_setup8, store, None))
        snap0 = store.latest_step(8)
        assert snap0 == shrink.resume_step
        old = {r: store.load(snap0, r) for r in range(8)}
        store.begin_generation()
        store.reset_for_world(snap0, redistribute_payloads(old, 2, 1))

        Engine(nranks=4).run(_prog(_setup8, store, TesseractShape(q=2, d=1)))
        mid = {r: store.load(grow.resume_step, r) for r in range(4)}
        store.begin_generation()
        store.reset_for_world(grow.resume_step,
                              redistribute_payloads(mid, 2, 2))

        fresh_engine = Engine(nranks=8)
        fresh = fresh_engine.run(
            _prog(_setup8, store, TesseractShape(q=2, d=2)))
        assert run.history.losses == fresh[0].losses
        assert run.history.eval_acc == fresh[0].eval_acc
        # The acceptance bar: post-grow per-rank comm volumes match the
        # fresh run exactly — growing is invisible to the accounting.
        for r in range(8):
            assert run.engine.trace.comm_volume(rank=r) == pytest.approx(
                fresh_engine.trace.comm_volume(rank=r)
            ), f"rank {r} comm volume drifted across the grow"

    def test_grow_back_is_deterministic(self):
        a, b = self._run(), self._run()
        assert a.history.losses == b.history.losses
        assert ([(r.reason, r.resume_step) for r in a.reshapes]
                == [(r.reason, r.resume_step) for r in b.reshapes])
        assert a.attempt_times == b.attempt_times
        assert a.time_to_reclaim_s == b.time_to_reclaim_s


class TestSpareArrival:
    """Fresh capacity mid-run: a pure voluntary grow, no crash at all."""

    PLAN = FaultPlan(spare_arrivals=(SpareArrival(count=4, at=0.3),))

    def _factory(self, launch, world):
        return Engine(nranks=world if world is not None else 4)

    def _run(self, **policy_kw):
        return train_resilient(
            self._factory, _setup4, DATA, epochs=2, batch_size=16,
            resilience=RES, elastic=ElasticPolicy(**policy_kw),
            availability=self.PLAN,
        )

    def test_arrival_grows_without_losing_work(self):
        run = self._run()
        assert run.attempt_kinds == ["grow", "ok"]
        assert run.attempts == 0
        assert run.history.recoveries == []  # snapshot-clean, no recovery
        assert [r.reason for r in run.reshapes] == ["grow"]
        assert run.reshapes[0].resume_step > 0
        assert run.final_world == 8

    def test_hysteresis_defers_the_grow(self):
        base = self._run()
        step0 = base.reshapes[0].resume_step
        later = self._run(min_steps_between_reshapes=step0 + 2)
        assert later.final_world == 8
        assert later.reshapes[0].resume_step >= step0 + 2
        # Identical up to the earlier boundary (same grid, same steps);
        # past it the two runs step on different shapes, whose metric
        # reductions round differently in the last bits.
        assert later.history.losses[:step0] == base.history.losses[:step0]
        assert later.history.losses == pytest.approx(base.history.losses)

    def test_availability_requires_elastic(self):
        with pytest.raises(ConfigError, match="elastic"):
            train_resilient(
                self._factory, _setup4, DATA, epochs=2, batch_size=16,
                resilience=RES, availability=self.PLAN,
            )


class TestQuarantine:
    """A persistent straggler's node is evicted, then readmitted."""

    PLAN = FaultPlan(slowdowns=(
        ComputeSlowdown(rank=5, factor=4.0, until=0.6),
    ))

    def _factory(self, launch, world):
        return Engine(nranks=world if world is not None else 8,
                      fault_plan=self.PLAN if launch == 0 else None)

    def _run(self, **policy_kw):
        policy_kw.setdefault("quarantine_factor", 2.0)
        return train_resilient(
            self._factory, _setup8, DATA, epochs=2, batch_size=16,
            resilience=RES, elastic=ElasticPolicy(**policy_kw),
            availability=self.PLAN,
        )

    def test_straggler_node_evicted_then_readmitted(self):
        run = self._run()
        assert run.attempt_kinds == ["quarantine", "grow", "ok"]
        assert run.attempts == 0
        assert run.history.recoveries == []  # voluntary: zero lost steps
        quar, grow = run.reshapes
        assert quar.reason == "quarantine"
        assert quar.lost_ranks == (5,)  # the dragging rank, node-expanded
        assert (quar.old_world, quar.new_world) == (8, 4)
        assert grow.reason == "grow"
        assert (grow.old_world, grow.new_world) == (4, 8)
        assert run.final_world == 8
        # Exactly one eviction: the readmitted node comes back healthy
        # (its windowed slowdown expired), so it is never re-quarantined.
        assert run.attempt_kinds.count("quarantine") == 1

    def test_quarantine_is_deterministic(self):
        a, b = self._run(), self._run()
        assert a.history.losses == b.history.losses
        assert ([(r.reason, r.resume_step) for r in a.reshapes]
                == [(r.reason, r.resume_step) for r in b.reshapes])
        assert a.attempt_times == b.attempt_times

    def test_quarantine_respects_min_world(self):
        with pytest.raises(SimulationError, match="min_world"):
            self._run(min_world=8)

    def test_losses_match_the_healthy_run(self):
        """Eviction + readmission is snapshot-clean and byte-lossless,
        so the metric history matches the never-faulted 8-rank run's —
        to float tolerance, since the quarantined segment steps on a
        4-rank grid whose metric reduction rounds differently."""

        def healthy(ctx):
            model, opt, pc = _setup8(ctx, None)
            return train_classifier(model, DATA, opt, epochs=2,
                                    batch_size=16, pc=pc)

        ref = Engine(nranks=8).run(healthy)[0]
        run = self._run()
        assert run.history.losses == pytest.approx(ref.losses)
        assert run.history.eval_acc == ref.eval_acc  # integer counts: exact
