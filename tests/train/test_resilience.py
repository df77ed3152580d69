"""Checkpoint/restart recovery for the training loop."""

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageClassification
from repro.errors import ConfigError, RankFailureError, SimulationError
from repro.grid.context import ParallelContext
from repro.models.configs import ViTConfig
from repro.models.vit import SerialViT, TesseractViT
from repro.nn.optim import SGD, Adam
from repro.sim.engine import Engine
from repro.hardware.spec import meluxina
from repro.hardware.topology import Topology
from repro.sim.faults import (
    ComputeSlowdown,
    FaultPlan,
    NodeCrash,
    NodeRepair,
    RankCrash,
    SpareArrival,
)
from repro.train import (
    ElasticPolicy,
    ResilienceConfig,
    SnapshotStore,
    train_classifier,
    train_resilient,
)
from repro.train.resilience import Capacity, redistribute_payloads

CFG = ViTConfig(image_size=8, patch_size=4, channels=3, hidden=16, nheads=4,
                num_layers=1, num_classes=4)
DATA = SyntheticImageClassification(num_classes=4, image_size=8,
                                    train_size=64, test_size=32, seed=3)


def _setup(ctx, shape):
    q, d = (shape.q, shape.d) if shape is not None else (2, 1)
    pc = ParallelContext.tesseract(ctx, q=q, d=d)
    model = TesseractViT(pc, CFG)
    opt = Adam(model.parameter_list(), lr=3e-3)
    return model, opt, pc


def _reference(epochs=2):
    def prog(ctx):
        model, opt, pc = _setup(ctx, None)
        return train_classifier(model, DATA, opt, epochs=epochs,
                                batch_size=16, pc=pc)

    return Engine(nranks=4).run(prog)[0]


def _factory_with(plan):
    def factory(launch, world):
        return Engine(nranks=4, fault_plan=plan if launch == 0 else None)

    return factory


class TestOptimizerStateDict:
    @pytest.mark.parametrize("make", [
        lambda params: Adam(params, lr=3e-3),
        lambda params: SGD(params, lr=1e-2, momentum=0.9),
    ])
    def test_roundtrip_resumes_identical_trajectory(self, make):
        """Stop at step 2, restore into a fresh model, finish: same loss."""

        def full(ctx):
            model = SerialViT(ctx, CFG)
            opt = make(model.parameter_list())
            return train_classifier(model, DATA, opt, epochs=1, batch_size=16)

        ref = Engine(nranks=1).run(full)[0]

        def split(ctx):
            from repro.nn import serialize

            model = SerialViT(ctx, CFG)
            opt = make(model.parameter_list())
            cfg = ResilienceConfig(snapshot_every=2)
            store = SnapshotStore()
            train_classifier(model, DATA, opt, epochs=1, batch_size=16,
                             resilience=cfg, snapshot_store=store)
            # Fresh model + optimizer, restored purely from the store.
            model2 = SerialViT(ctx, CFG)
            opt2 = make(model2.parameter_list())
            return train_classifier(model2, DATA, opt2, epochs=1,
                                    batch_size=16, resilience=cfg,
                                    snapshot_store=store)

        resumed = Engine(nranks=1).run(split)[0]
        assert resumed.losses == ref.losses

    def test_state_dict_has_position_keys(self):
        def prog(ctx):
            model = SerialViT(ctx, CFG)
            opt = Adam(model.parameter_list(), lr=3e-3)
            train_classifier(model, DATA, opt, epochs=1, batch_size=64)
            return opt.state_dict()

        state = Engine(nranks=1).run(prog)[0]
        assert state["t"] == 1
        assert all(isinstance(k, int) for k in state["slots"])
        assert set(state["slots"][0]) == {"m", "v"}


class TestSnapshotStore:
    def test_latest_step_requires_all_ranks(self):
        store = SnapshotStore()
        store.save(2, 0, {"x": 1})
        assert store.latest_step(2) is None  # rank 1 missing: incomplete
        store.save(2, 1, {"x": 2})
        assert store.latest_step(2) == 2
        store.save(4, 0, {"x": 3})  # partial newer step never wins
        assert store.latest_step(2) == 2

    def test_prune_keeps_recent_complete_steps(self):
        store = SnapshotStore(keep=2)
        for step in (2, 4, 6, 8):
            store.save(step, 0, {"s": step})
        assert store.latest_step(1) == 8
        with pytest.raises(KeyError):
            store.load(2, 0)  # pruned
        assert store.load(8, 0) == {"s": 8}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(snapshot_every=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(max_restarts=-1)


class TestTrainResilient:
    def test_crash_recovers_to_fault_free_loss(self):
        ref = _reference()
        plan = FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),))
        run = train_resilient(
            _factory_with(plan), _setup, DATA, epochs=2, batch_size=16,
            resilience=ResilienceConfig(snapshot_every=2, max_restarts=2),
        )
        history = run.history
        assert run.attempts == 1
        assert len(history.recoveries) == 1
        rec = history.recoveries[0]
        assert rec.failed_rank == 1
        assert rec.crash_time == pytest.approx(0.35)
        assert rec.resume_step > 0  # a real snapshot restore, not scratch
        assert rec.latency_s > 0.0
        # Bit-identical convergence: snapshots are exact numpy copies.
        assert history.losses == ref.losses
        assert history.train_acc == ref.train_acc
        assert history.eval_acc == ref.eval_acc

    def test_crash_before_first_snapshot_restarts_from_scratch(self):
        ref = _reference()
        plan = FaultPlan(seed=7, crashes=(RankCrash(rank=2, at=0.02),))
        run = train_resilient(
            _factory_with(plan), _setup, DATA, epochs=2, batch_size=16,
            resilience=ResilienceConfig(snapshot_every=2, max_restarts=2),
        )
        assert run.history.recoveries[0].resume_step == 0
        assert run.history.losses == ref.losses

    def test_recovery_is_deterministic(self):
        plan = FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),))
        runs = [
            train_resilient(
                _factory_with(plan), _setup, DATA, epochs=2, batch_size=16,
                resilience=ResilienceConfig(snapshot_every=2, max_restarts=2),
            )
            for _ in range(2)
        ]
        assert runs[0].history.losses == runs[1].history.losses
        assert (runs[0].history.recoveries[0].resume_step
                == runs[1].history.recoveries[0].resume_step)

    def test_restart_budget_exhaustion_reraises(self):
        plan = FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),))

        def always_faulty(launch, world):
            return Engine(nranks=4, fault_plan=plan)

        with pytest.raises(RankFailureError):
            train_resilient(
                always_faulty, _setup, DATA, epochs=2, batch_size=16,
                resilience=ResilienceConfig(snapshot_every=2, max_restarts=1),
            )

    def test_fault_free_run_records_no_recoveries(self):
        run = train_resilient(
            _factory_with(None), _setup, DATA, epochs=1, batch_size=16,
            resilience=ResilienceConfig(snapshot_every=2),
        )
        assert run.attempts == 0
        assert run.history.recoveries == []
        assert run.history.losses == _reference(epochs=1).losses

    def test_virtual_time_accounts_failed_attempts(self):
        plan = FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),))
        run = train_resilient(
            _factory_with(plan), _setup, DATA, epochs=2, batch_size=16,
            resilience=ResilienceConfig(snapshot_every=2, max_restarts=2),
        )
        healthy = train_resilient(
            _factory_with(None), _setup, DATA, epochs=2, batch_size=16,
            resilience=ResilienceConfig(snapshot_every=2),
        )
        assert len(run.attempt_times) == 2
        assert run.total_virtual_time > healthy.total_virtual_time


class TestGenerationTags:
    """Restart-generation tagging: the crash-during-recovery safeguard."""

    def test_begin_generation_increments(self):
        store = SnapshotStore()
        assert store.generation == 0
        assert store.begin_generation() == 1
        assert store.begin_generation() == 2
        assert store.generation == 2

    def test_mixed_generation_step_is_not_restorable(self):
        """Deposits from two restart attempts never complete a step."""
        store = SnapshotStore()
        store.save(2, 0, {"x": "old"})
        store.begin_generation()  # the restart fires mid-snapshot
        store.save(2, 1, {"x": "new"})
        # Both ranks deposited at step 2, but across generations.
        assert store.latest_step(2) is None

    def test_redeposit_in_new_generation_restores(self):
        store = SnapshotStore()
        store.save(2, 0, {"x": "old"})
        store.begin_generation()
        store.save(2, 0, {"x": "new"})  # rank 0 re-deposits
        store.save(2, 1, {"x": "new"})
        assert store.latest_step(2) == 2
        assert store.load(2, 0) == {"x": "new"}

    def test_second_recovery_falls_back_to_last_uniform_step(self):
        store = SnapshotStore()
        for rank in (0, 1):
            store.save(2, rank, {"s": 2})
        store.begin_generation()
        store.save(4, 0, {"s": 4})  # attempt 1 died before rank 1's wave
        assert store.latest_step(2) == 2  # step 4 is partial; step 2 holds

    def test_reset_for_world_seeds_one_complete_step(self):
        store = SnapshotStore()
        for rank in range(4):
            store.save(6, rank, {"w": 4})
        store.reset_for_world(6, {0: {"w": 1}})
        assert store.latest_step(1) == 6
        assert store.latest_step(4) is None  # old world's deposits dropped
        assert store.load(6, 0) == {"w": 1}

    def test_reset_for_world_empty_clears(self):
        store = SnapshotStore()
        store.save(2, 0, {"x": 1})
        store.reset_for_world(0, {})
        assert store.latest_step(1) is None


CFG8 = CFG  # same model; the d=2 grid replicates over depth


def _setup8(ctx, shape):
    q, d = (shape.q, shape.d) if shape is not None else (2, 2)
    pc = ParallelContext.tesseract(ctx, q=q, d=d)
    model = TesseractViT(pc, CFG8)
    opt = Adam(model.parameter_list(), lr=3e-3)
    return model, opt, pc


def _reference8(epochs=2):
    def prog(ctx):
        model, opt, pc = _setup8(ctx, None)
        return train_classifier(model, DATA, opt, epochs=epochs,
                                batch_size=16, pc=pc)

    return Engine(nranks=8).run(prog)[0]


class TestNodeCrashRecovery:
    """Losing a whole fault domain, then recovering at full size."""

    PLAN = FaultPlan(seed=5, node_crashes=(NodeCrash(node=1, at=0.25),))

    def _factory(self, launch, world):
        return Engine(nranks=8,
                      fault_plan=self.PLAN if launch == 0 else None)

    def test_node_loss_recovers_to_fault_free_loss(self):
        ref = _reference8()
        run = train_resilient(
            self._factory, _setup8, DATA, epochs=2, batch_size=16,
            resilience=ResilienceConfig(snapshot_every=2, max_restarts=2),
        )
        assert run.attempts == 1
        rec = run.history.recoveries[0]
        assert rec.failed_rank in {4, 5, 6, 7}  # a node-1 resident
        assert rec.crash_time == pytest.approx(0.25)
        assert rec.resume_step > 0
        assert run.history.losses == ref.losses
        assert run.history.eval_acc == ref.eval_acc

    def test_node_loss_recovery_is_deterministic(self):
        runs = [
            train_resilient(
                self._factory, _setup8, DATA, epochs=2, batch_size=16,
                resilience=ResilienceConfig(snapshot_every=2,
                                            max_restarts=2),
            )
            for _ in range(2)
        ]
        assert runs[0].history.losses == runs[1].history.losses
        assert (runs[0].history.recoveries[0].resume_step
                == runs[1].history.recoveries[0].resume_step)


class TestCrashDuringRecovery:
    """A second crash while the first recovery is replaying."""

    def _factory(self, plans):
        def factory(launch, world):
            plan = plans[launch] if launch < len(plans) else None
            return Engine(nranks=4, fault_plan=plan)

        return factory

    def test_double_fault_still_converges_bit_identically(self):
        ref = _reference()
        plans = [
            FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),)),
            # attempt 1 dies too, *after* restore but mid-replay
            FaultPlan(seed=8, crashes=(RankCrash(rank=3, at=0.1),)),
        ]
        run = train_resilient(
            self._factory(plans), _setup, DATA, epochs=2, batch_size=16,
            resilience=ResilienceConfig(snapshot_every=2, max_restarts=3),
        )
        assert run.attempts == 2
        # Attempt 1 died before depositing a complete snapshot of its
        # own, so the final history carries only attempt 2's record —
        # which resumed from the last *uniform* step: the generation
        # tags keep attempt-1 re-deposits from completing a step
        # together with attempt-0 leftovers.
        last = run.history.recoveries[-1]
        assert last.attempt == 2
        assert last.resume_step > 0
        assert run.history.losses == ref.losses

    def test_double_fault_is_deterministic(self):
        plans = [
            FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),)),
            FaultPlan(seed=8, crashes=(RankCrash(rank=3, at=0.1),)),
        ]
        runs = [
            train_resilient(
                self._factory(plans), _setup, DATA, epochs=2, batch_size=16,
                resilience=ResilienceConfig(snapshot_every=2,
                                            max_restarts=3),
            )
            for _ in range(2)
        ]
        assert runs[0].history.losses == runs[1].history.losses
        assert ([r.resume_step for r in runs[0].history.recoveries]
                == [r.resume_step for r in runs[1].history.recoveries])


class TestElasticPolicy:
    def test_choose_shape_maximizes_p(self):
        policy = ElasticPolicy()
        assert (policy.choose_shape(8).q, policy.choose_shape(8).d) == (2, 2)
        assert (policy.choose_shape(7).q, policy.choose_shape(7).d) == (2, 1)
        assert (policy.choose_shape(4).q, policy.choose_shape(4).d) == (2, 1)
        assert (policy.choose_shape(3).q, policy.choose_shape(3).d) == (1, 1)
        # q=3, d=1 (p=9) beats q=2, d=2 (p=8) for 12 survivors
        assert (policy.choose_shape(12).q,
                policy.choose_shape(12).d) == (3, 1)

    def test_allowed_q_whitelist(self):
        policy = ElasticPolicy(allowed_q=(2,))
        shape = policy.choose_shape(12)
        assert (shape.q, shape.d) == (2, 2)
        with pytest.raises(SimulationError):
            ElasticPolicy(allowed_q=(4,)).choose_shape(3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ElasticPolicy(spares=-1)
        with pytest.raises(ConfigError):
            ElasticPolicy(min_world=0)
        with pytest.raises(ConfigError, match="quarantine_factor"):
            ElasticPolicy(quarantine_factor=float("nan"))


class TestCapacity:
    """The elastic capacity ledger, driven by hand: no engine, no run."""

    TOPO8 = Topology(meluxina(2), nranks=8)  # nodes 0 and 1, 4 ranks each

    def test_node_repair_returns_capacity_at_its_time(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=0.25),),
                         node_repairs=(NodeRepair(node=1, at=0.45),))
        cap = Capacity(ElasticPolicy(), 8, plan)
        cap.lose(self.TOPO8, (4, 5, 6, 7), {1}, world=8)
        assert cap.available(0.3) == 4
        assert cap.available(0.45) == 8
        assert cap.wake_at(4, 0.3) == 0.45     # the repair, still ahead
        assert cap.wake_at(4, 0.6) == 0.6      # already past: due now
        assert cap.wake_at(8, 0.3) is None     # nothing beats 8 ranks
        assert cap.unlock_time(8, 0.6) == 0.45
        assert cap.unlock_time(8, 0.4) == 0.4  # not unlocked by t

    def test_loss_at_a_reshaped_world_is_permanent(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=0.25),),
                         node_repairs=(NodeRepair(node=1, at=0.45),))
        cap = Capacity(ElasticPolicy(), 8, plan)
        cap.lose(self.TOPO8, (4, 5, 6, 7), {1}, world=4)
        assert cap.available(1.0) == 4
        assert cap.wake_at(4, 0.0) is None

    def test_spare_arrival_and_spare_pool(self):
        plan = FaultPlan(spare_arrivals=(SpareArrival(count=4, at=0.3),))
        cap = Capacity(ElasticPolicy(spares=1), 4, plan)
        assert cap.available(0.2) == 5
        assert cap.available(0.3) == 9
        assert cap.wake_at(4, 0.0) == 0.3
        assert cap.unlock_time(9, 0.5) == 0.3
        cap.lose(self.TOPO8, (2,), set(), world=4)  # no repair: for good
        assert cap.available(0.3) == 8

    def test_wake_at_is_the_first_event_admitting_a_larger_p(self):
        plan = FaultPlan(spare_arrivals=(SpareArrival(count=2, at=0.1),
                                         SpareArrival(count=2, at=0.2)))
        cap = Capacity(ElasticPolicy(), 4, plan)
        assert cap.available(0.1) == 6  # fits only [2, 2, 1] again
        assert cap.wake_at(4, 0.0) == 0.2
        assert cap.unlock_time(8, 0.5) == 0.2

    def test_quarantine_readmits_at_the_slowdown_window_end(self):
        plan = FaultPlan(slowdowns=(
            ComputeSlowdown(rank=5, factor=4.0, until=0.6),
        ))
        cap = Capacity(ElasticPolicy(), 8, plan)
        cap.quarantine(self.TOPO8, (5, 6))  # one node, counted once
        assert cap.quarantined == {1: (4, 0.6)}
        assert cap.available(0.5) == 4
        assert cap.available(0.6) == 8
        assert cap.wake_at(4, 0.5) == 0.6
        assert cap.unlock_time(8, 0.7) == 0.6

    def test_persistent_straggler_is_never_readmitted(self):
        plan = FaultPlan(slowdowns=(ComputeSlowdown(rank=5, factor=4.0),))
        cap = Capacity(ElasticPolicy(), 8, plan)
        cap.quarantine(self.TOPO8, (5,))
        assert cap.available(100.0) == 4
        assert cap.wake_at(4, 0.0) is None


class TestElasticReshape:
    """Shrinking the grid: redistribution and loss equivalence."""

    RES = ResilienceConfig(snapshot_every=2, max_restarts=3)

    def _trained_payloads(self):
        """One complete 4-rank snapshot step, straight from the trainer."""
        store = SnapshotStore()

        def prog(ctx):
            model, opt, pc = _setup(ctx, None)
            return train_classifier(model, DATA, opt, epochs=1,
                                    batch_size=16, pc=pc,
                                    resilience=self.RES,
                                    snapshot_store=store)

        Engine(nranks=4).run(prog)
        step = store.latest_step(4)
        assert step is not None
        return step, {r: store.load(step, r) for r in range(4)}

    @pytest.mark.parametrize("new_shape", [(1, 1), (2, 1), (2, 2)])
    def test_redistribution_roundtrip_is_lossless(self, new_shape):
        """(2,1) -> new shape -> (2,1) returns byte-identical state."""
        _, payloads = self._trained_payloads()
        nq, nd = new_shape
        there = redistribute_payloads(payloads, nq, nd)
        assert len(there) == nq * nq * nd
        back = redistribute_payloads(there, 2, 1)
        for rank, orig in payloads.items():
            rt = back[rank]
            for name, arr in orig["model"].items():
                assert np.array_equal(rt["model"][name], arr), (
                    f"model.{name} drifted through {new_shape}"
                )
            for pos, slots in orig["opt"]["slots"].items():
                for mv in ("m", "v"):
                    assert np.array_equal(
                        rt["opt"]["slots"][pos][mv], slots[mv]
                    ), f"opt slot {pos}.{mv} drifted through {new_shape}"
            assert rt["opt"]["t"] == orig["opt"]["t"]

    @pytest.mark.parametrize("scenario", [
        # (world, plan, old (q, d), expected new (q, d))
        ("rank-loss-4to1", 4,
         FaultPlan(seed=7, crashes=(RankCrash(rank=3, at=0.35),)),
         (2, 1), (1, 1)),
        ("node-loss-8to4", 8,
         FaultPlan(seed=5, node_crashes=(NodeCrash(node=1, at=0.25),)),
         (2, 2), (2, 1)),
        ("rank-loss-8to4", 8,
         FaultPlan(seed=6, crashes=(RankCrash(rank=5, at=0.25),)),
         (2, 2), (2, 1)),
    ], ids=lambda s: s[0] if isinstance(s, tuple) else s)
    def test_losses_match_fresh_run_at_new_shape(self, scenario):
        """The elastic run equals a fresh run at the new shape restored
        from the same redistributed snapshot — and so do its per-rank
        comm volumes: the resize boundary changes *which* grid runs, not
        what the post-reshape steps compute or communicate."""
        name, world, plan, old_qd, new_qd = scenario
        setup = _setup if world == 4 else _setup8

        def factory(attempt, w):
            return Engine(nranks=w if w is not None else world,
                          fault_plan=plan if attempt == 0 else None)

        run = train_resilient(
            factory, setup, DATA, epochs=2, batch_size=16,
            resilience=self.RES, elastic=ElasticPolicy(),
        )
        assert run.attempts == 1
        assert len(run.reshapes) == 1
        reshape = run.reshapes[0]
        assert reshape.old_world == world
        assert reshape.new_shape == new_qd
        assert run.final_world == new_qd[0] * new_qd[0] * new_qd[1]
        assert reshape.resume_step > 0  # a real redistribution happened

        # Replay the redistribution by hand: attempt 0 under the same
        # plan, re-shard its last complete snapshot, then run *fresh* at
        # the new shape from that step.
        store = SnapshotStore()

        def prog(shape):
            def fn(ctx):
                model, opt, pc = setup(ctx, shape)
                return train_classifier(model, DATA, opt, epochs=2,
                                        batch_size=16, pc=pc,
                                        resilience=self.RES,
                                        snapshot_store=store)

            return fn

        engine0 = Engine(nranks=world, fault_plan=plan)
        with pytest.raises(RankFailureError):
            engine0.run(prog(None))
        snap_step = store.latest_step(world)
        assert snap_step == reshape.resume_step
        old = {r: store.load(snap_step, r) for r in range(world)}
        store.begin_generation()
        store.reset_for_world(
            snap_step, redistribute_payloads(old, *new_qd))

        from repro.grid.shapes import TesseractShape

        fresh_engine = Engine(nranks=run.final_world)
        fresh = fresh_engine.run(prog(TesseractShape(q=new_qd[0],
                                                     d=new_qd[1])))
        assert run.history.losses == fresh[0].losses, (
            f"{name}: elastic losses diverge from the fresh run"
        )
        # Comm-volume invariance across the resize boundary: the final
        # attempt's accounted bytes equal the fresh run's, per rank.
        for r in range(run.final_world):
            assert run.engine.trace.comm_volume(rank=r) == pytest.approx(
                fresh_engine.trace.comm_volume(rank=r)
            ), f"{name}: rank {r} comm volume drifted across the resize"

    def test_spares_enable_same_shape_replacement(self):
        ref = _reference()
        plan = FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),))

        def factory(attempt, w):
            return Engine(nranks=w if w is not None else 4,
                          fault_plan=plan if attempt == 0 else None)

        run = train_resilient(
            factory, _setup, DATA, epochs=2, batch_size=16,
            resilience=self.RES, elastic=ElasticPolicy(spares=2),
        )
        assert run.reshapes == []  # the spare pool absorbed the loss
        assert run.final_world == 4
        assert run.history.losses == ref.losses

    def test_below_min_world_reraises(self):
        plan = FaultPlan(seed=7, crashes=(RankCrash(rank=1, at=0.35),))

        def factory(attempt, w):
            return Engine(nranks=w if w is not None else 4,
                          fault_plan=plan if attempt == 0 else None)

        with pytest.raises(RankFailureError):
            train_resilient(
                factory, _setup, DATA, epochs=2, batch_size=16,
                resilience=self.RES,
                elastic=ElasticPolicy(min_world=4),
            )
