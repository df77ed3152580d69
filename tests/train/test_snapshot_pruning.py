"""Regression: ``SnapshotStore.keep`` pruning x ``reset_for_world`` x
restart generations.

The elastic grow/shrink path stacks three store mechanisms that each
mutate the step table: bounded retention (``keep``), the world-resize
reseed (``reset_for_world``), and restart-generation tags.  These tests
pin their interactions — in particular that a reseeded step is a
first-class complete step (prunable, restorable, generation-tagged) and
that mixed-generation steps are neither restorable nor counted as
complete by the pruner.
"""

import pytest

from repro.errors import ConfigError
from repro.train import SnapshotStore


def _fill(store, steps, ranks, tag="x"):
    for step in steps:
        for rank in ranks:
            store.save(step, rank, {tag: (step, rank)})


class TestKeepPruning:
    def test_keep_bounds_complete_steps(self):
        store = SnapshotStore(keep=2)
        _fill(store, (2, 4, 6, 8), range(4))
        assert store.latest_step(4) == 8
        for stale in (2, 4):
            with pytest.raises(KeyError):
                store.load(stale, 0)
        assert store.load(6, 0) == {"x": (6, 0)}

    def test_mixed_generation_step_is_not_counted_complete(self):
        """A step whose deposits span generations can never be restored,
        so the pruner must not treat it as one of the ``keep`` newest
        complete steps (that would silently shrink the usable window)."""
        store = SnapshotStore(keep=2)
        store.save(2, 0, {"s": 2})
        store.begin_generation()
        store.save(2, 1, {"s": 2})  # step 2 is now mixed: unrestorable
        _fill(store, (4, 6), (0, 1))
        assert store.latest_step(2) == 6
        # Both *complete* steps survive; the mixed step did not consume
        # a retention slot.
        assert store.load(4, 0) == {"x": (4, 0)}

    def test_keep_validation(self):
        with pytest.raises(ConfigError):
            SnapshotStore(keep=0)


class TestResetForWorldWithPruning:
    def test_reseeded_step_is_restorable_and_prunable(self):
        """After an elastic resize the seeded step behaves like any
        deposited step: restorable at the new world, pruned once enough
        newer complete steps land."""
        store = SnapshotStore(keep=2)
        _fill(store, (2, 4, 6), range(4))  # old world: 4 ranks
        store.reset_for_world(6, {0: {"w": 1}, 1: {"w": 1}})  # new world: 2
        assert store.latest_step(2) == 6
        assert store.latest_step(4) is None  # old world's view is gone
        _fill(store, (8,), (0, 1))
        assert store.latest_step(2) == 8
        assert store.load(6, 0) == {"w": 1}  # within keep=2: still there
        _fill(store, (10,), (0, 1))
        with pytest.raises(KeyError):
            store.load(6, 0)  # 8 and 10 fill the window; 6 is pruned
        assert store.latest_step(2) == 10

    def test_reseed_carries_the_current_generation(self):
        """The seed deposits under the *current* generation, so the
        relaunched world restores it without a generation bump — and a
        later restart's re-deposits properly mix against it."""
        store = SnapshotStore()
        store.begin_generation()
        store.reset_for_world(4, {0: {"w": "seed"}})
        assert store.latest_step(1) == 4
        # A crash in the relaunched world: new generation, partial
        # re-deposit at the same step -> the step becomes unrestorable
        # until the new wave completes it.
        store.begin_generation()
        store.save(4, 0, {"w": "replay"})
        assert store.latest_step(1) == 4  # one rank, one (new) generation
        assert store.load(4, 0) == {"w": "replay"}

    def test_shrink_then_grow_reseed_sequence(self):
        """The full elastic sequence: deposits at world 8, shrink-seed
        at world 4, deposits, grow-seed back at world 8, deposits —
        ``latest_step`` tracks each world's single source of truth."""
        store = SnapshotStore(keep=4)
        _fill(store, (2,), range(8))
        store.begin_generation()
        store.reset_for_world(2, {r: {"w": 4} for r in range(4)})
        _fill(store, (4, 6), range(4))
        assert store.latest_step(4) == 6
        assert store.latest_step(8) is None
        store.begin_generation()
        store.reset_for_world(6, {r: {"w": 8} for r in range(8)})
        assert store.latest_step(8) == 6
        assert store.latest_step(4) is None
        _fill(store, (8,), range(8))
        assert store.latest_step(8) == 8
        assert store.load(6, 7) == {"w": 8}

    def test_empty_reseed_clears_and_recovers(self):
        store = SnapshotStore(keep=2)
        _fill(store, (2, 4), range(2))
        store.reset_for_world(0, {})
        assert store.latest_step(1) is None
        assert store.latest_step(2) is None
        _fill(store, (2,), range(2))  # scratch restart re-deposits
        assert store.latest_step(2) == 2
