"""The elastic chaos campaign (``repro chaos --elastic``).

Each scenario runs a real (non-symbolic) short training job under
permanent hardware loss — or, for the scale-up scenarios, under node
repair / spare arrival / straggler quarantine — and checks the recovery
ledger: restart count, grid resizes (shrinks and grows), the final world
size, and that the deterministic ``time_to_recover_s`` accounts exactly
the virtual seconds burned in *crashed* attempts (voluntary grow and
quarantine segments lose no work and cost no recovery time).
"""

import pytest

import repro.bench.chaos as chaos
import repro.pblas.verify as verify
from repro.bench.chaos import (
    ELASTIC_SCENARIOS,
    ChaosScenario,
    render_chaos,
    run_scenario,
)
from repro.errors import ConfigError
from repro.sim.engine import Engine

#: scenario name -> (attempts, reshapes, grows, quarantines, final_world)
EXPECTED = {
    # rank 3 gone, no spares: 3 survivors only fit [1, 1, 1]
    "elastic-shrink-rank": (1, 1, 0, 0, 1),
    # node 1 takes ranks 4-7: the 8-rank grid re-factorizes to q=2, d=1
    "elastic-node-loss": (1, 1, 0, 0, 4),
    # the spare pool covers the loss: same shape, no reshape
    "elastic-replace": (1, 0, 0, 0, 4),
    # crash during recovery: two restarts, then shrink past the spare
    "elastic-double-fault": (2, 1, 0, 0, 1),
    # node 1 crashes then is repaired: shrink to 4, grow back to 8
    "elastic-grow-back": (1, 2, 1, 0, 8),
    # four spares arrive mid-run: a pure grow from 4 to 8, no crash
    "elastic-spare-arrival": (0, 1, 1, 0, 8),
    # rank 5's node drags until t=0.6: quarantined, then readmitted
    "elastic-quarantine": (0, 2, 1, 1, 8),
}


@pytest.fixture(scope="module")
def results():
    return {sc.name: run_scenario(sc) for sc in ELASTIC_SCENARIOS}


class TestElasticScenarios:
    def test_campaign_covers_the_expected_matrix(self):
        assert {sc.name for sc in ELASTIC_SCENARIOS} == set(EXPECTED)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_recovery_ledger(self, results, name):
        attempts, reshapes, grows, quarantines, final_world = EXPECTED[name]
        r = results[name]
        assert r.attempts == attempts
        assert r.reshapes == reshapes
        assert r.grows == grows
        assert r.quarantines == quarantines
        assert r.final_world == final_world
        if attempts:
            # Crash scenarios resume from a real snapshot, never from
            # scratch — the crash times sit past the first deposit.
            assert r.resume_step > 0
        else:
            # Voluntary reshapes are snapshot-clean: no RecoveryRecord,
            # no lost work.
            assert r.lost_steps == 0
        assert r.steps == 8  # 2 epochs x 4 steps, regardless of faults

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_time_to_recover_accounts_crashed_attempts(self, results, name):
        r = results[name]
        # Virtual time spans every segment, crash-ended or voluntary...
        assert r.virtual_time == pytest.approx(sum(r.run.attempt_times))
        # ... but recovery time counts only the crash-ended ones: a
        # grow or quarantine interrupt abandons no work.
        crashed = sum(
            t for t, kind in zip(r.run.attempt_times, r.run.attempt_kinds)
            if kind == "crash"
        )
        assert r.time_to_recover_s == pytest.approx(crashed)
        if r.attempts:
            assert r.time_to_recover_s > 0.0
        else:
            assert r.time_to_recover_s == 0.0
        assert r.time_to_recover_s < r.virtual_time

    def test_reshape_reasons(self, results):
        """The ledger records *why* each reshape happened, in order."""
        def reasons(name):
            return [rec.reason for rec in results[name].run.reshapes]

        assert reasons("elastic-grow-back") == ["shrink", "grow"]
        assert reasons("elastic-spare-arrival") == ["grow"]
        assert reasons("elastic-quarantine") == ["quarantine", "grow"]
        assert reasons("elastic-shrink-rank") == ["shrink"]

    def test_reclaim_delay_accounted_on_grows(self, results):
        """``time_to_reclaim_s`` measures capacity-available -> grown."""
        for name in ("elastic-grow-back", "elastic-spare-arrival",
                     "elastic-quarantine"):
            assert results[name].time_to_reclaim_s > 0.0, name
        assert results["elastic-shrink-rank"].time_to_reclaim_s == 0.0

    def test_same_loss_when_shape_survives(self, results):
        """Live replacement keeps the [2, 2, 1] grid, so after restoring
        the snapshot the trajectory matches the healthy baseline
        bit-for-bit."""
        healthy = run_scenario(ChaosScenario(name="healthy-ref"))
        assert results["elastic-replace"].final_loss == healthy.final_loss

    def test_grow_back_matches_healthy_loss(self, results):
        """Shrink + grow-back is byte-lossless both ways, so the final
        loss matches the never-faulted 8-rank run's (float tolerance:
        the shrunken segment's metric reduction rounds differently)."""
        healthy = run_scenario(
            ChaosScenario(name="healthy-8", d=2)
        )
        assert results["elastic-grow-back"].final_loss == pytest.approx(
            healthy.final_loss)
        assert results["elastic-quarantine"].final_loss == pytest.approx(
            healthy.final_loss)

    def test_elastic_runs_are_deterministic(self):
        for sc in (ELASTIC_SCENARIOS[0], ELASTIC_SCENARIOS[-1]):
            a, b = run_scenario(sc), run_scenario(sc)
            assert a.final_loss == b.final_loss
            assert a.resume_step == b.resume_step
            assert a.time_to_recover_s == b.time_to_recover_s
            assert a.time_to_reclaim_s == b.time_to_reclaim_s

    def test_render_includes_elastic_columns(self, results):
        table = render_chaos(list(results.values()))
        assert "reshapes" in table
        assert "grows" in table
        assert "reclaim" in table
        assert "world" in table
        for name in EXPECTED:
            assert name in table

    def test_node_crash_requires_crash_at(self):
        sc = ChaosScenario(name="bad", node_crash=1)
        with pytest.raises(ConfigError, match="crash_at"):
            sc.fault_plan()

    def test_node_repair_requires_node_crash(self):
        sc = ChaosScenario(name="bad", node_repair_at=0.5)
        with pytest.raises(ConfigError, match="node_crash"):
            sc.fault_plan()


#: (scenario, (attempts, reshapes, grows)): healthy, rank crash, elastic
#: node loss and node loss + repair on the 8-rank [2, 2, 2] grid, one
#: epoch (0.33 virtual s healthy); the crashes at 0.2 land past the step-2
#: snapshot, the node repaired at 0.2 grows the grid back
INERT_LOG_SCENARIOS = (
    (ChaosScenario(name="healthy", d=2, epochs=1), (0, 0, 0)),
    (ChaosScenario(name="rank-crash", d=2, epochs=1,
                   crash_rank=1, crash_at=0.2), (1, 0, 0)),
    (ChaosScenario(name="node-loss", d=2, epochs=1, elastic=True,
                   node_crash=1, crash_at=0.2), (1, 1, 0)),
    (ChaosScenario(name="node-loss-repair", d=2, epochs=1, elastic=True,
                   node_crash=1, crash_at=0.1, node_repair_at=0.2),
     (1, 2, 1)),
)

#: ChaosResult fields the event log must not move
LEDGER_FIELDS = ("steps", "attempts", "reshapes", "grows", "final_world",
                 "virtual_time", "time_to_recover_s", "time_to_reclaim_s")


def _spy_engines(monkeypatch, module, **override) -> list:
    """Route ``module``'s ``Engine(...)`` calls through ``override``;
    returns the engines built."""
    built = []

    def engine(*args, **kwargs):
        built.append(Engine(*args, **{**kwargs, **override}))
        return built[-1]

    monkeypatch.setattr(module, "Engine", engine)
    return built


class TestEventLogIsInert:
    """Chaos and verify engines keep no event log.  ``Trace.record`` only
    appends, so recording one moves no fault, retry, crash, loss or
    virtual time."""

    @pytest.mark.parametrize(
        "scenario, ledger", INERT_LOG_SCENARIOS,
        ids=[sc.name for sc, _ in INERT_LOG_SCENARIOS],
    )
    def test_chaos_ledger_does_not_depend_on_the_log(self, monkeypatch,
                                                     scenario, ledger):
        plain = run_scenario(scenario)
        assert (plain.attempts, plain.reshapes, plain.grows) == ledger
        assert plain.run.engine.trace.enabled is False
        assert len(plain.run.engine.trace) == 0

        built = _spy_engines(monkeypatch, chaos, trace=True)
        traced = run_scenario(scenario)
        assert all(len(engine.trace) > 0 for engine in built)
        assert traced.final_loss.hex() == plain.final_loss.hex()
        for name in LEDGER_FIELDS:
            assert getattr(traced, name) == getattr(plain, name), name

    def test_verify_matmul_does_not_depend_on_the_log(self, monkeypatch):
        built = _spy_engines(monkeypatch, verify)
        plain = verify.verify_matmul("tesseract", q=2, d=2)
        (engine,) = built
        assert engine.trace.enabled is False
        assert len(engine.trace) == 0

        built = _spy_engines(monkeypatch, verify, trace=True)
        traced = verify.verify_matmul("tesseract", q=2, d=2)
        (engine,) = built
        assert len(engine.trace) > 0
        assert traced.max_abs_error == plain.max_abs_error
        assert traced.simulated_seconds == plain.simulated_seconds
