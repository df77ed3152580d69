"""End-to-end tests for the ``repro plan`` subcommand.

The golden test pins the full JSON payload of the tiny smoke plan —
search ranking, predictions, and the simulator validation — byte for
byte.  The payload is backend-independent (the symbolic engines produce
identical virtual times under event and threaded scheduling), so the
same golden gates the default-backend tier-1 run and the threaded-oracle
CI step.  Regenerate with::

    REPRO_ENGINE_BACKEND=event PYTHONPATH=src python -m repro plan \
        --model tiny --world 8 --global-batch 32 --validate 4 \
        --json tests/plan/golden_plan_tiny.json
"""

import json
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden_plan_tiny.json"
SMOKE_ARGS = ["plan", "--model", "tiny", "--world", "8",
              "--global-batch", "32"]


class TestPlanCommand:
    def test_prints_table_and_recommendation(self, capsys):
        assert main(SMOKE_ARGS) == 0
        out = capsys.readouterr().out
        assert "plan tiny @ 8 GPUs" in out
        assert "recommendation:" in out

    def test_unknown_model_fails(self, capsys):
        assert main(["plan", "--model", "13T"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_validation_reports_spearman(self, capsys):
        assert main(SMOKE_ARGS + ["--validate", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("validate ") == 3
        assert "spearman(pred, sim)" in out

    def test_json_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(SMOKE_ARGS + ["--json", str(a)]) == 0
        assert main(SMOKE_ARGS + ["--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_impossible_budget_reports_failure(self, capsys):
        assert main(SMOKE_ARGS + ["--budget-fraction", "1e-9"]) == 1
        assert "no feasible config" in capsys.readouterr().out


class TestGolden:
    def test_smoke_plan_matches_golden(self, capsys, tmp_path):
        out_json = tmp_path / "plan-smoke.json"
        assert main(SMOKE_ARGS + ["--validate", "4",
                                  "--json", str(out_json)]) == 0
        capsys.readouterr()
        got = json.loads(out_json.read_text())
        want = json.loads(GOLDEN.read_text())
        assert got == want, (
            "repro plan tiny output drifted from the golden; if the cost "
            "or memory model changed intentionally, regenerate it (see "
            "module docstring)"
        )

    def test_golden_has_validation_block(self):
        payload = json.loads(GOLDEN.read_text())
        validation = payload["tiny"]["validation"]
        assert len(validation["rows"]) == 4
        assert validation["spearman"] >= 0.8
