"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_matmul_defaults(self):
        args = build_parser().parse_args(["matmul"])
        assert args.q == 2 and args.d == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.model == "350M" and args.world == 32
        assert args.schedule == "1f1b" and args.validate == 0

    def test_plan_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--schedule", "interleaved"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "meluxina" in out
        assert "Table 1" in out

    def test_matmul_verifies(self, capsys):
        assert main(["matmul", "--q", "2", "--d", "1", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "max |error|" in out

    def test_transfers_shows_paper_ratios(self, capsys):
        assert main(["transfers"]) == 0
        out = capsys.readouterr().out
        assert "31.50" in out
        assert "3.75" in out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "curves identical: True" in out

    def test_tables_single_small(self, capsys):
        # A fast configuration: tiny stack, short sequences.
        assert main(["tables", "--table", "1", "--seq-len", "32",
                     "--layers", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "tesseract" in out

    def test_tables_trace_only_for_an_export(self, capsys, tmp_path,
                                             monkeypatch):
        import repro.bench.runner as runner

        traced = []
        engine_for_row = runner.engine_for_row

        def spying(*args, **kwargs):
            engine = engine_for_row(*args, **kwargs)
            traced.append(engine.trace.enabled)
            return engine

        monkeypatch.setattr(runner, "engine_for_row", spying)
        small = ["tables", "--table", "1", "--seq-len", "32", "--layers", "1"]
        assert main(small) == 0
        plain = capsys.readouterr().out
        assert traced and not any(traced)
        traced.clear()
        out_json = tmp_path / "t1.json"
        assert main([*small, "--json", str(out_json)]) == 0
        exported = capsys.readouterr().out
        assert traced and all(traced)
        # the printed tables are the same; the export adds one line
        assert exported == plain + f"wrote {out_json}\n"

    def test_chaos_single_scenario(self, capsys, tmp_path):
        out_json = tmp_path / "chaos.json"
        assert main(["chaos", "--scenario", "crash-early-tesseract",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "crash-early-tesseract" in out
        assert "restarts" in out

        import json

        payload = json.loads(out_json.read_text())
        rec = payload["crash-early-tesseract"]
        assert rec["restarts"] == 1
        assert rec["goodput_steps_per_s"] > 0

    def test_chaos_elastic_scenario(self, capsys, tmp_path):
        out_json = tmp_path / "chaos.json"
        assert main(["chaos", "--elastic", "--scenario",
                     "elastic-shrink-rank", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "elastic-shrink-rank" in out
        assert "reshapes" in out and "world" in out

        import json

        rec = json.loads(out_json.read_text())["elastic-shrink-rank"]
        assert rec["recoveries"] == 1
        assert rec["reshapes"] == 1
        assert rec["final_world"] == 1  # 3 survivors only fit [1, 1, 1]
        assert rec["time_to_recover_s"] > 0

    def test_chaos_rejects_unknown_scenario(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err.lower()

    def test_chaos_elastic_names_are_gated_behind_the_flag(self, capsys):
        # Elastic scenarios are a separate campaign: without --elastic
        # their names are unknown (and vice versa for the default set).
        assert main(["chaos", "--scenario", "elastic-shrink-rank"]) == 2
        assert "unknown scenario" in capsys.readouterr().err.lower()

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.mode == "serial"
        assert args.policy == "both"
        assert args.slots == 8

    def test_serve_both_policies(self, capsys, tmp_path):
        out_json = tmp_path / "serve.json"
        assert main(["serve", "--requests", "8", "--seed", "0",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "continuous" in out
        assert "static" in out
        assert "goodput" in out
        assert "continuous-over-static" in out

        import json

        payload = json.loads(out_json.read_text())
        assert set(payload) == {"continuous", "static"}
        for rep in payload.values():
            assert rep["completed"] == rep["num_requests"] == 8
            assert rep["goodput_tokens_per_s"] > 0

    def test_serve_seeded_json_is_stable(self, tmp_path):
        # The same seed must produce byte-identical summaries.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["serve", "--requests", "6", "--seed", "3",
                     "--policy", "continuous", "--json", str(a)]) == 0
        assert main(["serve", "--requests", "6", "--seed", "3",
                     "--policy", "continuous", "--json", str(b)]) == 0
        assert a.read_text() == b.read_text()

        import json

        c = tmp_path / "c.json"
        assert main(["serve", "--requests", "6", "--seed", "4",
                     "--policy", "continuous", "--json", str(c)]) == 0
        assert (json.loads(a.read_text())["continuous"]["makespan_s"]
                != json.loads(c.read_text())["continuous"]["makespan_s"])

    def test_serve_parallel_mode(self, capsys):
        assert main(["serve", "--mode", "optimus", "--q", "2",
                     "--requests", "4", "--policy", "continuous"]) == 0
        assert "goodput" in capsys.readouterr().out

    def test_serve_one_rank_grid(self, capsys):
        # q = d = 1 is a valid [1, 1, 1] grid; it once failed to build
        assert main(["serve", "--mode", "tesseract", "--q", "1", "--d", "1",
                     "--requests", "2", "--layers", "1", "--hidden", "8",
                     "--policy", "continuous"]) == 0
        assert "2/2 done" in capsys.readouterr().out

    def test_serve_paged_flags(self, capsys, tmp_path):
        out_json = tmp_path / "paged.json"
        assert main(["serve", "--requests", "3", "--layers", "1",
                     "--hidden", "8", "--policy", "continuous",
                     "--kv-block", "16", "--chunk", "8", "--spec-k", "2",
                     "--accept-rate", "0.5", "--prefix-pool", "2",
                     "--priorities", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "paged: prefix hit" in out and "tok/step" in out
        assert "slo" in out

        import json

        rep = json.loads(out_json.read_text())["continuous"]
        assert rep["completed"] == 3
        assert {"paged", "spec"} <= set(rep)


class TestConfigErrors:
    """A rejected configuration exits 2 with one stderr line naming the
    field; the rule's owner, not the CLI, writes the message."""

    @staticmethod
    def _rejected(capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert len(err.strip().splitlines()) == 1, err
        return err

    def test_serve_depth_beyond_q(self, capsys):
        err = self._rejected(capsys, ["serve", "--mode", "tesseract",
                                      "--q", "2", "--d", "3"])
        assert "d=3" in err and "q=2" in err

    def test_serve_paged_cache_needs_continuous_policy(self, capsys):
        err = self._rejected(capsys, ["serve", "--kv-block", "16",
                                      "--policy", "static"])
        assert "kv_block_tokens" in err and "continuous policy" in err

    @pytest.mark.parametrize("flag,field", [
        ("--chunk", "prefill_chunk_tokens"), ("--spec-k", "spec")])
    def test_serve_chunk_and_spec_need_the_paged_cache(self, capsys, flag,
                                                       field):
        err = self._rejected(capsys, ["serve", flag, "4"])
        assert field in err and "requires the paged cache" in err

    def test_tables_rejects_zero_sizes(self, capsys):
        # these once ran the default sizes instead
        err = self._rejected(capsys, ["tables", "--seq-len", "0",
                                      "--layers", "0"])
        assert "seq_len" in err

    def test_tables_rejects_zero_layers(self, capsys):
        err = self._rejected(capsys, ["tables", "--layers", "0"])
        assert "num_layers" in err

    def test_matmul_rejects_zero_q(self, capsys):
        err = self._rejected(capsys, ["matmul", "--q", "0"])
        assert "q must be >= 1" in err

    def test_fig7_rejects_zero_epochs(self, capsys):
        err = self._rejected(capsys, ["fig7", "--epochs", "0"])
        assert "epochs" in err

    @pytest.mark.parametrize("argv,field", [
        (["--seq-len", "0"], "seq_len"),
        (["--seq-len", "-5"], "seq_len"),
        (["--world", "0"], "world"),
        (["--global-batch", "0"], "global_batch"),
        (["--max-microbatches", "0"], "max_microbatches"),
        (["--budget-fraction", "0"], "budget_fraction"),
        (["--top", "-1"], "top"),
    ])
    def test_plan_rejections(self, capsys, argv, field):
        err = self._rejected(capsys, ["plan", "--model", "tiny", *argv])
        assert field in err

    def test_plan_negative_validate_prints_nothing(self, capsys):
        # the ranking and the recommendation were once printed first
        assert main(["plan", "--model", "tiny", "--world", "8",
                     "--global-batch", "32", "--validate", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
        assert "validate (k) must be >= 0, got -1" in err
