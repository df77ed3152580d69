"""The nightly metrics diff gate (``benchmarks/diff_nightly.py``)."""

import json

import pytest

from benchmarks.diff_nightly import (
    diff_metrics,
    heuristic_direction,
    load_metrics,
    main,
)


def _m(value, direction="higher"):
    return {"value": value, "direction": direction}


class TestDiffMetrics:
    def test_no_change_no_regressions(self):
        prev = {"a": _m(10.0), "b": _m(2.0, "lower")}
        regressions, notes = diff_metrics(prev, dict(prev), threshold=0.2)
        assert regressions == [] and notes == []

    def test_higher_is_better_drop_regresses(self):
        prev, cur = {"goodput": _m(10.0)}, {"goodput": _m(7.0)}
        regressions, _ = diff_metrics(prev, cur, threshold=0.2)
        assert len(regressions) == 1
        assert "goodput" in regressions[0]

    def test_lower_is_better_rise_regresses(self):
        prev = {"time": _m(1.0, "lower")}
        cur = {"time": _m(1.5, "lower")}
        regressions, _ = diff_metrics(prev, cur, threshold=0.2)
        assert len(regressions) == 1

    def test_improvement_is_a_note_not_a_regression(self):
        prev = {"time": _m(1.0, "lower")}
        cur = {"time": _m(0.5, "lower")}
        regressions, notes = diff_metrics(prev, cur, threshold=0.2)
        assert regressions == []
        assert len(notes) == 1

    def test_within_threshold_tolerated(self):
        prev, cur = {"goodput": _m(10.0)}, {"goodput": _m(8.5)}
        regressions, notes = diff_metrics(prev, cur, threshold=0.2)
        assert regressions == []
        assert len(notes) == 1  # reported, just not fatal

    def test_new_and_missing_metrics_are_notes_only(self):
        prev = {"gone": _m(1.0)}
        cur = {"fresh": _m(2.0)}
        regressions, notes = diff_metrics(prev, cur, threshold=0.2)
        assert regressions == []
        assert any("new metric" in n for n in notes)
        assert any("disappeared" in n for n in notes)

    def test_zero_baseline_growth_against_direction(self):
        prev = {"lost": _m(0.0, "lower")}
        cur = {"lost": _m(3.0, "lower")}
        regressions, _ = diff_metrics(prev, cur, threshold=0.2)
        assert len(regressions) == 1

    def test_neutral_regresses_on_rise(self):
        prev = {"mystery": _m(10.0, "neutral")}
        cur = {"mystery": _m(15.0, "neutral")}
        regressions, _ = diff_metrics(prev, cur, threshold=0.2)
        assert len(regressions) == 1
        assert "want steady" in regressions[0]

    def test_neutral_regresses_on_drop_too(self):
        prev = {"mystery": _m(10.0, "neutral")}
        cur = {"mystery": _m(5.0, "neutral")}
        regressions, _ = diff_metrics(prev, cur, threshold=0.2)
        assert len(regressions) == 1

    def test_neutral_tolerates_small_moves(self):
        prev = {"mystery": _m(10.0, "neutral")}
        cur = {"mystery": _m(10.5, "neutral")}
        regressions, notes = diff_metrics(prev, cur, threshold=0.2)
        assert regressions == []
        assert len(notes) == 1


class TestMain:
    def _write(self, path, metrics):
        path.write_text(json.dumps({"metrics": metrics}))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        prev = self._write(tmp_path / "prev.json", {"a": _m(1.0)})
        cur = self._write(tmp_path / "cur.json", {"a": _m(1.1)})
        assert main([prev, cur]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        prev = self._write(tmp_path / "prev.json", {"a": _m(1.0)})
        cur = self._write(tmp_path / "cur.json", {"a": _m(0.5)})
        assert main([prev, cur, "--threshold", "0.2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_unreadable_input(self, tmp_path, capsys):
        cur = self._write(tmp_path / "cur.json", {"a": _m(1.0)})
        assert main([str(tmp_path / "absent.json"), cur]) == 2

    def test_exit_two_on_malformed_payload(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not-metrics": {}}))
        cur = self._write(tmp_path / "cur.json", {"a": _m(1.0)})
        assert main([str(bad), cur]) == 2

    def test_load_metrics_round_trips(self, tmp_path):
        path = self._write(tmp_path / "m.json", {"a": _m(4.0)})
        assert load_metrics(path) == {"a": _m(4.0)}


class TestHeuristicDirection:
    @pytest.mark.parametrize("name", [
        "goodput_steps_per_s", "goodput_tokens_per_s", "throughput",
        "speedup_cont_over_static.rate256",
    ])
    def test_higher_hints_win(self, name):
        assert heuristic_direction(name) == "higher"

    @pytest.mark.parametrize("name", [
        "virtual_time_s", "latency_p99_s", "ttft_p99_s", "tpot_p50_s",
        "lost_steps", "overhead_ratio", "makespan_s", "bytes_on_wire",
        "max_queue_depth", "preemptions",
    ])
    def test_lower_hints(self, name):
        assert heuristic_direction(name) == "lower"

    @pytest.mark.parametrize("name,want", [
        # the event-backend bench exports (bench_engine_overhead.py)
        ("event_speedup", "higher"),
        ("event_us_per_coll", "lower"),
        ("event_handoff_iterations", "lower"),
    ])
    def test_event_backend_metrics_classified(self, name, want):
        assert heuristic_direction(name) == want

    def test_unknown_is_neutral_not_higher(self):
        # Regression: unknown names used to default "higher is better",
        # so a new counter could silently grow without tripping the gate.
        assert heuristic_direction("accuracy") == "neutral"

    @pytest.mark.parametrize("name", [
        # the chaos --elastic and autoscale exports: deterministic event
        # counts and world sizes where neither direction is "better"
        "recoveries", "reshapes", "final_world", "restarts",
        "replicas_peak", "replicas_final", "scale_events",
    ])
    def test_elastic_counters_are_known_neutral(self, name):
        assert heuristic_direction(name) == "neutral"

    def test_neutral_hints_beat_suffix_hints(self):
        # "scale_events_per_s"-style names must not drift to "higher";
        # the neutral hints are checked first.
        assert heuristic_direction("elastic.scale_events") == "neutral"
        assert heuristic_direction("world_size") == "neutral"

    def test_time_to_recover_is_lower_is_better(self):
        assert heuristic_direction("time_to_recover_s") == "lower"


class TestPytestBenchmarkFormat:
    def _write(self, path, benchmarks):
        path.write_text(json.dumps({"benchmarks": benchmarks}))
        return str(path)

    def test_extra_info_becomes_metrics(self, tmp_path):
        path = self._write(tmp_path / "b.json", [{
            "name": "test_serving_slo",
            "stats": {"mean": 0.5, "stddev": 0.01},  # wall clock: ignored
            "extra_info": {
                "continuous.rate256.goodput_tokens_per_s": 84.7,
                "continuous.rate256.latency_p99_s": 6.59,
                "note": "not a number",  # non-numeric: ignored
                "flag": True,  # bools are not metrics
            },
        }])
        metrics = load_metrics(path)
        assert metrics == {
            "test_serving_slo.continuous.rate256.goodput_tokens_per_s":
                {"value": 84.7, "direction": "higher"},
            "test_serving_slo.continuous.rate256.latency_p99_s":
                {"value": 6.59, "direction": "lower"},
        }

    def test_diff_across_pytest_benchmark_files(self, tmp_path, capsys):
        prev = self._write(tmp_path / "prev.json", [{
            "name": "t", "extra_info": {"goodput_tokens_per_s": 80.0},
        }])
        cur = self._write(tmp_path / "cur.json", [{
            "name": "t", "extra_info": {"goodput_tokens_per_s": 40.0},
        }])
        assert main([prev, cur, "--threshold", "0.2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_empty_benchmarks_list_is_valid(self, tmp_path):
        path = self._write(tmp_path / "b.json", [])
        assert load_metrics(path) == {}

    def test_missing_extra_info_tolerated(self, tmp_path):
        path = self._write(tmp_path / "b.json", [{"name": "t"}])
        assert load_metrics(path) == {}

    def test_unknown_extra_info_warns_and_goes_neutral(self, tmp_path,
                                                       capsys):
        path = self._write(tmp_path / "b.json", [{
            "name": "t", "extra_info": {"mystery_counter": 7.0},
        }])
        metrics = load_metrics(path)
        assert metrics["t.mystery_counter"]["direction"] == "neutral"
        out = capsys.readouterr().out
        assert "warning" in out and "mystery_counter" in out

    def test_known_neutral_extra_info_does_not_warn(self, tmp_path, capsys):
        # Elastic/autoscale counters are neutral *by design* — they gate
        # on drift but must not spam the unknown-name warning.
        path = self._write(tmp_path / "b.json", [{
            "name": "t",
            "extra_info": {"recoveries": 1, "reshapes": 1, "final_world": 4,
                           "replicas_peak": 3, "scale_events": 2},
        }])
        metrics = load_metrics(path)
        assert all(m["direction"] == "neutral" for m in metrics.values())
        assert "warning" not in capsys.readouterr().out

    def test_neutral_metric_gates_both_directions_end_to_end(
            self, tmp_path, capsys):
        prev = self._write(tmp_path / "prev.json", [{
            "name": "t", "extra_info": {"mystery_counter": 10.0},
        }])
        cur = self._write(tmp_path / "cur.json", [{
            "name": "t", "extra_info": {"mystery_counter": 5.0},
        }])
        assert main([prev, cur, "--threshold", "0.2"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
