"""Auto-parallel planner sweep: the planner's pick vs fixed-scheme bests.

The paper's evaluation hand-picks configurations per model size; the
planner automates the choice.  This bench sweeps the GPT-style model
ladder on a fixed 32-GPU cluster and compares the planner's
recommendation against the best configuration *restricted to each single
tensor scheme* (serial / Megatron 1-D / Optimus 2-D / Tesseract 2.5-D).

Asserted claims:

* the planner's pick is never worse than any fixed-scheme best (it
  searches a superset), and strictly beats **every** fixed scheme on at
  least one sweep point — no single scheme dominates the ladder;
* the recommendation is deterministic: a second search returns the
  identical ranking;
* on the 350M point, the analytic predictions rank a diverse top-5 the
  same way the symbolic simulator does (Spearman 1.0), and each validated
  candidate's predicted step time and peak memory equal its simulated
  ones.
"""

from __future__ import annotations

import pytest

from repro.plan import MODEL_PRESETS, Planner, validate_topk
from repro.plan.space import SCHEMES
from repro.util.formatting import format_seconds
from repro.util.tables import Table

WORLD = 32
GLOBAL_BATCH = 256
SEQ_LEN = 512
MODELS = ("350M", "1.3B", "2.7B")

_searches: dict = {}
_validation: dict = {}


def _search(name: str):
    if name not in _searches:
        planner = Planner(world=WORLD)
        _searches[name] = planner.search(
            MODEL_PRESETS[name], global_batch=GLOBAL_BATCH, seq_len=SEQ_LEN,
        )
    return _searches[name]


def _validated():
    if not _validation:
        _validation["report"] = validate_topk(_search("350M"), k=5)
    return _validation["report"]


@pytest.mark.parametrize("name", MODELS)
def test_plan_point(benchmark, name):
    result = benchmark.pedantic(lambda: _search(name), rounds=1,
                                iterations=1)
    rec = result.recommendation
    assert rec is not None, f"no feasible config for {name}"
    c = rec.config
    benchmark.extra_info["plan_predicted_step_s"] = rec.predicted_step_s
    benchmark.extra_info["chosen_scheme"] = c.scheme
    benchmark.extra_info["chosen_dp"] = c.dp
    benchmark.extra_info["chosen_pp"] = c.pp
    benchmark.extra_info["chosen_tp"] = c.tp
    benchmark.extra_info["chosen_microbatches"] = c.microbatches
    for scheme in SCHEMES:
        best = result.best_for_scheme(scheme)
        if best is not None:
            benchmark.extra_info[f"{scheme}_best_step_s"] = \
                best.predicted_step_s
            # The planner searches a superset of every fixed scheme.
            assert rec.predicted_step_s <= best.predicted_step_s


@pytest.mark.parametrize("name", MODELS)
def test_plan_deterministic(name):
    first = _search(name)
    again = Planner(world=WORLD).search(
        MODEL_PRESETS[name], global_batch=GLOBAL_BATCH, seq_len=SEQ_LEN,
    )
    assert [pc.config for pc in again.ranked] == \
        [pc.config for pc in first.ranked]
    assert again.recommendation.config == first.recommendation.config


def test_plan_validation_spearman(benchmark):
    report = benchmark.pedantic(_validated, rounds=1, iterations=1)
    benchmark.extra_info["plan_spearman"] = report.spearman
    benchmark.extra_info["plan_mean_abs_err_frac"] = \
        report.mean_abs_rel_error
    assert report.spearman >= 1.0
    for row in report.rows:
        assert row.predicted_step_s == pytest.approx(
            row.simulated_step_s, rel=1e-9), row.planned.config.label
        assert row.predicted_peak_bytes == pytest.approx(
            row.peak_memory_bytes, rel=1e-9), row.planned.config.label


def test_plan_report(benchmark, capsys):
    results = benchmark.pedantic(
        lambda: {name: _search(name) for name in MODELS},
        rounds=1, iterations=1)
    table = Table(
        ["model", "planner pick", "step", *SCHEMES],
        title=(f"Planner vs fixed schemes @ {WORLD} GPUs, batch "
               f"{GLOBAL_BATCH}, seq {SEQ_LEN} (predicted step time)"),
    )
    beaten = {s: 0 for s in SCHEMES}
    for name, result in results.items():
        rec = result.recommendation
        cells = [name, rec.config.label,
                 format_seconds(rec.predicted_step_s)]
        for scheme in SCHEMES:
            best = result.best_for_scheme(scheme)
            if best is None:
                cells.append("infeasible")
                beaten[scheme] += 1
                continue
            cells.append(format_seconds(best.predicted_step_s))
            if rec.predicted_step_s < best.predicted_step_s:
                beaten[scheme] += 1
        table.add_row(cells)
    report = _validated()
    with capsys.disabled():
        print()
        print(table.render())
        print(f"350M top-5 validation: spearman {report.spearman:.3f}, "
              f"mean |rel err| {report.mean_abs_rel_error:.1%}")

    # No single fixed scheme dominates: every scheme is strictly beaten
    # by the planner's pick on at least one point of the ladder.
    for scheme, count in beaten.items():
        assert count >= 1, f"fixed {scheme} was never beaten on the sweep"
