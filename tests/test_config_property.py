"""Property tests over the ``repro serve`` and ``repro plan`` flag space.

Every draw of flags must do one of three things, and never raise:

* exit 0 -- for ``serve`` every policy's JSON report completed every
  request; for ``plan`` the JSON was written;
* exit 1 -- ``plan`` only, with its "no feasible config" line;
* exit 2 -- the configuration was rejected: one line on stderr that names
  a field or flag the draw set.

Sizes are tiny.  Tier-1 runs a small derandomized budget; the nightly
profile registered in ``tests/conftest.py`` runs a large random one::

    PYTHONPATH=src python -m pytest tests/test_config_property.py \\
        --hypothesis-profile config-nightly
"""

import contextlib
import io
import json
import math
import re

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.cli import main

#: tier-1's budget, unless a profile was chosen with --hypothesis-profile
FLAG_SPACE = (
    settings(max_examples=20, derandomize=True, deadline=None)
    if settings.get_current_profile_name() == "default" else settings()
)

_BAD_FLOATS = st.sampled_from([0.0, -0.5, 1.5, math.nan, math.inf])

_MODES = st.sampled_from(["serial", "megatron", "optimus", "tesseract"])
_POLICIES = st.sampled_from(["continuous", "static", "both"])

#: flag -> (values inside the flag's own range, values that may be out of
#: it, the names a rejection may use for it).  Values inside the range
#: still conflict with other flags (slots vs the grid's batch bands, the
#: paged cache vs the static policy, ...).  A flag with argparse
#: ``choices`` draws only those: any other value is a parse error.
SERVE = {
    "--mode": (_MODES, _MODES, ("mode",)),
    "--q": (st.integers(1, 2), st.integers(-1, 3), ("q",)),
    "--d": (st.integers(1, 2), st.integers(-1, 3), ("d",)),
    "--world": (st.sampled_from([1, 2, 4]), st.integers(-1, 3), ("world",)),
    "--rate": (st.floats(1.0, 500.0), _BAD_FLOATS, ("arrival_rate",)),
    "--policy": (_POLICIES, _POLICIES, ("policy",)),
    "--seed": (st.integers(0, 3), st.integers(0, 3), ()),
    "--slots": (st.integers(1, 8), st.integers(-1, 0), ("max_slots",)),
    "--kv-budget": (st.integers(100, 400), st.integers(-1, 99),
                    ("kv_budget_tokens",)),
    "--kv-block": (st.integers(0, 16), st.integers(-1, 64),
                   ("kv_block_tokens",)),
    "--chunk": (st.integers(0, 16), st.just(-1), ("prefill_chunk_tokens",)),
    "--spec-k": (st.integers(0, 3), st.just(-1), ("spec_k", "spec")),
    "--accept-rate": (st.floats(0.0, 1.0), _BAD_FLOATS, ("accept_rate",)),
    "--prefix-pool": (st.integers(0, 3), st.just(-1), ("prefix_pool",)),
    "--priorities": (st.booleans(), st.booleans(), ()),
}
#: drawn on every serve example, so no run is larger than these
SERVE_SIZES = {
    "--requests": (st.integers(1, 4), st.integers(-1, 0), ("num_requests",)),
    "--layers": (st.integers(1, 2), st.integers(-1, 0), ("num_layers",)),
    "--hidden": (st.sampled_from([4, 8, 12, 16]), st.sampled_from([-4, 0, 6]),
                 ("hidden",)),
}
PLAN = {
    "--model": (st.sampled_from(["tiny", "350M"]), st.just("13T"),
                ("model",)),
    "--world": (st.integers(1, 16), st.integers(-1, 0), ("world",)),
    "--global-batch": (st.integers(1, 64), st.integers(-1, 0),
                       ("global_batch",)),
    "--seq-len": (st.integers(1, 64), st.integers(-5, 0), ("seq_len",)),
    "--schedule": (st.sampled_from(["gpipe", "1f1b"]),
                   st.sampled_from(["gpipe", "1f1b"]), ("schedule",)),
    "--zero": (st.booleans(), st.booleans(), ()),
    "--checkpoint": (st.booleans(), st.booleans(), ()),
    "--budget-fraction": (st.floats(0.05, 1.0), _BAD_FLOATS,
                          ("budget_fraction",)),
    "--max-microbatches": (st.integers(1, 8), st.integers(-1, 0),
                           ("max_microbatches",)),
    "--top": (st.integers(0, 4), st.integers(-2, -1), ("top",)),
    "--validate": (st.integers(0, 2), st.just(-1), ("validate",)),
}


@st.composite
def _flags(draw, table, required=()):
    """A draw of flags: the ``required`` ones always, any others, each
    inside its own range; then, half the time, one flag drawn again from
    the values that may be out of it."""
    flags = draw(st.fixed_dictionaries(
        {flag: table[flag][0] for flag in required},
        optional={flag: table[flag][0] for flag in table
                  if flag not in required},
    ))
    bad = draw(st.none() | st.sampled_from(sorted(table)))
    if bad is not None:
        flags[bad] = draw(table[bad][1])
    return flags


def _argv(command, flags, out_json):
    argv = [command, "--json", str(out_json)]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv.append(f"{flag}={value}")  # "=": a value may start with "-"
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_rejection_names_a_flag(err, flags, table):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    names = {name for flag in flags for name in table[flag][2]}
    names |= {flag.lstrip("-") for flag in flags}
    assert any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", lines[0])
               for name in names), (lines[0], sorted(names))


@FLAG_SPACE
@given(flags=_flags({**SERVE, **SERVE_SIZES}, required=SERVE_SIZES))
@example(flags={"--mode": "tesseract", "--q": 2, "--d": 3,
                "--requests": 2, "--layers": 1, "--hidden": 8})
@example(flags={"--mode": "tesseract", "--q": 1, "--d": 1,
                "--requests": 2, "--layers": 1, "--hidden": 8})
@example(flags={"--kv-block": 8, "--policy": "static",
                "--requests": 2, "--layers": 1, "--hidden": 8})
@example(flags={"--chunk": 8, "--spec-k": 2,
                "--requests": 2, "--layers": 1, "--hidden": 8})
def test_serve_flags_run_or_are_rejected(flags, tmp_path_factory):
    out_json = tmp_path_factory.mktemp("serve") / "serve.json"
    code, _, err = _run(_argv("serve", flags, out_json))
    event(f"exit {code}")
    if code == 2:
        _assert_rejection_names_a_flag(err, flags, {**SERVE, **SERVE_SIZES})
        return
    assert code == 0, err
    reports = json.loads(out_json.read_text())
    policy = flags.get("--policy", "both")
    assert set(reports) == ({"continuous", "static"} if policy == "both"
                            else {policy})
    for rep in reports.values():
        assert rep["completed"] == rep["num_requests"] == flags["--requests"]


@FLAG_SPACE
@given(flags=_flags(PLAN))
@example(flags={"--model": "tiny", "--seq-len": 0})
@example(flags={"--model": "tiny", "--seq-len": -5})
@example(flags={"--model": "tiny", "--world": 0})
@example(flags={"--model": "tiny", "--global-batch": 0})
def test_plan_flags_run_or_are_rejected(flags, tmp_path_factory):
    flags = {"--model": "tiny", **flags}
    out_json = tmp_path_factory.mktemp("plan") / "plan.json"
    code, out, err = _run(_argv("plan", flags, out_json))
    event(f"exit {code}")
    if code == 2:
        _assert_rejection_names_a_flag(err, flags, PLAN)
        return
    if code == 1:
        assert "no feasible config" in out, (out, err)
    else:
        assert code == 0, err
    assert json.loads(out_json.read_text()).keys() <= {flags["--model"]}
