"""Smoke test of the end-to-end benchmark harness, at tiny sizes.

Run by path (tier-1's ``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

(``PYTHONPATH=src`` is for ``benchmarks/conftest.py``, which pytest loads on
the way down and which imports ``repro``; the harness finds ``src`` itself.)
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2e_common import ROOT, child_env, load_spec  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


_RUNS: dict = {}


def _run(workload: str, seed: int, trace: int, tmp_path, tag: str) -> dict:
    """One tiny run; runs are shared between tests by (workload, tag)."""
    if (workload, tag) not in _RUNS:
        _RUNS[workload, tag] = _run_once(workload, seed, trace, tmp_path, tag)
    return _RUNS[workload, tag]


def _run_once(workload: str, seed: int, trace: int, tmp_path, tag: str):
    out = tmp_path / f"{workload}.{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as fh:
        full = json.load(fh)["results"][0]
    return {"line": line, "full": full, "stdout": proc.stdout, "out": out}


def test_spec_names_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_schema(workload, tmp_path):
    a = _run(workload, 1, 0, tmp_path, "a")
    line = a["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0
        # every end-to-end metric is printed by name with its unit
        assert re.search(rf"^\s+{re.escape(entry['name'])}\s+\S+\s+"
                         rf"{re.escape(entry['unit'])}\s", a["stdout"], re.M)
    env = a["full"]["env"]
    assert {"python", "numpy", "nproc", "backend", "greenlet"} <= set(env)


@pytest.mark.parametrize("workload", ["serve_prefix", "serve_unique"])
def test_seed_reaches_the_serving_inputs(workload, tmp_path):
    a = _run(workload, 1, 0, tmp_path, "a")
    b = _run(workload, 2, 0, tmp_path, "s2")
    assert a["full"]["virtual"] != b["full"]["virtual"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    res = _run(workload, 1, 1, tmp_path, "t")
    line = res["line"]
    assert line["correct"] is True, res["full"]["problems"]
    # same seed, other processes (the untraced run, and inside the traced
    # run its own untraced child): identical virtual metrics, bit for bit
    untraced = _run(workload, 1, 0, tmp_path, "a")
    assert res["full"]["virtual"] == untraced["full"]["virtual"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for entry in SPEC["per_layer"]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["trace.spans"] > 0
    with open(f"{res['out']}.spans.jsonl", encoding="utf-8") as fh:
        span = json.loads(fh.readline())
    assert {"workload", "name", "thread", "id", "parent", "start",
            "end"} <= set(span) and span["workload"] == workload
    if workload.startswith("serve_"):
        assert m["sim.engine.collective.calls"] == 0
        assert m["serve.frames"] > 0 and m["serve.share"] > 0
    else:
        assert m["comm.collective.calls"] > 0 and m["comm.bytes_recv"] > 0
    if workload == "table1_strong":
        assert not any(v for k, v in m.items()
                       if k.startswith(("serve.", "train.")))


def _probe(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_untraced_child_holds_the_original_callables():
    code = (
        "import e2e_workloads\n"
        "from repro.sim.engine import Engine, RankContext\n"
        "from repro.varray import ops\n"
        "from repro.serve import runner\n"
        "print(any(hasattr(f, '__e2e_span__') for f in (Engine.run, "
        "RankContext.compute, ops.matmul, runner.run_serving, "
        "e2e_workloads.run_serving)))\n"
    )
    assert _probe(code) == "False"


def test_traced_comm_bytes_match_the_engine_trace():
    """The tracer rebuilds per-rank bytes from call arguments; the engine's
    own trace (on when ``collect_comm=True``) is the reference."""
    code = (
        "from e2e_tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "import e2e_workloads as w\n"
        "t.rebind()\n"
        "rows = [r for r in w.TABLE1_ROWS if r.gpus <= 8]\n"
        "out = w.run_table(rows, seq_len=64, num_layers=1, "
        "collect_comm=True)\n"
        "ref = sum(b for m in out for _, b in m.comm.values())\n"
        "print(t.missing, t.totals()['counters']['bytes_recv'] == ref, "
        "ref > 0)\n"
    )
    assert _probe(code) == "[] True True"
