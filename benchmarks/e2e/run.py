#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of ``repro``: host time and virtual time.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace 0|1] [--out FILE]

Each workload runs in child processes of its own, one at a time, under a
pinned environment.  ``--trace 0`` measures the end-to-end metrics with the
program's original callables; ``--trace 1`` is a separate run with span
wrappers installed that reports the per-layer metrics (and never feeds the
end-to-end numbers).  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero if any output check failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from e2e_common import (
    HERE,
    RESULT_TAG,
    child_env,
    fail,
    load_spec,
    summary,
)

#: a run's children are killed when together they exceed this; the contract
#: allows a run 180 s
RUN_TIMEOUT_S = 170.0


def _child(workload: str, seed: int, scale: str, seconds: float,
           trace: bool = False, spans: str | None = None,
           timeout: float = RUN_TIMEOUT_S) -> dict:
    """Run one child to completion and return its result object."""
    cmd = [sys.executable, str(HERE / "e2e_child.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--seconds", str(seconds),
           "--t0", repr(time.time())]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: the run exceeded {RUN_TIMEOUT_S:.0f} s")
    lines = [ln for ln in proc.stdout.splitlines()
             if ln.startswith(RESULT_TAG)]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1][len(RESULT_TAG):])


def _rep_walls(res: dict) -> list[float]:
    return [rep["wall_s"] for rep in res["reps"]]


def measure(workload: str, seed: int, seconds: float, scale: str) -> dict:
    """The untraced run: end-to-end metrics of one workload.

    ``wall_s`` is the median wall time of the timed repetitions; the one
    ``setup_s`` and ``peak_rss_mb`` sample come from the same child."""
    res = _child(workload, seed, scale, seconds)
    walls = _rep_walls(res)
    end_to_end = {
        "setup_s": {"value": res["setup_s"], "unit": "s",
                    "samples": [res["setup_s"]]},
        "wall_s": {"value": statistics.median(walls), "unit": "s",
                   "samples": walls},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB",
                        "samples": [res["peak_rss_mb"]]},
    }
    return {
        "workload": workload, "seed": seed, "scale": scale, "traced": False,
        "env": res["env"], "end_to_end": end_to_end,
        "ready_s": res["ready_s"],
        "virtual": res["virtual"], "layer_outputs": res["layer"],
        "attempted": res["attempted"], "failed": res["failed"],
        "problems": res["problems"], "units": res["units"],
    }


# --- traced run -------------------------------------------------------------------

#: the spans reported as ``<name>.calls`` and ``<name>.self_s``
TIMED_SPANS = (
    "sim.engine.run", "sim.engine.compute", "sim.engine.collective",
    "sim.engine.deferred", "sim.engine.p2p", "sim.cost.comm",
    "sim.cost.compute", "comm.collective", "comm.p2p", "varray.matmul",
    "varray.elementwise", "varray.shape", "pblas.matmul",
    "parallel.layer_fwd", "parallel.layer_bwd", "nn.optim.step",
    "train.loop", "train.snapshot", "train.redistribute",
    "serve.sched.admit", "serve.cache.append", "serve.cache.assemble",
    "serve.cache.check", "serve.model.prefill", "serve.model.decode",
)
LAYERS = ("sim", "comm", "varray", "parallel", "nn", "train", "serve")
#: the traced run fails above this share of CPU outside every layer
MAX_UNATTRIBUTED = 0.15


def _layer_of(span: str) -> str | None:
    head = span.split(".")[0]
    if head == "pblas":
        return "parallel"
    return head if head in LAYERS else None


def per_layer_metrics(rep: dict, outputs: dict, virtual: dict,
                      threads_peak: int, overhead_frac: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced repetition."""
    spans, counters = rep["trace"]["spans"], rep["trace"]["counters"]
    m: dict[str, tuple[float, str]] = {}

    def cpu(*names) -> float:
        return sum(spans[n]["cpu_s"] for n in names)

    def calls(*names) -> int:
        return sum(spans[n]["calls"] for n in names)

    for span in TIMED_SPANS:
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.self_s"] = (cpu(span), "s")
    # the rank program is the caller's loop: booked to the layer that owns it
    m["train.resilient.calls"] = (calls("train.resilient"), "count")
    m["train.resilient.self_s"] = (cpu("train.resilient", "train.program"),
                                   "s")
    m["serve.runner.self_s"] = (cpu("serve.runner", "serve.program"), "s")
    m["parallel.build.self_s"] = (cpu("parallel.build"), "s")
    m["sim.engine.collective.wait_s"] = (counters["collective_wait_s"], "s")
    m["sim.sched.handoffs"] = (counters["handoffs"], "count")
    m["sim.sched.wait.calls"] = (calls("sim.sched.wait"), "count")
    m["sim.sched.wait.self_s"] = (cpu("sim.sched.wait"), "s")
    m["comm.batch.windows"] = (calls("comm.batch"), "count")
    m["comm.bytes_recv"] = (counters["bytes_recv"], "B")
    m["varray.flops"] = (counters["flops"], "flop")
    m["train.redistribute.bytes"] = (counters["redistribute_bytes"], "B")
    m["serve.sched.preemptions"] = (calls("serve.sched.preempt"), "count")
    m["serve.cache.lookup.calls"] = (calls("serve.cache.lookup"), "count")
    m["serve.cache.evict.calls"] = (calls("serve.cache.evict"), "count")
    units = {"goodput_tok_s": "tok/s", "hit_rate": "ratio"}
    for name in ("train.restarts", "train.reshapes", "train.lost_steps",
                 "serve.frames", "serve.cache.hit_rate",
                 "serve.cache.cow_copies", "serve.cache.blocks_peak",
                 "serve.paged_unique.goodput_tok_s",
                 "serve.fleet.goodput_tok_s", "serve.fleet.replicas_peak"):
        m[name] = (outputs.get(name, 0),
                   units.get(name.rsplit(".", 1)[-1], "count"))

    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, tot in spans.items():
        layer = _layer_of(span)
        if layer is not None:
            by_layer[layer] += tot["cpu_s"]
    attributed = sum(by_layer.values())
    for layer in LAYERS:
        m[f"{layer}.share"] = (by_layer[layer] / attributed if attributed
                               else 0.0, "ratio")
    m["host.cpu_s"] = (rep["cpu_s"], "s")
    m["host.threads_peak"] = (threads_peak, "count")
    m["host.gc_collections"] = (rep["gc_collections"], "count")
    m["trace.spans"] = (rep["trace"]["span_count"], "count")
    m["trace.unattributed_s"] = (max(0.0, rep["cpu_s"] - attributed), "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    for name, unit in VIRTUAL_UNITS.items():
        m[name] = (virtual.get(name, 0), unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


#: virtual-clock and accuracy metrics: exact for a given seed, so they are
#: compared with ``==`` and carry no noise bound (0 where a workload has none)
VIRTUAL_UNITS = {
    "sim_time_s": "virtual_s",
    "paper_ratio_err": "ratio",
    "paper_rank_corr": "ratio",
    "sim_steps_per_s": "1/virtual_s",
    "sim_recover_s": "virtual_s",
    "sim_goodput_tok_s": "tok/virtual_s",
    "sim_ttft_p99_s": "virtual_s",
    "sim_ttft_p50_s": "virtual_s",
    "sim_slo_attainment": "ratio",
    "sim_preemptions": "count",
}


#: how many rank threads are already parked when an injected crash sweeps a
#: rendezvous depends on thread timing, so this one count may move by a few
TIMING_DEPENDENT_SPANS = ("sim.sched.wait",)


def _exact_part(trace: dict) -> dict:
    """What must repeat exactly between traced repetitions."""
    return {"calls": {n: s["calls"] for n, s in trace["spans"].items()
                      if n not in TIMING_DEPENDENT_SPANS},
            "counters": {k: v for k, v in trace["counters"].items()
                         if k != "collective_wait_s"}}


def trace(workload: str, seed: int, seconds: float, scale: str,
          spans_path: str | None) -> dict:
    """The traced run: per-layer metrics of one workload."""
    started = time.monotonic()
    ref = _child(workload, seed, scale, seconds / 3.0)
    res = _child(workload, seed, scale, seconds, trace=True,
                 spans=spans_path,
                 timeout=RUN_TIMEOUT_S - (time.monotonic() - started))
    problems = list(ref["problems"]) + list(res["problems"])
    failed = ref["failed"] + res["failed"]
    attempted = ref["attempted"] + res["attempted"]

    def check(ok: bool, what: str) -> None:
        nonlocal failed, attempted
        attempted += 1
        if not ok:
            failed += 1
            problems.append(what)

    check(not res["missing_wrap_points"],
          f"wrap points resolved to no callable: "
          f"{res['missing_wrap_points']}")
    check(res["virtual"] == ref["virtual"] and res["layer"] == ref["layer"],
          "virtual metrics of the traced run differ from the untraced run's")
    reps = res["reps"]
    exact = _exact_part(reps[0]["trace"])
    check(all(_exact_part(r["trace"]) == exact for r in reps),
          "span counts or byte/flop sums differ between traced repetitions")
    # report the traced repetition with the median wall time
    rep = sorted(reps, key=lambda r: r["wall_s"])[(len(reps) - 1) // 2]
    metrics = per_layer_metrics(
        rep, res["layer"], res["virtual"], res["threads_peak"],
        statistics.median(_rep_walls(res))
        / statistics.median(_rep_walls(ref)) - 1.0)
    unattributed = metrics["trace.unattributed_s"]["value"] / rep["cpu_s"]
    check(unattributed <= MAX_UNATTRIBUTED,
          f"{unattributed:.1%} of the traced repetition's CPU time is in no "
          f"layer span (limit {MAX_UNATTRIBUTED:.0%})")
    metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    return {
        "workload": workload, "seed": seed, "scale": scale, "traced": True,
        "env": res["env"], "per_layer": metrics, "virtual": res["virtual"],
        "attempted": attempted, "failed": failed,
        "problems": sorted(set(problems)), "traced_reps": len(reps),
    }


# --- output -----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _spread_text(samples: list[float]) -> str:
    s = summary(samples)
    return (f"n={s['n']} min={_fmt(s['min'])} q1={_fmt(s['q1'])} "
            f"median={_fmt(s['median'])} q3={_fmt(s['q3'])} "
            f"max={_fmt(s['max'])}")


def render(result: dict) -> str:
    """Every metric by name with its unit, one per line."""
    lines = [f"== {result['workload']} (seed {result['seed']}, "
             f"{'traced' if result['traced'] else 'untraced'}, "
             f"backend {result['env']['backend']}) =="]
    if result["traced"]:
        for name, m in result["per_layer"].items():
            lines.append(f"  {name:<36} {_fmt(m['value']):>14} {m['unit']}")
    else:
        for name, m in result["end_to_end"].items():
            lines.append(
                f"  {name:<20} {_fmt(m['value']):>12} {m['unit']:<10} "
                f"{_spread_text(m['samples'])}")
        lines.append(f"  {'ready_s':<20} {_fmt(result['ready_s']):>12} "
                     f"{'s':<10} the part of setup_s before the warm-up")
        for name, value in result["virtual"].items():
            lines.append(f"  {name:<20} {_fmt(value):>12} "
                         f"{VIRTUAL_UNITS[name]}")
        fail_frac = result["failed"] / result["attempted"]
        lines.append(f"  {'fail_frac':<20} {_fmt(fail_frac):>12} ratio      "
                     f"({result['failed']} of {result['attempted']} "
                     f"operations)")
    lines += [f"  FAILED CHECK: {p}" for p in result["problems"]]
    return "\n".join(lines)


def contract_line(result: dict, spec: dict) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    section = "per_layer" if result["traced"] else "end_to_end"
    source = result[section]
    metrics = {}
    for entry in spec[section]:
        m = source[entry["name"]]
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, default=None,
                    help="one workload (default: all four, in order)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long the timed repetitions run")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    default=0)
    ap.add_argument("--out", default=None,
                    help="write the full results (samples included) as JSON; "
                         "a traced run also dumps its spans, as JSON lines, "
                         "to FILE.spans.jsonl")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's sizes")
    args = ap.parse_args(argv)

    spans_path = None
    if args.trace and args.out:
        spans_path = args.out + ".spans.jsonl"
        open(spans_path, "w", encoding="utf-8").close()  # children append
    results = []
    for workload in ([args.workload] if args.workload else names):
        if args.trace:
            result = trace(workload, args.seed, args.seconds, args.scale,
                           spans_path)
        else:
            result = measure(workload, args.seed, args.seconds, args.scale)
        results.append(result)
        print(render(result), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"results": results}, fh, indent=1)
    for result in results:
        print(contract_line(result, spec))
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
