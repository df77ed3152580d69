"""One workload in one process: set-up, warm-up, timed repetitions.

Started by ``run.py`` (never imported by it), with the pinned environment of
``e2e_common.child_env``.  It sets up, runs one warm-up repetition, then
timed repetitions for ``--seconds`` (at least ``MIN_REPS``).  With ``--trace``
the span wrappers of ``e2e_tracer`` are installed before any other ``repro``
import; without it the callables are the originals.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import threading
import time

from e2e_common import RESULT_TAG

#: timed repetitions made even when ``--seconds`` is already over: the
#: median needs two, and so does the check that traced counts repeat
MIN_REPS = 2


def _pin_to_one_cpu() -> int | None:
    """Pin this process to the first CPU it may run on; None if it cannot.

    On two cores the threaded backend's rank threads hand the interpreter
    lock from core to core: a ``table1_strong`` sweep then takes 2.4x as
    long and its repetitions spread over 10-23% instead of 1.5-3%
    (``train_elastic``: 2x as long).  One CPU is also ROADMAP's reference
    container, and it keeps the single-threaded serving loops from
    migrating.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _env_block(pinned_cpu: int | None) -> dict:
    import numpy

    from repro.sim.schedulers import greenlet_available, resolve_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "backend": resolve_backend(None).name,
        "greenlet": greenlet_available(),
        "machine": platform.machine(),
    }


def _run_rep(units) -> tuple[dict, dict, int]:
    """Run the units back to back.  Returns outputs, per-unit (wall, cpu)
    seconds and the most live threads seen at a unit boundary."""
    outputs, times, threads = {}, {}, 0
    for name, fn in units:
        w0, c0 = time.perf_counter(), time.process_time()
        outputs[name] = fn()
        times[name] = (time.perf_counter() - w0, time.process_time() - c0)
        threads = max(threads, threading.active_count())
    return outputs, times, threads


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="epoch seconds at which the parent started us")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="traced run: append the spans to this file")
    args = ap.parse_args()
    pinned_cpu = _pin_to_one_cpu()

    tracer = None
    if args.trace:
        from e2e_tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from e2e_workloads import WORKLOADS

    if tracer is not None:
        tracer.rebind()

    # Set-up: imports (above), input generation, the workload's own check,
    # then one warm-up repetition in which caches fill and lazily built
    # state (rank-worker pool, engine caches) is paid for.
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workload.setup_check()
    units = workload.units()
    ready_s = time.time() - args.t0
    outputs, _, _ = _run_rep(units)
    first = workload.evaluate(outputs)
    setup_s = time.time() - args.t0

    attempted, failed = first.attempted, first.failed
    problems = list(first.problems)
    unit_times: dict[str, list] = {name: [] for name, _ in units}
    reps: list[dict] = []
    threads_peak = 0
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        gc0 = _gc_collections()
        outputs, times, threads = _run_rep(units)
        rep = {"wall_s": sum(t[0] for t in times.values()),
               "cpu_s": sum(t[1] for t in times.values()),
               "gc_collections": _gc_collections() - gc0}
        if tracer is not None:
            rep["trace"] = tracer.totals()
        threads_peak = max(threads_peak, threads)
        for name, sample in times.items():
            unit_times[name].append(sample)
        ev = workload.evaluate(outputs)
        attempted += ev.attempted
        failed += ev.failed
        problems += ev.problems
        if ev.virtual != first.virtual or ev.layer != first.layer:
            failed += 1
            problems.append(
                f"rep {len(reps) + 1}: virtual metrics differ from the "
                f"warm-up's: {ev.virtual} vs {first.virtual}")
        reps.append(rep)

    if tracer is not None and args.spans:
        # the last repetition's spans (the tracer is reset before each)
        with open(args.spans, "a", encoding="utf-8") as fh:
            tracer.dump_spans(fh, args.workload)
    result = {
        "setup_s": setup_s,
        "ready_s": ready_s,
        "env": _env_block(pinned_cpu),
        "reps": reps,
        "units": unit_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "threads_peak": threads_peak,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "virtual": first.virtual,
        "layer": first.layer,
    }
    if tracer is not None:
        result["missing_wrap_points"] = tracer.missing
    print(RESULT_TAG + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
