"""Engine synchronization overhead: the event backend against the threaded oracle.

One comparison, raw wall-clock engine overhead on a large-group
Communicator workload (unwindowed symbolic barriers, tracing off): the
``threaded`` backend parks 511 of 512 ranks on OS events at every
barrier, while the ``event`` backend's deferred collective timing lets
every rank run to completion without ever parking at a rendezvous — the
whole run degenerates to one inline sequential sweep over the ranks on a
single thread, so the hand-off count collapses from
``O(ranks x collectives)`` to exactly zero (no rank ever blocks, so the
drive loop never migrates to another thread) and wall-clock drops
accordingly.  The wall floor is >= 10x at 512 ranks and is asserted here
only (nightly); the *structural* gates — hand-offs per run == 0 and
bit-identical results — are deterministic and also enforced in tier-1
smoke at 64 ranks (``tests/bench/test_regression.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_engine_overhead.py -s``.
"""

from __future__ import annotations

import time

from repro.sim.engine import Engine

REPS = 3  #: interleaved repetitions to average out machine noise
EVENT_NRANKS = 512  #: the "large grid" (8x the paper's 64 GPUs)
EVENT_ROUNDS = 32  #: unwindowed symbolic collectives per run
EVENT_RUNS = 5  #: threaded runs are ~0.6 s each at 512 ranks; cap the arm
MIN_EVENT_SPEEDUP = 10.0  #: wall floor, threaded vs event at 512 ranks


# --------------------------------------------------------------------------
# The full Communicator stack (payloads, cost model) on a large group,
# threaded vs event.  It goes through ``Communicator`` rather than raw
# engine rendezvous calls, because deferred collective timing lives behind
# the Communicator's pricing path — that is also what ``bench/runner.py``
# sweeps actually execute.  The shape is a plain unwindowed barrier sweep:
# each collective is a full-group rendezvous with no payload work, so the
# threaded arm pays the wake-convoy cost per collective while the event
# arm prices the group once per barrier and never parks — the purest view
# of the per-collective engine overhead this module is about.
# --------------------------------------------------------------------------


def _unwindowed_barrier_program(nranks: int, rounds: int):
    from repro.comm.communicator import Communicator

    granks = tuple(range(nranks))

    def program(ctx):
        comm = Communicator(ctx, granks)
        for _ in range(rounds):
            comm.barrier()
        # No ctx.now here: observing the clock forces a deferred sync
        # (one park per rank), which would hide the pure-sweep hand-off
        # structure this arm gates on.  The final clocks are still
        # finalized (and compared via results_match) by the engine.
        return None

    return program


def measure_event(nranks: int = EVENT_NRANKS, rounds: int = EVENT_ROUNDS,
                  runs: int = EVENT_RUNS, reps: int = REPS) -> dict:
    """Wall-clock of the unwindowed barrier sweep: threaded vs event.

    Returns per-run minima (one-sided noise filter), the resulting
    speedup, the event scheduler's deterministic hand-off count, and
    whether the two backends produced identical results and virtual
    clocks (``results_match`` — the deferred path must be bit-exact, not
    just fast).
    """
    program = _unwindowed_barrier_program(nranks, rounds)
    engines = {
        "threaded": Engine(nranks=nranks, mode="symbolic", trace=False,
                           backend="threaded"),
        "event": Engine(nranks=nranks, mode="symbolic", trace=False,
                        backend="event"),
    }
    outputs = {}
    for backend, engine in engines.items():
        outputs[backend] = (engine.run(program),  # also warms the pool
                            [c.clock.now for c in engine.contexts])
    results_match = outputs["threaded"] == outputs["event"]

    best = {b: float("inf") for b in engines}
    for _ in range(reps):
        for backend, engine in engines.items():
            for _ in range(runs):
                t0 = time.perf_counter()
                engine.run(program)
                best[backend] = min(best[backend],
                                    time.perf_counter() - t0)
    handoffs = engines["event"].scheduler.handoffs
    for engine in engines.values():
        engine.shutdown()
    n_coll = rounds  # one sweep of `rounds` full-group barriers per run
    return {
        "nranks": nranks,
        "threaded_s": best["threaded"],
        "event_s": best["event"],
        "event_speedup": best["threaded"] / best["event"],
        "threaded_us_per_coll": best["threaded"] / n_coll * 1e6,
        "event_us_per_coll": best["event"] / n_coll * 1e6,
        "event_handoffs_per_run": handoffs,
        "results_match": results_match,
    }


def test_event_backend_speedup(benchmark):
    """Event backend with deferred timing: >= 10x wall-clock at 512 ranks.

    The workload is an unwindowed Communicator barrier sweep — the
    collective shape ``bench/runner.py`` tables execute, minus payload
    work.  Under the threaded backend every barrier parks 511 of 512
    ranks on OS events; under the event backend no rank ever parks
    (symbolic results are shape-functions, so completion times defer),
    every rank runs to completion inline on the drive loop's own thread,
    and the hand-off count is exactly zero.  Bit-exactness is asserted
    alongside speed: a fast-but-divergent backend is a bug, not a win.
    """
    m = benchmark.pedantic(measure_event, rounds=1, iterations=1)
    print(
        f"\n{m['nranks']}-rank unwindowed barrier sweep (Communicator, "
        f"symbolic, trace off):\n"
        f"  threaded: {m['threaded_s'] * 1e3:8.2f} ms/run "
        f"({m['threaded_us_per_coll']:.1f} us/coll)\n"
        f"  event:    {m['event_s'] * 1e3:8.2f} ms/run "
        f"({m['event_us_per_coll']:.1f} us/coll)\n"
        f"  speedup: {m['event_speedup']:.1f}x "
        f"({m['event_handoffs_per_run']} hand-offs/run)"
    )
    benchmark.extra_info["event_speedup"] = m["event_speedup"]
    benchmark.extra_info["event_us_per_coll"] = m["event_us_per_coll"]
    benchmark.extra_info["event_handoff_iterations"] = (
        m["event_handoffs_per_run"])
    assert m["results_match"], (
        "event backend diverged from threaded on the barrier sweep "
        "workload (results or virtual clocks differ)"
    )
    assert m["event_handoffs_per_run"] == 0, (
        f"deferred scheduling regression: {m['event_handoffs_per_run']} "
        f"hand-offs per run, expected exactly 0 "
        f"(some rank parked at a rendezvous it should have deferred)"
    )
    assert m["event_speedup"] >= MIN_EVENT_SPEEDUP, (
        f"event-backend regression: only {m['event_speedup']:.2f}x faster "
        f"than threaded on the {m['nranks']}-rank unwindowed barrier "
        f"sweep (need >= {MIN_EVENT_SPEEDUP}x)"
    )
