#!/usr/bin/env python3
"""Compare two sets of results written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py BASE NEW

BASE and NEW are each one result file, or a directory of them (a set of
runs: one file per run, seeds may differ between files).  One row per
(workload, metric): base, new, the ratio new/base and a verdict.  Host
metrics (those with a bound in BENCHMARK.json) compare the medians over each
side's runs and are ``better`` / ``same`` / ``worse`` against the bound, or
``unresolved`` when the distance between BASE's own quartiles already
exceeds the bound.  Virtual metrics, counts and
byte/flop sums are exact: they compare with ``==`` and any difference is
``better`` or ``worse`` by the metric's direction.  Per-layer times and
shares are shown for information only.  Exit code 1 on any ``worse`` or any
rise in ``fail_frac``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from e2e_common import load_spec, summary


def _load(path: str) -> dict:
    """``{(workload, traced): {seed: result}}`` from one result file, or
    from every ``*.json`` in a directory (a set of runs, one seed each)."""
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [
        Path(path)]
    groups: dict = {}
    for file in files:
        with open(file, encoding="utf-8") as fh:
            for r in json.load(fh)["results"]:
                groups.setdefault((r["workload"], r["traced"]), {})[
                    r["seed"]] = r
    return groups


#: per-layer metrics measured on the host clock, or that follow thread
#: timing: shown for information, never compared.  (How many rank threads
#: are already parked when an injected crash sweeps a rendezvous moves
#: ``sim.sched.wait.calls`` by a few, and ``trace.spans`` includes them.)
_HOST_SUFFIXES = (".self_s", ".wait_s", ".share")
_HOST_PREFIXES = ("host.", "trace.", "sim.sched.wait.")


def _exact(name: str) -> bool:
    """Per-layer metrics that must repeat exactly: virtual metrics, counts
    and byte/flop sums; everything but the host-clock names above."""
    return not (name.endswith(_HOST_SUFFIXES)
                or name.startswith(_HOST_PREFIXES))


def _verdict_exact(b, n, better: str) -> str:
    if n == b:
        return "same"
    return "worse" if (n > b) == (better == "lower") else "better"


#: with at least this many runs a side's spread is taken between runs
MIN_RUNS_FOR_SPREAD = 4


def _verdict_bounded(base: list, new: list, entry: dict):
    """``base``/``new``: one ``{"value", "samples"}`` per run of that side.
    Compares the medians over runs; the base's own spread is taken between
    its runs, or inside its single run when there are too few."""
    b = statistics.median(m["value"] for m in base)
    n = statistics.median(m["value"] for m in new)
    spread = summary([m["value"] for m in base]
                     if len(base) >= MIN_RUNS_FOR_SPREAD
                     else base[0]["samples"])
    if (spread["q3"] - spread["q1"]) / spread["median"] > entry["bound"]:
        return b, n, "unresolved"
    worse = n / b - 1.0 if entry["better"] == "lower" else 1.0 - n / b
    if worse > entry["bound"]:
        return b, n, "worse"
    return b, n, "better" if worse < -entry["bound"] else "same"


def _exact_row(base: dict, new: dict, get, better: str):
    """Exact metrics compare seed by seed; the row shows the first seed
    that differs (else the lowest) and the worst verdict over all seeds."""
    seeds = sorted(base.keys() & new.keys())
    verdicts = {s: _verdict_exact(get(base[s]), get(new[s]), better)
                for s in seeds}
    shown = next((s for s in seeds if verdicts[s] != "same"), seeds[0])
    verdict = next((v for v in ("worse", "better")
                    if v in verdicts.values()), "same")
    return get(base[shown]), get(new[shown]), verdict


def compare(base_doc: dict, new_doc: dict, spec: dict) -> tuple[list, bool]:
    bounded = {e["name"]: e for e in spec["end_to_end"]}
    direction = {e["name"]: e["better"] for e in spec["per_layer"]}
    rows = []
    for key in sorted(base_doc.keys() & new_doc.keys()):
        base, new = base_doc[key], new_doc[key]
        workload, traced = key
        if not base.keys() & new.keys():
            continue

        def row(name, b, n, verdict):
            rows.append((workload, name, b, n, n / b if b else None, verdict))

        row("fail_frac", *_exact_row(
            base, new, lambda r: r["failed"] / r["attempted"], "lower"))
        if traced:
            for name in next(iter(base.values()))["per_layer"]:
                if name == "fail_frac":  # the row above
                    continue
                b, n, verdict = _exact_row(
                    base, new, lambda r: r["per_layer"][name]["value"],
                    direction[name])
                row(name, b, n, verdict if _exact(name) else "info")
            continue
        for name, entry in bounded.items():
            row(name, *_verdict_bounded(
                [r["end_to_end"][name] for r in base.values()],
                [r["end_to_end"][name] for r in new.values()], entry))
        for name in next(iter(base.values()))["virtual"]:
            row(name, *_exact_row(base, new, lambda r: r["virtual"][name],
                                  direction[name]))
    return rows, any(r[-1] == "worse" for r in rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, bad = compare(_load(argv[0]), _load(argv[1]), load_spec())
    print(f"{'workload':<14} {'metric':<34} {'base':>14} {'new':>14} "
          f"{'new/base':>9}  verdict")
    for workload, name, b, n, ratio, verdict in rows:
        shown = f"{ratio:9.4f}" if ratio is not None else f"{'-':>9}"
        print(f"{workload:<14} {name:<34} {b:>14.6g} {n:>14.6g} {shown}  "
              f"{verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
