"""Paths, the benchmark contract and sample statistics shared by the harness."""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: marks the child's result line on its standard output
RESULT_TAG = "E2E_CHILD_RESULT "


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    """The pinned environment every child runs in.

    ``REPRO_ENGINE_BACKEND`` is scrubbed so the backend measured is the
    default a user gets; BLAS pools are pinned to one thread (unpinned,
    two sets of ``train_elastic`` medians differed by 26%) and string
    hashing is fixed so set/dict iteration order cannot vary.
    """
    env = dict(os.environ)
    env.pop("REPRO_ENGINE_BACKEND", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def summary(samples: list[float]) -> dict:
    """n, min, quartiles, max.  With n < 21 no percentile beyond the median
    has ten samples past it, so none is claimed.  The quartiles interpolate
    between samples (``inclusive``) and never leave their range."""
    n = len(samples)
    if n >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = med = q3 = samples[0]
    return {"n": n, "min": min(samples), "q1": q1, "median": med, "q3": q3,
            "max": max(samples)}


def fail(message: str) -> NoReturn:
    print(f"e2e: {message}", file=sys.stderr)
    raise SystemExit(2)
