"""Share of a virtual decode step spent in the KV cache's own kernels.

Runs the units of the ``serve_unique`` and ``serve_prefix`` end-to-end
workloads (their configurations are imported from
``benchmarks/e2e/e2e_workloads.py``, seed 1, full scale) on traced engines.
A decode step is one engine-backed ``decode`` frame: assembling the past
KV, the draft-model price under speculation, the verify forward and
storing the new KV.  Per unit it prints the step's virtual seconds, the
part that is priced kernels, and the part that is ``kv_frame`` /
``kv_append`` / ``kv_page`` kernels.  Every number is virtual time, so
the output does not depend on the host::

    PYTHONPATH=src python benchmarks/kv_decode_share.py
"""

from __future__ import annotations

import bisect
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))

import e2e_workloads  # noqa: E402

from repro.serve import runner  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sim.events import ComputeEvent  # noqa: E402

CACHE_TAGS = ("kv_frame", "kv_append", "kv_page")


def main() -> None:
    steps: list[tuple[float, float]] = []
    engines: list[Engine] = []
    decode = runner._Frames.decode

    def timed_decode(self, rep, counts):
        t0 = self.ctx.clock.now
        decode(self, rep, counts)
        if rep.model is not None:
            steps.append((t0, self.ctx.clock.now))

    class TracedEngine(Engine):
        def __init__(self, *args, trace=False, **kwargs):
            super().__init__(*args, trace=True, **kwargs)
            engines.append(self)

    runner._Frames.decode = timed_decode
    runner.Engine = TracedEngine
    print(f"{'workload/unit':<30}{'steps':>7}{'step s':>10}{'kernel s':>10}"
          + "".join(f"{tag:>11}" for tag in CACHE_TAGS)
          + f"{'cache/step':>12}{'cache/kernels':>15}")
    for name in ("serve_unique", "serve_prefix"):
        workload = e2e_workloads.WORKLOADS[name](1, "full")
        for unit, run in workload.units():
            steps.clear()
            run()
            events = sorted((ev.t_start, ev.t_end - ev.t_start, ev.tag)
                            for ev in engines.pop().trace.events
                            if type(ev) is ComputeEvent and ev.rank == 0)
            starts = [ev[0] for ev in events]
            step_s = kernel_s = 0.0
            by_tag = dict.fromkeys(CACHE_TAGS, 0.0)
            for t0, t1 in steps:
                step_s += t1 - t0
                for _, dt, tag in events[bisect.bisect_left(starts, t0):
                                         bisect.bisect_left(starts, t1)]:
                    kernel_s += dt
                    if tag in by_tag:
                        by_tag[tag] += dt
            cache_s = sum(by_tag.values())
            print(f"{name + '/' + unit:<30}{len(steps):>7}{step_s:>10.3f}"
                  f"{kernel_s:>10.3f}"
                  + "".join(f"{by_tag[tag]:>11.4f}" for tag in CACHE_TAGS)
                  + f"{cache_s / step_s:>12.2%}{cache_s / kernel_s:>15.2%}")


if __name__ == "__main__":
    main()
