"""The paper's analytic performance models, in closed form.

* :mod:`repro.perf.commvolume` — §1/§3.1 GPU-to-GPU transfer counts for
  Cannon, 2.5-D and Tesseract (the "31.5x / 3.75x at p=64" claims);
* :mod:`repro.perf.memory` — Eq. 7-10 per-GPU memory for a distributed
  matmul, plus transformer-level per-GPU parameter/activation counts;
* :mod:`repro.perf.isoefficiency` — Eq. 1-5 communication lower bounds and
  Eq. 11-12 efficiency/isoefficiency analysis.

The benchmark harness prints these closed forms next to quantities
*measured* from the simulator trace, so every analytic claim in the paper
is cross-checked against the executable system.
"""

from repro.perf import commvolume, isoefficiency, memory

__all__ = ["commvolume", "memory", "isoefficiency"]
