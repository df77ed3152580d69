"""Tesseract: Parallelize the Tensor Parallelism Efficiently — full reproduction.

This package reproduces the system described in

    Boxiang Wang, Qifan Xu, Zhengda Bian, Yang You.
    "Tesseract: Parallelize the Tensor Parallelism Efficiently." ICPP 2022.

on a *simulated* GPU cluster: every GPU of the paper's MeluXina testbed is a
rank in a deterministic SPMD simulator (:mod:`repro.sim`), real numerics flow
through the actual distributed algorithms (:mod:`repro.pblas`,
:mod:`repro.parallel`), and an alpha-beta communication cost model over an
explicit NVLink/InfiniBand topology (:mod:`repro.hardware`) produces the
simulated timings that the benchmark harness (:mod:`repro.bench`) turns back
into the paper's tables and figures.

Package layout
--------------
``repro.util``      checked math helpers, RNG streams, table/plot rendering
``repro.hardware``  GPU/link/node/cluster specs and the network topology
``repro.sim``       virtual clocks, cost models, the SPMD engine, tracing
``repro.comm``      process groups and MPI-style collectives
``repro.varray``    dual real/symbolic array facade with flop accounting
``repro.grid``      1-D / 2-D / 2.5-D (Tesseract) process-grid contexts
``repro.pblas``     Cannon, SUMMA, 2.5-D, Megatron-1D, Tesseract matmuls
``repro.nn``        explicit forward/backward NN modules and optimizers
``repro.parallel``  Megatron / Optimus / Tesseract transformer layers
``repro.models``    Transformer LM and Vision Transformer
``repro.data``      synthetic workloads (token batches, ImageNet-100 stand-in)
``repro.train``     training loop with metric history
``repro.perf``      the paper's analytic performance models (Eqs. 1-12)
``repro.bench``     experiment configs + harness for every table and figure
"""

from repro.version import __version__
from repro.errors import (
    CommError,
    ConfigError,
    DeadlockError,
    GridError,
    ReproError,
    ShapeError,
    SimulationError,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigError",
    "ShapeError",
    "GridError",
    "CommError",
    "SimulationError",
    "DeadlockError",
]
