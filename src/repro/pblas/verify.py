"""The paper's §4 validation procedure as a public API.

"We use randomly generated input matrices to check the algorithm and
Xavier initialized parameter matrices.  After the generation of matrices,
we compute the matrix multiplication result and the result using our
Tesseract method respectively, to guarantee outputs are the same."

:func:`verify_matmul` runs exactly that for any of the implemented
algorithms and returns the max absolute error plus the simulated time, so
users (and the CLI) can validate an arrangement in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GridError
from repro.grid.context import ParallelContext
from repro.grid.shapes import TesseractShape
from repro.pblas import layouts
from repro.pblas.cannon import cannon_ab
from repro.pblas.solomonik import solomonik_25d_ab
from repro.pblas.summa import summa_ab
from repro.pblas.tesseract import tesseract_ab
from repro.sim.engine import Engine
from repro.util.rng import rng_for
from repro.varray import vinit
from repro.varray.varray import VArray

__all__ = ["VerifyResult", "verify_matmul", "ALGORITHMS"]

ALGORITHMS = ("tesseract", "summa", "cannon", "solomonik")


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one verification run."""

    algorithm: str
    shape: TesseractShape
    dims: tuple[int, int, int]  #: (m, k, n)
    max_abs_error: float
    simulated_seconds: float

    @property
    def passed(self) -> bool:
        """True when the distributed result matches numpy to float32 noise."""
        return self.max_abs_error < 1e-2


def verify_matmul(
    algorithm: str,
    q: int,
    d: int = 1,
    m: int | None = None,
    k: int | None = None,
    n: int | None = None,
    seed: int = 0,
) -> VerifyResult:
    """Run C = A @ B distributed and serially; compare (the §4 check).

    Inputs are random (stream ``(seed, "verify", "a"/"b")``); B uses the
    Xavier initializer, matching the paper's setup.  Dimensions default to
    small multiples of the grid.
    """
    if algorithm not in ALGORITHMS:
        raise GridError(f"unknown algorithm {algorithm!r}; valid: {ALGORITHMS}")
    shape = TesseractShape(q=q, d=d)
    if algorithm in ("summa", "cannon") and d != 1:
        raise GridError(f"{algorithm} is a 2-D algorithm; use d=1")
    m = m if m is not None else q * d * 4
    k = k if k is not None else q * 4
    n = n if n is not None else q * 4
    a = rng_for(seed, "verify", "a").normal(size=(m, k)).astype(np.float32)
    b = vinit.xavier_uniform(rng_for(seed, "verify", "b"), (k, n))
    reference = a @ b

    if algorithm == "tesseract":
        a_blocks = layouts.split_a(a, q, d)
        b_blocks = layouts.split_b(b, q, d)
    else:
        a_blocks = layouts.split_2d(a, q)
        b_blocks = layouts.split_2d(b, q)

    # only the results and max_time() are read: no event log
    engine = Engine(nranks=shape.p, trace=False)

    def prog(ctx):
        pc = ParallelContext.tesseract(ctx, q=q, d=d)
        if algorithm == "tesseract":
            c = tesseract_ab(
                pc,
                VArray.from_numpy(a_blocks[(pc.i, pc.j, pc.k)]),
                VArray.from_numpy(b_blocks[(pc.i, pc.j, pc.k)]),
            )
            return ("a", pc.i, pc.j, pc.k), c.numpy()
        if algorithm == "solomonik":
            blk_a = (VArray.from_numpy(a_blocks[(pc.i, pc.j)])
                     if pc.k == 0 else None)
            blk_b = (VArray.from_numpy(b_blocks[(pc.i, pc.j)])
                     if pc.k == 0 else None)
            c = solomonik_25d_ab(pc, blk_a, blk_b)
            return ("2d", pc.i, pc.j, pc.k), c.numpy()
        fn = summa_ab if algorithm == "summa" else cannon_ab
        c = fn(pc, VArray.from_numpy(a_blocks[(pc.i, pc.j)]),
               VArray.from_numpy(b_blocks[(pc.i, pc.j)]))
        return ("2d", pc.i, pc.j, pc.k), c.numpy()

    results = engine.run(prog)
    if algorithm == "tesseract":
        blocks = {(i, j, kk): v for (_, i, j, kk), v in results}
        combined = layouts.combine_c(blocks, q, d)
    else:
        blocks = {(i, j): v for (_, i, j, kk), v in results if kk == 0}
        combined = layouts.combine_2d(blocks, q)
    err = float(np.abs(combined - reference).max())
    return VerifyResult(
        algorithm=algorithm,
        shape=shape,
        dims=(m, k, n),
        max_abs_error=err,
        simulated_seconds=engine.max_time(),
    )
