"""Exception hierarchy for the Tesseract reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one handler.  Sub-classes identify
the subsystem that failed:

* :class:`ConfigError`    -- a value the caller chose is rejected before
  anything is built (a config field out of range, two options in
  conflict); the message names the field or fields.  Each rule has one
  owner: the config's ``__post_init__`` for a rule about one object, the
  library entry point (``run_serving``, ``Planner.search``, ``run_row``,
  ``train_resilient``) for a rule that spans objects.
* :class:`GridError`      -- a :class:`ConfigError` about the processor
  arrangement (``p != d*q**2``, ``d > q``, an unknown parallel mode).
* :class:`ShapeError`     -- an array/matrix shape cannot be partitioned as
  requested by a kernel (e.g. a block not divisible by the grid dimension
  ``q``).
* :class:`CommError`      -- a communication mis-use detected by the engine
  (mismatched collectives, wrong root, self-send, ...).
* :class:`SimulationError` -- a run failed (a rank raised, ranks returned
  inconsistent results, a deadlock, a cache or tracker misuse, ...).
* :class:`DeadlockError`  -- the watchdog saw a rendezvous that can never
  complete (some ranks never arrived).
* :class:`RankFailureError` -- a simulated rank was killed by an injected
  fault (see :mod:`repro.sim.faults`); raised promptly on every surviving
  communication partner, naming the dead rank and its crash time.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """A configuration value or combination was rejected before a run."""


class GridError(ConfigError):
    """An invalid processor-grid arrangement was requested."""


class ShapeError(ReproError, ValueError):
    """An array shape is incompatible with the requested partitioning."""


class CommError(ReproError, RuntimeError):
    """Communication primitives were used inconsistently across ranks."""


class SimulationError(ReproError, RuntimeError):
    """The SPMD simulation failed to run to completion."""


class DeadlockError(SimulationError):
    """A collective rendezvous timed out with some ranks missing."""


class RankFailureError(SimulationError):
    """A rank died from an injected fault; partners can never rendezvous.

    ``rank`` is the global rank that crashed and ``t`` the virtual time of
    the crash.  Both the dying rank and every rank whose collective or
    p2p operation (transitively) depends on it raise this error — the
    message is identical everywhere so failure traces are reproducible.
    """

    def __init__(self, rank: int, t: float, message: str | None = None):
        self.rank = rank
        self.t = t
        super().__init__(
            message
            if message is not None
            else f"rank {rank} died at t={t:.6e}s (injected crash)"
        )

    def clone(self) -> "RankFailureError":
        """A fresh instance (same rank/time/message) safe to re-raise on
        another thread without sharing traceback state."""
        out = RankFailureError.__new__(RankFailureError)
        RankFailureError.__init__(out, self.rank, self.t, str(self))
        return out
