"""Per-rank virtual clocks.

A :class:`VirtualClock` is a monotonically non-decreasing simulated time in
seconds.  Local compute advances it by :meth:`advance`; a collective
synchronizes a set of clocks by :meth:`sync_to` (clocks only ever move
forward — a rank arriving early at a rendezvous *waits*, it does not travel
back in time).

Deferred epochs (event backend)
-------------------------------
Under deferred collective timing the engine does not yet know the true
completion time of the last collective when the rank runs on, so the
clock runs *provisionally* from the arrival time while recording every
``advance`` delta in an epoch log (:meth:`begin_epoch`).  When the
collective's completion time resolves, :meth:`end_epoch` replays the
logged deltas from the true base — the **same left-to-right float fold**
the blocking path performs (``sync_to`` then sequential ``advance``
calls) — so deferred and blocking execution produce bit-identical times,
not merely close ones.  A forward ``sync_to`` during an open epoch is an
engine bug (only the engine's resolution may move a deferred clock) and
raises.
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["VirtualClock"]


class VirtualClock:
    """Simulated time for one rank, in seconds since simulation start."""

    __slots__ = ("_now", "_epoch_log")

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start}")
        self._now = float(start)
        #: ``None`` outside deferred execution; a list of ``advance``
        #: deltas while an epoch is open (event backend only).
        self._epoch_log: list[float] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def deferred(self) -> bool:
        """True while a deferred epoch is open (provisional time)."""
        return self._epoch_log is not None

    def advance(self, dt: float) -> float:
        """Move forward by ``dt`` seconds (must be non-negative)."""
        if dt < 0:
            raise SimulationError(f"cannot advance clock by negative dt={dt}")
        self._now += dt
        if self._epoch_log is not None:
            self._epoch_log.append(dt)
        return self._now

    def advance_each(self, dts: tuple[float, ...], total: float) -> float:
        """Replay ``dts``: what one :meth:`advance` call per delta does.

        The deltas were validated by :meth:`advance` when they were first
        recorded.  They are added one at a time, in order, never as a
        sum, so the clock lands on the same bits.  ``total`` is folded
        with the same adds and returned (the caller's running
        ``compute_seconds``, which takes one add per kernel too).
        """
        now = self._now
        for dt in dts:
            now += dt
            total += dt
        self._now = now
        if self._epoch_log is not None:
            self._epoch_log.extend(dts)
        return total

    def sync_to(self, t: float) -> float:
        """Jump forward to absolute time ``t`` (no-op if already past it)."""
        if t > self._now:
            if self._epoch_log is not None:
                raise SimulationError(
                    f"cannot sync_to({t!r}) during an open deferred epoch "
                    f"(provisional now={self._now!r}); resolve the epoch "
                    f"first"
                )
            self._now = t
        return self._now

    def begin_epoch(self) -> tuple[float, ...]:
        """Open (or roll over) a deferred epoch; returns the closed log.

        The returned tuple holds the ``advance`` deltas recorded since
        the previous :meth:`begin_epoch` (empty on the first call) — the
        engine stores it as the link from the previous deferred
        collective to the one being deposited now.
        """
        prior = self._epoch_log
        self._epoch_log = []
        return tuple(prior) if prior else ()

    def end_epoch(self, base: float) -> float:
        """Close the epoch: replay its deltas from the resolved ``base``.

        The fold is left-to-right, one delta at a time — exactly the
        arithmetic the blocking path performs — so the result is
        bit-identical to never having deferred.
        """
        log = self._epoch_log
        if log is None:
            raise SimulationError("end_epoch without an open deferred epoch")
        t = base
        for dt in log:
            t += dt
        self._epoch_log = None
        self._now = t
        return t

    def reset(self, t: float = 0.0) -> None:
        """Reset the clock (used between benchmark iterations)."""
        if t < 0:
            raise SimulationError(f"cannot reset clock to negative time {t}")
        self._now = float(t)
        self._epoch_log = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6e})"
