"""Event records and the simulation trace.

Every compute op and every collective appends an event.  The trace answers
the questions the benchmark harness and the communication-volume experiment
ask: per-rank busy time, total bytes moved per collective kind, message
counts, and a per-rank timeline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

__all__ = ["ComputeEvent", "CommEvent", "FusedBatchEvent", "MarkerEvent",
           "FaultEvent", "RetryEvent", "Trace"]


@dataclass(frozen=True, slots=True)
class ComputeEvent:
    """One local kernel on one rank."""

    rank: int
    t_start: float
    t_end: float
    flops: float
    bytes_touched: float
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, slots=True)
class CommEvent:
    """One collective (or p2p message) as seen by one participating rank.

    ``nbytes`` is **per-rank**: the bytes this rank receives from its
    peers during the operation, or — for a rank that receives nothing
    (p2p ``send``, ``broadcast``/``scatter`` root, ``reduce``/``gather``
    non-root) — the bytes it sends.  See the accounting convention table
    in :mod:`repro.comm.communicator`.  Summing ``nbytes`` over a trace
    therefore yields the analytic per-rank communication volume with no
    group-size inflation (the whole-group payload is never recorded on
    every member).
    """

    rank: int
    kind: str  #: "broadcast", "all_reduce", "send", ...
    group: tuple[int, ...]
    nbytes: float  #: bytes received by this rank (sent, for pure senders)
    t_start: float  #: when this rank posted the operation
    t_end: float  #: completion time (synchronized across the group)
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, slots=True)
class FusedBatchEvent:
    """One fused batch window of same-group collectives, seen by one rank.

    A window queues several collectives on one group and rendezvouses
    once (see ``Communicator.batch``).  Each queued op still records its
    own :class:`CommEvent` — that is what keeps the per-rank ``nbytes``
    accounting convention intact — so this record is a *summary*, not a
    substitute: ``kinds`` lists the fused ops in issue order and
    ``nbytes`` sums their per-op volumes.  It is excluded from
    :meth:`Trace.comm_volume` (which iterates :class:`CommEvent` only);
    counting it too would double the window's traffic.
    """

    rank: int
    group: tuple[int, ...]
    kinds: tuple[str, ...]
    nbytes: float  #: sum of the window's per-op ``CommEvent.nbytes``
    t_start: float  #: when this rank queued the first op of the window
    t_end: float  #: completion of the window's last op
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True, slots=True)
class MarkerEvent:
    """A named instant, used to delimit phases (e.g. forward vs backward)."""

    rank: int
    t: float
    name: str


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """An injected fault firing (see :mod:`repro.sim.faults`).

    ``kind`` is ``"crash"`` for a solo rank death or ``"node_crash"``
    when the rank died as part of a correlated node loss; ``t`` is the
    virtual time the fault took effect on ``rank``.  Fault events carry no bytes and
    are excluded from every volume/time query — they exist so a failure
    trace is self-describing and reproducible.
    """

    rank: int
    kind: str
    t: float
    detail: str = ""


@dataclass(frozen=True, slots=True)
class RetryEvent:
    """One failed attempt of a transient-faulted send, plus its backoff.

    The retried send records its :class:`CommEvent` exactly once (on
    success), so retries change *time*, never per-rank ``nbytes`` totals:
    this record is what makes the spent backoff visible in the trace.
    ``t_start``/``t_end`` bracket the failed injection attempt and the
    backoff sleep on the sender's clock.
    """

    rank: int
    src: int
    dst: int
    attempt: int  #: 1-based failed attempt number
    t_start: float
    t_end: float
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


Event = (ComputeEvent | CommEvent | FusedBatchEvent | MarkerEvent
         | FaultEvent | RetryEvent)


class Trace:
    """Thread-safe append-only event log with summary queries."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: list[Event] = []
        self._lock = threading.Lock()

    def record(self, event: Event) -> None:
        """Append an event (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._events.append(event)

    def clear(self) -> None:
        """Drop all events (between benchmark iterations)."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        """Number of recorded events, without snapshotting the log."""
        with self._lock:
            return len(self._events)

    @property
    def events(self) -> list[Event]:
        """Snapshot of all events recorded so far."""
        with self._lock:
            return list(self._events)

    # --- queries ---------------------------------------------------------------

    def compute_events(self, rank: int | None = None) -> list[ComputeEvent]:
        return [
            e
            for e in self.events
            if isinstance(e, ComputeEvent) and (rank is None or e.rank == rank)
        ]

    def comm_events(
        self, rank: int | None = None, kind: str | None = None
    ) -> list[CommEvent]:
        return [
            e
            for e in self.events
            if isinstance(e, CommEvent)
            and (rank is None or e.rank == rank)
            and (kind is None or e.kind == kind)
        ]

    def fused_batches(self, rank: int | None = None) -> list[FusedBatchEvent]:
        return [
            e
            for e in self.events
            if isinstance(e, FusedBatchEvent) and (rank is None or e.rank == rank)
        ]

    def fault_events(self, rank: int | None = None) -> list[FaultEvent]:
        return [
            e
            for e in self.events
            if isinstance(e, FaultEvent) and (rank is None or e.rank == rank)
        ]

    def retry_events(self, rank: int | None = None) -> list[RetryEvent]:
        return [
            e
            for e in self.events
            if isinstance(e, RetryEvent) and (rank is None or e.rank == rank)
        ]

    def retry_time(self, rank: int) -> float:
        """Virtual seconds a rank burned on failed sends and backoff."""
        return sum(e.duration for e in self.retry_events(rank))

    def markers(self, name: str | None = None) -> list[MarkerEvent]:
        return [
            e
            for e in self.events
            if isinstance(e, MarkerEvent) and (name is None or e.name == name)
        ]

    def compute_time(self, rank: int) -> float:
        """Total busy compute seconds for a rank."""
        return sum(e.duration for e in self.compute_events(rank))

    def total_flops(self, rank: int | None = None) -> float:
        return sum(e.flops for e in self.compute_events(rank))

    def comm_volume(self, rank: int | None = None, kind: str | None = None) -> float:
        """Total bytes moved, summed over per-rank events.

        Each :class:`CommEvent` records the bytes *its* rank receives (or
        sends, for pure senders — see the convention table in
        :mod:`repro.comm.communicator`), so the plain sum over all events
        is the trace-wide communication volume and ``rank=r`` restricts it
        to one rank's traffic.  Note that a p2p message contributes twice
        (its ``send`` and its ``recv`` event), mirroring the two NICs it
        crosses.
        """
        return sum(e.nbytes for e in self.comm_events(rank=rank, kind=kind))

    def message_count(self, kind: str | None = None) -> int:
        """Number of collectives issued (counted once per group)."""
        return sum(
            1 for e in self.comm_events(kind=kind) if e.rank == min(e.group)
        )

    def comm_breakdown(self) -> dict[str, tuple[int, float]]:
        """Per-kind (count, bytes) over the whole trace.

        ``count`` is the number of collectives issued (once per group);
        ``bytes`` sums the per-rank volumes of every participant.
        """
        out: dict[str, tuple[int, float]] = {}
        for e in self.comm_events():
            count, nbytes = out.get(e.kind, (0, 0.0))
            out[e.kind] = (count + (1 if e.rank == min(e.group) else 0),
                           nbytes + e.nbytes)
        return out

    def span(self, rank: int, start_marker: str, end_marker: str) -> float:
        """Simulated seconds between two markers on one rank."""
        starts = [m.t for m in self.markers(start_marker) if m.rank == rank]
        ends = [m.t for m in self.markers(end_marker) if m.rank == rank]
        if not starts or not ends:
            raise KeyError(
                f"markers {start_marker!r}/{end_marker!r} not found for rank {rank}"
            )
        return max(ends) - min(starts)
