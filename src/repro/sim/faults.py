"""Deterministic fault injection for the SPMD simulator.

A :class:`FaultPlan` describes everything that goes wrong during one
simulated run: rank crashes at scheduled *virtual* times, per-link
bandwidth degradation, per-message delivery jitter, transient send
failures, and compute stragglers.  Install one on an engine with
``Engine(fault_plan=...)``.

Every fault decision is a pure function of ``(plan.seed, fault site)``
via the package's named RNG streams (:func:`repro.util.rng.rng_for`), so
the same plan produces a **bit-identical failure trace** on every rerun —
which faults fire, in which order each rank observes them, and the exact
virtual times — regardless of OS thread interleaving.  Wall-clock time
never enters any fault decision.

The same purity makes plans **scheduler-backend invariant**: crash
times, retry draws and jitter depend only on virtual clocks and named
RNG streams, never on how ranks are multiplexed onto the CPU, so the
event and threaded backends (:mod:`repro.sim.schedulers`) replay a
plan identically — ``tests/sim/test_faults.py`` runs this whole module's
guarantees under both, and the fault-plan fuzzers in
``tests/sim/test_engine_fuzz.py`` assert cross-backend equality of
outcomes, dead sets, traces and volumes.

Fault kinds
-----------
:class:`RankCrash`
    Rank ``rank`` dies the first time its virtual clock reaches
    ``t >= at``.  The engine marks it dead, records a ``FaultEvent``, and
    every collective or p2p operation that (transitively) depends on the
    dead rank raises :class:`~repro.errors.RankFailureError` on its
    surviving partners *promptly* — pending rendezvous are woken
    immediately, never via the watchdog timeout.
:class:`NodeCrash`
    A correlated fault domain: every rank placed on ``node`` (per the
    engine's :class:`~repro.hardware.topology.Topology`) dies in one
    event at virtual time ``at`` — a host kernel panic, a PSU trip, a
    top-of-rack switch loss.  The plan itself stays topology-independent;
    the engine resolves the node to its resident ranks at construction
    time and each member dies exactly like a :class:`RankCrash` at the
    same instant, so the dead-set propagation (rendezvous, fused
    channels, batch windows, p2p) needs no special casing.  A rank with
    both a personal and a node crash dies at the earlier of the two.
:class:`LinkFault`
    The link between two ranks delivers at ``1/factor`` of its healthy
    bandwidth: p2p transfer times between the pair scale by ``factor``.
:class:`ComputeSlowdown`
    Every local kernel on ``rank`` takes ``factor`` times longer — a
    straggler GPU (thermal throttling, a sick HBM stack).  With ``until``
    set, the degradation is *transient*: kernels started at virtual times
    ``>= until`` run at full speed again (the fans spun up, the sick HBM
    stack was remapped) — the window the elastic trainer's straggler
    quarantine uses to decide when the node is readmittable.
:class:`NodeRepair`
    Availability schedule, upward direction: a node lost to a
    :class:`NodeCrash` is repaired and its ranks return to service at
    cumulative virtual time ``at`` (summed over restart attempts — see
    ``train_resilient(availability=...)``).  A repair for a node that
    never crashes is rejected at construction.
:class:`SpareArrival`
    Fresh capacity: ``count`` new ranks join the spare pool at cumulative
    virtual time ``at`` (a new node racked, a reservation granted).
Transient send failures (``transient_rate`` + :class:`RetryPolicy`)
    Each buffered ``send`` independently fails with probability
    ``transient_rate`` per attempt; the communicator retries with bounded
    exponential backoff, pricing each retry in virtual time and tracing a
    ``RetryEvent`` — but recording the ``CommEvent`` exactly once, so
    per-rank volume accounting is invariant under retries.
Message delay jitter (``jitter``)
    Adds a deterministic uniform ``[0, jitter]`` seconds of virtual delay
    to every p2p delivery (flaky NIC firmware, congested switch).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.util.rng import rng_for

__all__ = [
    "RankCrash",
    "NodeCrash",
    "NodeRepair",
    "SpareArrival",
    "LinkFault",
    "ComputeSlowdown",
    "RetryPolicy",
    "FaultPlan",
]


@dataclass(frozen=True)
class RankCrash:
    """Kill ``rank`` the first time its virtual clock reaches ``at``."""

    rank: int
    at: float  #: virtual seconds

    def __post_init__(self):
        if not self.at >= 0:
            raise ConfigError(f"crash time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class NodeCrash:
    """Kill every rank hosted on ``node`` when its clock reaches ``at``.

    ``node`` is a topology node index (see
    :meth:`~repro.hardware.topology.Topology.node_of`); the engine
    resolves it to the resident ranks, so the plan stays placement- and
    world-size-independent until it is installed.
    """

    node: int
    at: float  #: virtual seconds

    def __post_init__(self):
        if self.node < 0:
            raise ConfigError(f"node index must be >= 0, got {self.node}")
        if not self.at >= 0:
            raise ConfigError(f"crash time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class NodeRepair:
    """Return a crashed ``node``'s ranks to service at cumulative time ``at``.

    ``at`` is measured on the *cumulative* virtual timeline — the sum of
    attempt makespans across restarts — because the repaired hardware does
    not rejoin the attempt it died in; it becomes available to a later
    attempt.  :func:`~repro.train.resilience.train_resilient` consumes the
    schedule; the engine itself never resurrects ranks mid-run.
    """

    node: int
    at: float  #: cumulative virtual seconds

    def __post_init__(self):
        if self.node < 0:
            raise ConfigError(f"node index must be >= 0, got {self.node}")
        if not self.at >= 0:
            raise ConfigError(f"repair time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class SpareArrival:
    """``count`` fresh ranks join the spare pool at cumulative time ``at``."""

    count: int
    at: float  #: cumulative virtual seconds

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(
                f"spare arrival count must be >= 1, got {self.count}"
            )
        if not self.at >= 0:
            raise ConfigError(f"arrival time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class LinkFault:
    """Degrade the (src, dst) link: p2p transfers take ``factor``x longer.

    The fault is symmetric (links are full duplex but share the PHY), so
    ``LinkFault(0, 1, 4.0)`` also slows messages from 1 to 0.
    """

    src: int
    dst: int
    factor: float

    def __post_init__(self):
        if not self.factor >= 1.0:
            raise ConfigError(
                f"link degradation factor must be >= 1, got {self.factor}"
            )


@dataclass(frozen=True)
class ComputeSlowdown:
    """Straggler: every kernel on ``rank`` takes ``factor``x longer.

    ``until`` (optional) bounds the degradation in virtual time: kernels
    whose start time is ``>= until`` run at full speed.  ``None`` means
    the straggler is persistent for the whole run.
    """

    rank: int
    factor: float
    until: float | None = None  #: virtual seconds; None = persistent

    def __post_init__(self):
        if not self.factor >= 1.0:
            raise ConfigError(
                f"compute slowdown factor must be >= 1, got {self.factor}"
            )
        if self.until is not None and not self.until > 0:
            raise ConfigError(
                f"slowdown until must be > 0 (or None), got {self.until}"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient send failures.

    Attempt ``k`` (1-based) that fails waits ``base_delay * 2**(k-1)``
    virtual seconds before the next try; after ``max_attempts`` failed
    attempts the send raises :class:`~repro.errors.CommError`.
    """

    max_attempts: int = 4
    base_delay: float = 1e-4  #: virtual seconds

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not self.base_delay >= 0:
            raise ConfigError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff after the ``attempt``-th (1-based) failed try."""
        return self.base_delay * (2.0 ** (attempt - 1))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic chaos scenario for one engine.

    Parameters
    ----------
    seed:
        Base seed for every probabilistic fault decision (transient
        failures, jitter draws).  Independent of the engine's data seed.
    crashes:
        Ranks to kill, each at a scheduled virtual time.
    node_crashes:
        Correlated fault domains: whole topology nodes to lose, each at a
        scheduled virtual time (every resident rank dies in one event).
    node_repairs:
        The availability schedule, upward direction: crashed nodes whose
        ranks return to service at a cumulative virtual time.  Every
        repair must reference a node with a scheduled :class:`NodeCrash`
        and fire strictly after it.
    spare_arrivals:
        Fresh capacity joining the spare pool at cumulative virtual
        times.
    link_faults:
        Degraded rank-pair links.
    slowdowns:
        Straggler ranks.
    transient_rate:
        Per-attempt probability that a buffered send fails transiently.
    retry:
        Backoff policy used by the communicator for transient failures.
    jitter:
        Maximum extra virtual delay added to each p2p delivery (uniform
        ``[0, jitter]``, drawn deterministically per message).
    """

    seed: int = 0
    crashes: tuple[RankCrash, ...] = ()
    node_crashes: tuple[NodeCrash, ...] = ()
    node_repairs: tuple[NodeRepair, ...] = ()
    spare_arrivals: tuple[SpareArrival, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()
    slowdowns: tuple[ComputeSlowdown, ...] = ()
    transient_rate: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    jitter: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transient_rate < 1.0:
            raise ConfigError(
                f"transient_rate must be in [0, 1), got {self.transient_rate}"
            )
        if not self.jitter >= 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")
        seen: set[int] = set()
        for c in self.crashes:
            if c.rank in seen:
                raise ConfigError(
                    f"rank {c.rank} has more than one scheduled crash"
                )
            seen.add(c.rank)
        seen_nodes: set[int] = set()
        for nc in self.node_crashes:
            if nc.node in seen_nodes:
                raise ConfigError(
                    f"node {nc.node} has more than one scheduled crash"
                )
            seen_nodes.add(nc.node)
        seen_repairs: set[int] = set()
        for nr in self.node_repairs:
            if nr.node in seen_repairs:
                raise ConfigError(
                    f"node {nr.node} has more than one scheduled repair"
                )
            seen_repairs.add(nr.node)
            crash_at = self.node_crash_time(nr.node)
            if crash_at is None:
                raise ConfigError(
                    f"NodeRepair(node={nr.node}) references a node with no "
                    f"scheduled NodeCrash — only crashed nodes can be "
                    f"repaired"
                )
            if nr.at <= crash_at:
                raise ConfigError(
                    f"node {nr.node} repair at t={nr.at:g} must come "
                    f"strictly after its crash at t={crash_at:g}"
                )

    def without_fired(self, lost: set[int], nodes: set[int]) -> FaultPlan:
        """The plan for a relaunch after a run whose crashes took ``lost``
        ranks (node-expanded, :meth:`Engine.lost_ranks
        <repro.sim.engine.Engine.lost_ranks>`) and fired the
        :class:`NodeCrash` of each of ``nodes``.

        Each planned crash fires at most once across restarts; a fired
        node's :class:`NodeRepair` goes with its crash (the relaunch
        already has the node back).  A rank that only cascaded dead
        keeps its crash for later.
        """
        return replace(
            self,
            crashes=tuple(c for c in self.crashes if c.rank not in lost),
            node_crashes=tuple(
                nc for nc in self.node_crashes if nc.node not in nodes),
            node_repairs=tuple(
                nr for nr in self.node_repairs if nr.node not in nodes),
        )

    # --- per-site queries (all pure; all deterministic) ---------------------

    def crash_time(self, rank: int) -> float | None:
        """The scheduled crash time for ``rank`` (None if it never dies).

        Covers personal :class:`RankCrash` entries only — node crashes
        need a topology to resolve; the engine combines this with
        :meth:`node_crash_time` at construction.
        """
        for c in self.crashes:
            if c.rank == rank:
                return c.at
        return None

    def node_crash_time(self, node: int) -> float | None:
        """The scheduled crash time for ``node`` (None if it survives)."""
        for nc in self.node_crashes:
            if nc.node == node:
                return nc.at
        return None

    def repair_time(self, node: int) -> float | None:
        """Cumulative virtual time ``node`` is repaired (None = never)."""
        for nr in self.node_repairs:
            if nr.node == node:
                return nr.at
        return None

    def arrived_spares(self, t: float) -> int:
        """Spare ranks that have arrived by cumulative virtual time ``t``."""
        return sum(sa.count for sa in self.spare_arrivals if sa.at <= t)

    def compute_factor(self, rank: int, now: float | None = None) -> float:
        """Straggler multiplier for local kernels on ``rank``.

        With ``now`` given, time-windowed slowdowns (``until`` set) only
        count while ``now < until``; without it every entry counts — the
        engine's fast path for plans with no windowed entries.
        """
        factor = 1.0
        for s in self.slowdowns:
            if s.rank == rank and (
                now is None or s.until is None or now < s.until
            ):
                factor *= s.factor
        return factor

    def has_windowed_slowdown(self, rank: int) -> bool:
        """Whether ``rank`` has any time-bounded straggler entry."""
        return any(
            s.rank == rank and s.until is not None for s in self.slowdowns
        )

    def send_fails(self, src: int, dst: int, tag, seq: int, attempt: int) -> bool:
        """Whether the ``attempt``-th (0-based) try of this send fails.

        A pure function of the fault seed and the message identity, so the
        same message fails the same number of times on every rerun.
        """
        if self.transient_rate <= 0.0:
            return False
        rng = rng_for(self.seed, "fault", "transient", src, dst, tag, seq,
                      attempt)
        return bool(rng.random() < self.transient_rate)

    def delivery_jitter(self, src: int, dst: int, tag, seq: int) -> float:
        """Deterministic extra delivery delay for one p2p message."""
        if self.jitter <= 0.0:
            return 0.0
        rng = rng_for(self.seed, "fault", "jitter", src, dst, tag, seq)
        return float(rng.random() * self.jitter)

    def describe(self) -> str:
        """One-line human summary for bench reports and the CLI.

        Timed availability events (crashes, node crashes, repairs, spare
        arrivals) render first, in event order (ties break crash-first,
        then repair, then arrival — a node cannot return before it is
        lost); untimed environment faults (links, stragglers, transient
        rates, jitter) follow.
        """
        timeline: list[tuple[float, int, str]] = []
        for c in self.crashes:
            timeline.append((c.at, 0, f"crash(rank={c.rank}, t={c.at:g})"))
        for nc in self.node_crashes:
            timeline.append(
                (nc.at, 0, f"node_crash(node={nc.node}, t={nc.at:g})")
            )
        for nr in self.node_repairs:
            timeline.append(
                (nr.at, 1, f"repair(node={nr.node}, t={nr.at:g})")
            )
        for sa in self.spare_arrivals:
            timeline.append(
                (sa.at, 2, f"spares(+{sa.count}, t={sa.at:g})")
            )
        parts = [text for _, _, text in sorted(timeline)]
        for lf in self.link_faults:
            parts.append(f"link({lf.src}<->{lf.dst} x{lf.factor:g})")
        for s in self.slowdowns:
            window = "" if s.until is None else f" until t={s.until:g}"
            parts.append(f"straggler(rank={s.rank} x{s.factor:g}{window})")
        if self.transient_rate > 0:
            parts.append(
                f"transient({self.transient_rate:g}/attempt, "
                f"<= {self.retry.max_attempts} attempts)"
            )
        if self.jitter > 0:
            parts.append(f"jitter(<= {self.jitter:g}s)")
        return "healthy" if not parts else ", ".join(parts)
