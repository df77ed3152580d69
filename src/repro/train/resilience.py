"""Elastic checkpoint/restart recovery for the training loop.

The simulator's fault layer (:mod:`repro.sim.faults`) can kill a rank —
or a whole node's worth of ranks — at a scheduled virtual time; every
surviving rank then observes a :class:`~repro.errors.RankFailureError` at
its first operation that depends on a dead rank.  This module turns that
failure into an *elastic training* protocol, mirroring what torchelastic
/ DeepSpeed do on real clusters:

1. While training, every rank periodically deposits a snapshot of its
   local model shards (via :mod:`repro.nn.serialize`), optimizer slot
   state and metric history into a shared :class:`SnapshotStore`.  A
   snapshot step only counts once **all** ranks have deposited *in the
   same restart generation* — a crash mid-snapshot (including a crash
   during a previous recovery's re-deposit wave) leaves a partial or
   mixed-generation step that is never restored from.
2. When :func:`train_resilient` catches a ``RankFailureError`` out of
   ``engine.run``, it builds a *fresh* engine (the dead rank is
   "replaced"), re-runs the training program, and the loop inside
   :func:`~repro.train.trainer.train_classifier` fast-forwards the data
   pipeline to the last complete snapshot, restores parameters and
   optimizer moments, and resumes.
3. With an :class:`ElasticPolicy`, lost hardware is permanent: once the
   cumulative losses exceed the spare capacity, the surviving world is
   re-factorized into the best-fitting ``[q, q, d]`` Tesseract shape,
   the last complete snapshot is re-sharded for the new grid (pure numpy
   slicing — bit-exact), and training continues at the smaller world.
   Each resize is recorded as a :class:`ReshapeRecord`.
4. With an *availability schedule* (``train_resilient(availability=...)``
   carrying :class:`~repro.sim.faults.NodeRepair` /
   :class:`~repro.sim.faults.SpareArrival` events), capacity is a
   time-varying resource, tracked by one :class:`Capacity`: at each
   snapshot boundary an :class:`ElasticController` — installed into the
   training loop — checks whether repaired or newly-arrived hardware
   lets the grid *grow back* to a larger ``p = d*q**2`` shape, and
   raises an :class:`ElasticInterrupt` to stop the attempt
   snapshot-clean.  The decision happens right after a world barrier
   (zero bytes, clocks synced to one instant), so every rank raises the
   same interrupt at the same step on every backend.  Hysteresis
   (``ElasticPolicy.min_steps_between_reshapes``) keeps repair/crash
   oscillation from thrashing the grid.
5. The same controller quarantines *stragglers*: ranks whose accumulated
   local-kernel seconds exceed ``quarantine_factor`` times the fleet
   minimum (an all-gather of per-rank ``compute_seconds``) get their
   whole node evicted by a ``"quarantine"`` interrupt — a voluntary
   shrink, snapshot-clean, zero lost steps — and readmitted once their
   :class:`~repro.sim.faults.ComputeSlowdown` window (``until``) passes.
6. Each recovery is recorded as a :class:`RecoveryRecord` in
   ``TrainHistory.recoveries`` (resume step, lost steps, the dead rank
   and its virtual crash time, and the wall-clock restore latency).

A crash and a voluntary interrupt end an attempt the same way: the
attempt is recorded, :class:`Capacity` takes the loss or quarantine,
``ElasticPolicy.choose_shape`` picks the grid for what is left, and a
changed shape re-shards the last complete snapshot before the relaunch.

Because batches, reduction order, and initial weights are deterministic,
a recovered run converges to the same final loss as a fault-free run up
to the floating-point drift introduced by re-starting from the snapshot
step (bit-identical when the snapshot captures full fp64 state, which it
does — snapshots are exact numpy copies).  The same holds across an
elastic reshape: post-reshape losses are bit-identical to a fresh run at
the new shape restored from the same redistributed snapshot, because the
re-sharding only moves bytes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigError, RankFailureError, SimulationError
from repro.grid.shapes import TesseractShape
from repro.sim.faults import FaultPlan

__all__ = [
    "ResilienceConfig",
    "SnapshotStore",
    "RecoveryRecord",
    "ReshapeRecord",
    "ElasticPolicy",
    "ElasticController",
    "ElasticInterrupt",
    "Capacity",
    "ResilientRun",
    "redistribute_payloads",
    "train_resilient",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Controls snapshot cadence and restart budget.

    Attributes:
        snapshot_every: deposit a snapshot every this many optimizer steps.
        max_restarts: how many crashes to survive before re-raising.
    """

    snapshot_every: int = 1
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ConfigError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.max_restarts < 0:
            raise ConfigError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed recovery, appended to ``TrainHistory.recoveries``."""

    attempt: int          # 1-based restart attempt number
    failed_rank: int      # rank killed by the injected fault
    crash_time: float     # virtual time of the crash (seconds)
    resume_step: int      # snapshot step resumed from (0 = from scratch)
    lost_steps: int       # steps of work discarded by the rollback
    latency_s: float      # wall seconds from failure detection to restore


@dataclass(frozen=True)
class ReshapeRecord:
    """One elastic grid resize performed by :func:`train_resilient`."""

    attempt: int                    # restart attempt that triggered it
    lost_ranks: tuple[int, ...]     # ranks lost in that attempt (node-expanded)
    old_world: int
    new_world: int
    old_shape: tuple[int, int] | None  # (q, d) before, None if unknown
    new_shape: tuple[int, int]         # (q, d) after
    resume_step: int                # snapshot step carried across (0 = scratch)
    #: why the grid resized: "shrink" (crash-forced), "grow" (repair or
    #: spare arrival reclaimed capacity) or "quarantine" (voluntary
    #: straggler eviction)
    reason: str = "shrink"
    #: for grows: cumulative virtual seconds between the availability
    #: event that unlocked this shape and the snapshot boundary that
    #: applied it — the capacity-reclaim lag the nightly gate watches
    reclaim_delay_s: float = 0.0


@dataclass(frozen=True)
class ElasticPolicy:
    """How to re-factorize the surviving world after permanent rank loss.

    Without a policy, :func:`train_resilient` treats every crash as
    repairable: the next attempt gets a full-size engine.  With one, the
    ranks reported by :meth:`Engine.lost_ranks
    <repro.sim.engine.Engine.lost_ranks>` are *gone* — their hardware does
    not come back.  As long as cumulative losses fit within ``spares``,
    restarts keep the original world size (live rank replacement from the
    standby pool); beyond that the world shrinks to the best ``[q, q, d]``
    shape that fits the survivors.

    Attributes:
        spares: standby replacement ranks available for same-shape restarts.
        min_world: below this many surviving ranks, give up (re-raise).
        allowed_q: optional whitelist of grid sizes ``q`` the model divides
            evenly over (e.g. hidden/nheads divisibility); ``None`` allows
            any q.
        min_steps_between_reshapes: hysteresis for *voluntary* reshapes
            (grow-back, quarantine): after a reshape resumed from step S,
            the controller stays quiet until snapshot boundary
            ``S + min_steps_between_reshapes`` — so repair/crash
            oscillation never thrashes the grid.  Crash-forced shrinks
            ignore it (there is no choice).
        quarantine_factor: evict a rank's node when its accumulated
            local-kernel seconds exceed this multiple of the fleet
            minimum (checked at snapshot boundaries, real mode only).
            ``None`` disables straggler quarantine.
    """

    spares: int = 0
    min_world: int = 1
    allowed_q: tuple[int, ...] | None = None
    min_steps_between_reshapes: int = 0
    quarantine_factor: float | None = None

    def __post_init__(self) -> None:
        if self.spares < 0:
            raise ConfigError(f"spares must be >= 0, got {self.spares}")
        if self.min_world < 1:
            raise ConfigError(
                f"min_world must be >= 1, got {self.min_world}"
            )
        if self.min_steps_between_reshapes < 0:
            raise ConfigError(
                f"min_steps_between_reshapes must be >= 0, got "
                f"{self.min_steps_between_reshapes}"
            )
        if self.quarantine_factor is not None and not self.quarantine_factor > 1:
            raise ConfigError(
                f"quarantine_factor must be > 1, got {self.quarantine_factor}"
            )

    def choose_shape(self, available: int) -> TesseractShape:
        """The largest-``p`` ``[q, q, d]`` shape fitting ``available`` ranks.

        Maximizes ``p = d * q**2`` subject to ``1 <= d <= q`` (paper §3.1)
        and the ``allowed_q`` whitelist; ties on ``p`` prefer larger ``d``
        — the deeper arrangement has the lower asymptotic communication
        cost (§3.3), which is the whole point of the 2.5-D factorization.
        """
        best: tuple[tuple[int, int], TesseractShape] | None = None
        q = 1
        while q * q <= available:
            if self.allowed_q is None or q in self.allowed_q:
                for d in range(1, q + 1):
                    p = d * q * q
                    if p > available:
                        break
                    key = (p, d)
                    if best is None or key > best[0]:
                        best = (key, TesseractShape(q=q, d=d))
            q += 1
        if best is None:
            raise SimulationError(
                f"no [q, q, d] shape fits {available} surviving rank(s) "
                f"with allowed_q={self.allowed_q}"
            )
        return best[1]


class ElasticInterrupt(Exception):
    """A voluntary, snapshot-clean stop of one training attempt.

    Raised by :class:`ElasticController` on **every** rank at the same
    snapshot boundary (the decision follows a world barrier, so each
    rank's clock reads the same instant and each makes the identical
    local choice).  Because the snapshot deposits at that boundary all
    precede the barrier, the step is complete on every rank: the
    orchestrator in :func:`train_resilient` resumes from exactly
    ``step`` with zero lost work.  ``reason`` is ``"grow"`` (repaired or
    new capacity admits a larger shape) or ``"quarantine"`` (the nodes
    of ``slow_ranks`` leave the grid).
    """

    def __init__(self, step: int, now: float, reason: str, slow_ranks=()):
        super().__init__(f"elastic {reason} at step {step} (t={now:g})")
        self.step = step
        self.now = now
        self.reason = reason
        self.slow_ranks = tuple(slow_ranks)


class ElasticController:
    """Snapshot-boundary consensus for voluntary grid reshapes.

    ``train_classifier`` calls :meth:`check` immediately after each
    snapshot deposit.  The check opens with a world ``barrier`` (zero
    bytes, zero priced traffic — per-rank comm volumes are untouched),
    which synchronizes every member's virtual clock to the same instant
    and guarantees all deposits for the step have landed.  After the
    barrier each rank evaluates the same pure predicates:

    * **grow**: the cumulative virtual time (``base_time`` — the summed
      makespans of earlier attempts — plus this attempt's clock) has
      passed ``wake_at``, the first availability event that admits a
      strictly larger ``p = d*q**2`` shape;
    * **quarantine**: an all-gather of per-rank ``compute_seconds``
      (local-kernel time, immune to the clock-dragging of collectives)
      shows some rank above ``quarantine_factor`` times the minimum.

    Both respect the hysteresis floor ``min_step``.  Since the inputs are
    identical on every rank, every rank raises the same interrupt at the
    same step — deterministically, on both scheduler backends.
    """

    def __init__(self, *, base_time: float = 0.0, wake_at: float | None = None,
                 min_step: int = 0, quarantine_factor: float | None = None):
        self.base_time = base_time
        self.wake_at = wake_at
        self.min_step = min_step
        self.quarantine_factor = quarantine_factor

    def check(self, ctx, step: int) -> None:
        """Raise an :class:`ElasticInterrupt` when a reshape is due."""
        want_grow = self.wake_at is not None
        want_quarantine = (
            self.quarantine_factor is not None and not ctx.symbolic
        )
        if not want_grow and not want_quarantine:
            return
        comm = None
        if ctx.nranks > 1:
            from repro.comm.communicator import Communicator

            comm = Communicator(ctx, range(ctx.nranks))
            comm.barrier("elastic_ctl")  # clocks now identical on all ranks
        if want_grow and step >= self.min_step \
                and self.base_time + ctx.now >= self.wake_at:
            raise ElasticInterrupt(step, ctx.now, "grow")
        if want_quarantine and comm is not None and step >= self.min_step:
            from repro.varray.varray import VArray

            arr = VArray.from_numpy(
                np.asarray([ctx.compute_seconds], dtype=np.float64)
            )
            gathered = comm.all_gather(arr, tag="elastic_health")
            busy = [float(g.numpy()[0]) for g in gathered]
            floor = min(busy)
            if floor > 0.0:
                slow = tuple(
                    r for r, b in enumerate(busy)
                    if b > self.quarantine_factor * floor
                )
                if slow:
                    raise ElasticInterrupt(step, ctx.now, "quarantine", slow)


class SnapshotStore:
    """Thread-safe in-memory snapshot depot shared across restart attempts.

    Keyed ``step -> rank -> payload``; a step is *complete* (restorable)
    only when every rank has deposited — and all deposits carry the same
    *restart generation* (bumped by :meth:`begin_generation` at each
    restart).  Without the generation tag, a crash during recovery can
    interleave attempt-N re-deposits over attempt-(N-1) leftovers at the
    same step: the step then has one payload per rank but divergent
    per-rank contents (the new wave's histories carry a
    ``RecoveryRecord`` the old wave's lack), and restoring it would break
    the per-rank-identical-history invariant.  Mixed steps are simply not
    restorable; a second recovery falls back to the last uniform one.

    The store lives outside any engine, so it survives the engine
    teardown that a rank failure causes.
    """

    def __init__(self, keep: int = 4):
        if keep < 1:
            raise ConfigError(f"keep must be >= 1, got {keep}")
        self._lock = threading.Lock()
        #: step -> rank -> (generation, payload)
        self._snaps: dict[int, dict[int, tuple[int, dict]]] = {}
        self._keep = keep
        self._generation = 0
        self._max_step_seen = 0
        # Set by train_resilient after a caught failure; read (not cleared)
        # by every rank during restore so each history records the recovery.
        self.pending_recovery: dict | None = None

    @staticmethod
    def _uniform(by_rank: dict[int, tuple[int, dict]]) -> bool:
        """True when every deposit at a step shares one generation."""
        return len({g for g, _ in by_rank.values()}) == 1

    @property
    def generation(self) -> int:
        """The restart generation new deposits are tagged with."""
        with self._lock:
            return self._generation

    def begin_generation(self) -> int:
        """Start a new restart generation; returns the new tag.

        Called by :func:`train_resilient` before every restart attempt,
        so the attempt's re-deposits can never complete a step together
        with a previous attempt's leftovers.
        """
        with self._lock:
            self._generation += 1
            return self._generation

    def save(self, step: int, rank: int, payload: dict) -> None:
        with self._lock:
            self._snaps.setdefault(step, {})[rank] = (
                self._generation, payload,
            )
            # Bound memory: drop old steps once newer *complete* ones exist.
            nranks = max(len(by_rank) for by_rank in self._snaps.values())
            complete = sorted(
                s for s, by_rank in self._snaps.items()
                if len(by_rank) >= nranks and self._uniform(by_rank)
            )
            for stale in complete[: -self._keep]:
                del self._snaps[stale]

    def note_progress(self, step: int) -> None:
        """Record the furthest step any rank started (for lost-work stats)."""
        with self._lock:
            if step > self._max_step_seen:
                self._max_step_seen = step

    @property
    def max_step_seen(self) -> int:
        with self._lock:
            return self._max_step_seen

    def latest_step(self, nranks: int) -> int | None:
        """Greatest step where all ``nranks`` ranks deposited in one
        generation."""
        with self._lock:
            steps = [
                s for s, by_rank in self._snaps.items()
                if len(by_rank) == nranks and self._uniform(by_rank)
            ]
            return max(steps, default=None)

    def load(self, step: int, rank: int) -> dict:
        with self._lock:
            return self._snaps[step][rank][1]

    def reset_for_world(self, step: int, payloads: dict[int, dict]) -> None:
        """Replace the store's contents with one seeded complete step.

        Used by elastic recovery after re-sharding state for a new world
        size: the old world's snapshots cannot be restored at the new
        shape, so they are dropped and the redistributed ``payloads``
        (new rank -> payload) become the single restorable step,
        deposited under the current generation.  An empty ``payloads``
        just clears the store (restart from scratch at the new world).
        """
        with self._lock:
            if not payloads:
                self._snaps = {}
                return
            self._snaps = {
                step: {
                    r: (self._generation, p) for r, p in payloads.items()
                }
            }


# --- elastic re-sharding ------------------------------------------------------
#
# A Tesseract model's parameters use three layouts (see
# repro.nn.parameter.PARAM_LAYOUTS):
#
#   full        every rank holds the whole tensor (take any one copy);
#   grid_block  rank (i, j, k) holds global[i-block, j-block] of each of the
#               weight's `parts` fused sub-tensors, concatenated along the
#               output axis, replicated over depth k;
#   col_slice   rank (i, j, k) holds the j-th 1/q slice of the last axis,
#               replicated over i and k.
#
# Reassembly inverts the exact slicing the layers perform at construction
# (parallel/common.py: block_2d / fused_block_2d / last-axis slicing), and
# re-slicing replays it for the new q.  Both are pure numpy indexing and
# concatenation — no arithmetic — so the roundtrip is lossless and the
# redistributed state is byte-identical to what a fresh model at the new
# shape would load from the same global tensors.


def _assemble_global(
    state_by_rank: dict[int, dict[str, np.ndarray]],
    coords_by_rank: dict[int, tuple[int, int, int]],
    layouts: dict[str, str],
    parts_of: dict[str, int],
    q: int,
) -> dict[str, list[np.ndarray]]:
    """Merge per-rank local shards into global tensors.

    Returns ``name -> [per-part global]`` (one entry unless the weight is
    a fused ``grid_block`` projection, which is de-fused so each part can
    be re-blocked independently at a different q).
    """
    by_coords = {coords_by_rank[r]: state_by_rank[r] for r in state_by_rank}
    out: dict[str, list[np.ndarray]] = {}
    sample = state_by_rank[next(iter(state_by_rank))]
    for name in sample:
        layout = layouts[name]
        parts = parts_of.get(name, 1)
        if layout == "full":
            out[name] = [by_coords[(0, 0, 0)][name]]
        elif layout == "grid_block":
            part_globals = []
            for m in range(parts):
                rows = []
                for i in range(q):
                    row = []
                    for j in range(q):
                        blk = by_coords[(i, j, 0)][name]
                        row.append(np.split(blk, parts, axis=1)[m])
                    rows.append(np.concatenate(row, axis=1))
                part_globals.append(np.concatenate(rows, axis=0))
            out[name] = part_globals
        elif layout == "col_slice":
            cols = [by_coords[(0, j, 0)][name] for j in range(q)]
            out[name] = [np.concatenate(cols, axis=-1)]
        else:
            raise SimulationError(
                f"cannot elastically re-shard parameter {name!r} with "
                f"layout {layout!r} (supported: full, grid_block, col_slice)"
            )
    return out


def _reslice_local(
    globals_: dict[str, list[np.ndarray]],
    layouts: dict[str, str],
    q: int,
    i: int,
    j: int,
) -> dict[str, np.ndarray]:
    """One new rank's local shards from the global tensors (coords i, j;
    depth k never enters — grid_block and col_slice replicate over it)."""
    out: dict[str, np.ndarray] = {}
    for name, part_globals in globals_.items():
        layout = layouts[name]
        if layout == "full":
            out[name] = part_globals[0]
        elif layout == "grid_block":
            blocks = []
            for g in part_globals:
                r = g.shape[0] // q
                c = g.shape[1] // q
                blocks.append(g[i * r:(i + 1) * r, j * c:(j + 1) * c])
            out[name] = np.ascontiguousarray(
                np.concatenate(blocks, axis=1) if len(blocks) > 1
                else blocks[0]
            )
        else:  # col_slice (validated during assembly)
            g = part_globals[0]
            c = g.shape[-1] // q
            out[name] = np.ascontiguousarray(g[..., j * c:(j + 1) * c])
    return out


def redistribute_payloads(
    payloads: dict[int, dict], new_q: int, new_d: int
) -> dict[int, dict]:
    """Re-shard one complete snapshot step for a new Tesseract shape.

    ``payloads`` maps old rank -> the payload deposited by the trainer
    (which carries the ``layouts``/``parts``/``coords``/``shape`` extras
    recorded for parallel models).  Returns new rank -> payload for a
    ``[new_q, new_q, new_d]`` world: model shards and position-keyed
    optimizer moments are reassembled to global tensors and re-sliced for
    the new grid; step counters, histories and epoch counters carry over
    unchanged (they are identical on every rank by construction).
    """
    sample = payloads[0]
    for key in ("layouts", "parts", "coords", "shape"):
        if key not in sample:
            raise SimulationError(
                f"snapshot payload lacks {key!r}: elastic reshape needs the "
                f"layout extras the trainer records for parallel models"
            )
    layouts: dict[str, str] = sample["layouts"]
    parts_of: dict[str, int] = sample["parts"]
    old_q = sample["shape"][0]
    coords = {r: tuple(p["coords"]) for r, p in payloads.items()}
    names = list(sample["model"].keys())

    g_model = _assemble_global(
        {r: p["model"] for r, p in payloads.items()},
        coords, layouts, parts_of, old_q,
    )
    # Optimizer slots are keyed by parameter *position*; positions map to
    # the same qualified name on every shape (parameters() order depends
    # only on the module tree), so each slot re-shards with its
    # parameter's layout.
    slot_keys = sorted(sample["opt"]["slots"])
    g_slots: dict[Any, dict[str, dict[str, list[np.ndarray]]]] = {}
    for pos in slot_keys:
        pname = names[int(pos)]
        g_slots[pos] = {
            mv: _assemble_global(
                {r: {pname: p["opt"]["slots"][pos][mv]}
                 for r, p in payloads.items()},
                coords, layouts, parts_of, old_q,
            )
            for mv in ("m", "v")
        }

    new_shape = TesseractShape(q=new_q, d=new_d)
    out: dict[int, dict] = {}
    for nr in range(new_shape.p):
        i, j, _k = new_shape.coords(nr)
        slots = {
            pos: {
                mv: _reslice_local(
                    g_slots[pos][mv], layouts, new_q, i, j
                )[names[int(pos)]]
                for mv in ("m", "v")
            }
            for pos in slot_keys
        }
        out[nr] = {
            "model": _reslice_local(g_model, layouts, new_q, i, j),
            "opt": {
                "t": sample["opt"]["t"],
                "lr": sample["opt"]["lr"],
                "slots": slots,
            },
            "history": sample["history"].clone(),
            "epoch": sample["epoch"],
            "epoch_correct": sample["epoch_correct"],
            "epoch_seen": sample["epoch_seen"],
            "layouts": dict(layouts),
            "parts": dict(parts_of),
            "coords": (i, j, _k),
            "shape": (new_q, new_d),
        }
    return out


@dataclass
class Capacity:
    """Usable ranks over the cumulative virtual timeline of an elastic run.

    Capacity starts at the launch-0 world plus the policy's spares.
    Permanent losses take ranks away for good; a crashed node with a
    scheduled :class:`~repro.sim.faults.NodeRepair` is away until its
    repair, a quarantined node until its slowdowns' ``until`` (forever if
    any of them is persistent); ``SpareArrival`` events add ranks.
    Capacity therefore only grows between two losses, so the first
    ``schedule`` event that admits a larger shape is the earliest one.
    """

    policy: ElasticPolicy
    world0: int                       # launch-0 world: schedule node ids
    schedule: FaultPlan = field(default_factory=FaultPlan)
    hardware_lost: int = 0            # ranks that never come back
    lost_nodes: dict[int, int] = field(default_factory=dict)
    #: node -> (rank count, readmit cumulative time or None = never)
    quarantined: dict[int, tuple[int, float | None]] = field(
        default_factory=dict)

    def available(self, t: float) -> int:
        """Usable rank count at cumulative virtual time ``t``."""
        n = self.world0 + self.policy.spares - self.hardware_lost
        n += self.schedule.arrived_spares(t)
        n -= sum(cnt for node, cnt in self.lost_nodes.items()
                 if self.schedule.repair_time(node) > t)
        n -= sum(cnt for cnt, readmit in self.quarantined.values()
                 if readmit is None or readmit > t)
        return n

    def _event_times(self) -> list[float]:
        """Every capacity-returning event on the cumulative timeline."""
        times = {sa.at for sa in self.schedule.spare_arrivals}
        times.update(self.schedule.repair_time(n) for n in self.lost_nodes)
        times.update(r for _, r in self.quarantined.values() if r is not None)
        return sorted(times)

    def wake_at(self, world: int, t: float) -> float | None:
        """When a grid larger than ``world`` ranks is due, seen at time
        ``t``: the first event whose capacity admits a larger
        ``p = d*q**2``, or ``t`` if that event is already past; ``None``
        if no event does."""
        for e in self._event_times():
            if self.policy.choose_shape(self.available(e)).p > world:
                return max(e, t)
        return None

    def unlock_time(self, p: int, t: float) -> float:
        """Earliest event by ``t`` whose capacity admits a shape of ``p``
        ranks (``t`` itself if none did)."""
        for e in self._event_times():
            if e <= t and self.policy.choose_shape(self.available(e)).p >= p:
                return e
        return t

    def lose(self, topology, lost: tuple[int, ...], fired_nodes,
             world: int) -> None:
        """Take a crash's ``lost`` ranks (node-expanded).

        A fired node with a scheduled repair is only away until it, but
        only at the launch-0 ``world``: the schedule's node ids refer to
        that topology, so losses at a reshaped world are permanent.
        """
        repairable = 0
        if world == self.world0:
            for node in fired_nodes:
                if (self.schedule.repair_time(node) is not None
                        and node not in self.lost_nodes):
                    self.lost_nodes[node] = len(topology.node_ranks(node))
                    repairable += self.lost_nodes[node]
        self.hardware_lost += len(lost) - repairable

    def quarantine(self, topology, slow_ranks: tuple[int, ...]) -> None:
        """Take the nodes of ``slow_ranks`` out until their slowdowns end."""
        for r in slow_ranks:
            node = topology.node_of(r)
            if node in self.quarantined:
                continue
            members = topology.node_ranks(node)
            untils = [s.until for s in self.schedule.slowdowns
                      if s.rank in members]
            readmit = None
            if untils and all(u is not None for u in untils):
                readmit = max(untils)
            self.quarantined[node] = (len(members), readmit)


def _reshape(store: SnapshotStore, world: int, shape: TesseractShape | None,
             new_shape: TesseractShape, **why) -> ReshapeRecord:
    """Re-shard the last complete snapshot of the ``world``-rank grid at
    ``shape`` (``None``: the caller's original one) for ``new_shape``,
    make it the store's only restorable step, and record the resize
    (``why`` holds the remaining :class:`ReshapeRecord` fields)."""
    old_qd = (shape.q, shape.d) if shape is not None else None
    step = store.latest_step(world)
    old = {} if step is None else {r: store.load(step, r) for r in range(world)}
    if old_qd is None and "shape" in old.get(0, {}):
        old_qd = tuple(old[0]["shape"])
    if old and old[0].get("model") is not None:
        store.reset_for_world(
            step, redistribute_payloads(old, new_shape.q, new_shape.d))
    else:
        step = 0
        store.reset_for_world(0, {})
    return ReshapeRecord(old_world=world, new_world=new_shape.p,
                         old_shape=old_qd,
                         new_shape=(new_shape.q, new_shape.d),
                         resume_step=step, **why)


@dataclass
class ResilientRun:
    """Result of :func:`train_resilient`."""

    histories: list           # per-rank TrainHistory from the final attempt
    engine: Any               # the engine of the successful attempt
    recoveries: list[RecoveryRecord] = field(default_factory=list)
    attempts: int = 0         # number of restarts performed (0 = no fault)
    attempt_times: list[float] = field(default_factory=list)
    # virtual makespan of every attempt, failed ones included
    reshapes: list[ReshapeRecord] = field(default_factory=list)
    final_world: int = 0      # world size of the successful attempt
    #: how each attempt ended, aligned with attempt_times: "crash"
    #: (rank failure), "grow"/"quarantine" (voluntary interrupt), "ok"
    attempt_kinds: list[str] = field(default_factory=list)

    @property
    def history(self):
        """Rank 0's history (all ranks log identical global metrics)."""
        return self.histories[0]

    @property
    def total_virtual_time(self) -> float:
        return sum(self.attempt_times)

    @property
    def crashed_time(self) -> float:
        """Virtual seconds burned in attempts that ended in a crash."""
        return sum(
            t for t, k in zip(self.attempt_times, self.attempt_kinds)
            if k == "crash"
        )

    @property
    def grows(self) -> int:
        return sum(1 for r in self.reshapes if r.reason == "grow")

    @property
    def quarantines(self) -> int:
        return sum(1 for r in self.reshapes if r.reason == "quarantine")

    @property
    def time_to_reclaim_s(self) -> float:
        """Summed lag between capacity unlocking and the grid growing."""
        return sum(
            r.reclaim_delay_s for r in self.reshapes if r.reason == "grow"
        )


def train_resilient(
    engine_factory: Callable[[int, int | None], Any],
    setup: Callable[..., tuple],
    dataset,
    epochs: int,
    batch_size: int,
    *,
    resilience: ResilienceConfig | None = None,
    schedule=None,
    eval_every: int = 1,
    elastic: ElasticPolicy | None = None,
    availability: FaultPlan | None = None,
) -> ResilientRun:
    """Run ``train_classifier`` under fault injection with restart recovery.

    Args:
        engine_factory: ``(launch, world) -> Engine``.  ``launch`` counts
            every engine build — crash restarts and voluntary reshape
            relaunches alike.  Launch 0 is the initial run (typically
            carrying the :class:`~repro.sim.faults.FaultPlan`); later
            launches model the repaired cluster and are usually built
            without the already-fired crash.  ``world`` is ``None`` at
            launch 0 ("your default size") and afterwards the rank count
            the engine must have.  Without ``elastic`` every relaunch is
            a crash restart at the same world.
        setup: ``(rank_ctx, shape) -> (model, optimizer,
            parallel_context_or_None)``, called inside each engine run to
            rebuild the (deterministically initialized) model before the
            snapshot restore overwrites it.  ``shape`` is ``None`` for the
            caller's original arrangement (always, without ``elastic``)
            or the :class:`~repro.grid.shapes.TesseractShape` to build
            after a resize.
        elastic: treat fired crashes as permanent hardware loss and
            shrink the grid when the survivors no longer fit the current
            shape; with ``quarantine_factor`` set, also evict straggler
            nodes voluntarily (see :class:`ElasticPolicy`).
        availability: the upward direction of the fault plan —
            :class:`~repro.sim.faults.NodeRepair` and
            :class:`~repro.sim.faults.SpareArrival` events (cumulative
            virtual time) that return capacity.  At each snapshot
            boundary the installed :class:`ElasticController` grows the
            grid back to the best larger ``[q, q, d]`` shape once an
            event admits one.  Requires ``elastic``.  Node ids refer to
            the launch-0 topology, so only crashes fired at the original
            world size are repairable; losses at a reshaped world are
            permanent.
    """
    from repro.train.trainer import train_classifier  # avoid import cycle

    if availability is not None and elastic is None:
        raise ConfigError(
            "availability schedules (NodeRepair/SpareArrival) require an "
            "ElasticPolicy — pass elastic= alongside availability="
        )

    cfg = resilience if resilience is not None else ResilienceConfig()
    store = SnapshotStore()
    run = ResilientRun(histories=[], engine=None)
    capacity: Capacity | None = None  # elastic only, built at launch 0
    shape: TesseractShape | None = None  # None = caller's original shape
    world: int | None = None             # known once launch 0 is built
    while True:
        # every launch ends in exactly one recorded attempt
        engine = engine_factory(len(run.attempt_times), world)
        world = engine.nranks
        controller = None
        if elastic is not None:
            if capacity is None:
                capacity = Capacity(elastic, world, availability or FaultPlan())
            tnow = run.total_virtual_time
            last = run.reshapes[-1].resume_step if run.reshapes else 0
            controller = ElasticController(
                base_time=tnow,
                wake_at=capacity.wake_at(world, tnow),
                min_step=last + elastic.min_steps_between_reshapes,
                quarantine_factor=elastic.quarantine_factor,
            )

        def program(rank_ctx):
            model, optimizer, pc = setup(rank_ctx, shape)
            return train_classifier(
                model,
                dataset,
                optimizer,
                epochs,
                batch_size,
                pc=pc,
                schedule=schedule,
                eval_every=eval_every,
                resilience=cfg,
                snapshot_store=store,
                controller=controller,
            )

        try:
            histories = engine.run(program)
        except (RankFailureError, ElasticInterrupt) as exc:
            crash = isinstance(exc, RankFailureError)
            run.attempt_times.append(engine.max_time())
            run.attempt_kinds.append("crash" if crash else exc.reason)
            if crash:
                run.attempts += 1
                if run.attempts > cfg.max_restarts:
                    raise
                store.pending_recovery = {
                    "attempt": run.attempts,
                    "failed_rank": exc.rank,
                    "crash_time": exc.t,
                    "t_detect": time.perf_counter(),
                }
            else:
                # Voluntary stop: every rank raised at the same snapshot
                # boundary, so the step is complete — no recovery record.
                if sum(k != "crash" for k in run.attempt_kinds) > 64:
                    raise SimulationError(
                        "elastic reshape thrash: more than 64 voluntary "
                        "reshapes — check the availability schedule and "
                        "min_steps_between_reshapes"
                    )
                store.pending_recovery = None
            # New restart generation: the relaunch's re-deposits can never
            # complete a snapshot step together with leftovers from the
            # crashed attempt (the crash-during-recovery hazard).
            store.begin_generation()
            if capacity is None:
                continue
            if crash:
                lost = tuple(sorted(engine.lost_ranks()))
                capacity.lose(engine.topology, lost, engine.fired()[1], world)
            else:
                lost = exc.slow_ranks
                capacity.quarantine(engine.topology, lost)
            tnow = run.total_virtual_time
            available = capacity.available(tnow)
            if available < elastic.min_world:
                if crash:
                    raise
                raise SimulationError(
                    f"straggler quarantine would drop the world to "
                    f"{available} rank(s), below min_world="
                    f"{elastic.min_world}"
                )
            new_shape = elastic.choose_shape(available)
            if new_shape.p != world:
                reason = exc.reason if not crash else (
                    "grow" if new_shape.p > world else "shrink")
                delay = 0.0
                if reason == "grow":
                    delay = max(
                        0.0, tnow - capacity.unlock_time(new_shape.p, tnow))
                run.reshapes.append(_reshape(
                    store, world, shape, new_shape, attempt=run.attempts,
                    lost_ranks=lost, reason=reason, reclaim_delay_s=delay,
                ))
                shape, world = new_shape, new_shape.p
            continue
        run.attempt_times.append(engine.max_time())
        run.attempt_kinds.append("ok")
        run.histories, run.engine, run.final_world = histories, engine, world
        run.recoveries = list(histories[0].recoveries)
        return run
