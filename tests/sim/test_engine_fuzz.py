"""Schedule fuzzer for the SPMD engine's rendezvous/scheduling protocol.

The fused group-channel layer (see ``Engine.fused_collective``) moved the
engine's correctness burden from per-call locking to a scheduling protocol:
generation counters, arrival counting, one-shot wakeup broadcasts, batch
windows.  This suite pins that protocol down by brute force: hundreds of
seeded random schedules of collectives, batch windows, p2p messages and
skewed compute over random *overlapping* groups, each executed twice, with
three invariants asserted per seed:

(a) **determinism** — per-rank results, per-rank event streams and final
    clocks are bit-identical across reruns of the same seed (thread
    interleaving must never leak into simulated state);
(b) **no deadlock** — every schedule is deadlock-free by construction
    (matching sends precede their recvs, all members of a collective issue
    it at the same schedule index), so completing the run at all proves
    the engine never wedges;
(c) **accounting** — ``Trace.comm_volume`` (total and per rank) equals an
    expectation computed independently from the schedule via the per-rank
    convention table in :mod:`repro.comm.communicator`;
(d) **backend parity** — every seed is replayed under each non-threaded
    scheduler backend (``repro.sim.schedulers.available_backends``), and
    results, per-rank event streams and virtual clocks must be
    bit-identical to the threaded reference run.  Backends change when
    ranks run, never what they compute (reductions apply in group-rank
    order, completion times are functions of the full arrival map), so
    *any* cross-backend drift is an engine bug.

Deadlock-free-by-construction argument: every rank walks the same global
schedule in order, skipping ops it is not part of.  Consider the rank with
the minimal current index.  A collective at that index only needs members
at the *same* index (all other ranks are at a later one and have already
deposited); a recv's matching send sits at a strictly earlier index, which
every rank — in particular the sender — has already passed.  Either way
the minimal rank can always make progress.
"""

from __future__ import annotations

import numpy as np
import pytest

import re

from repro.comm.communicator import Communicator
from repro.errors import ReproError
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, NodeCrash, RankCrash
from repro.sim.schedulers import available_backends

from repro.varray.varray import VArray

#: backends every seed is replayed under and compared with the threaded
#: reference run
ALT_BACKENDS = tuple(b for b in available_backends() if b != "threaded")

#: real-mode payload dtypes the schedules mix freely
DTYPES = ("float32", "float64", "int32")


def _itemsize(spec: dict) -> int:
    return np.dtype(spec.get("dtype", "float32")).itemsize

#: collectives a batch window may queue (all of them, per communicator.py)
_FUSABLE = (
    "barrier", "all_reduce", "broadcast", "reduce", "all_gather",
    "reduce_scatter",
)
_KINDS = _FUSABLE + ("scatter", "gather", "all_to_all")

N_SEEDS = 220


# --------------------------------------------------------------------------
# Schedule generation
# --------------------------------------------------------------------------


def _make_groups(rng: np.random.Generator, nranks: int) -> list[tuple[int, ...]]:
    """A few random, deliberately overlapping rank groups."""
    groups = [tuple(range(nranks))]  # world group, always present
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(2, nranks + 1))
        members = rng.choice(nranks, size=size, replace=False)
        groups.append(tuple(int(r) for r in sorted(members)))
    return groups


def _rand_coll(rng: np.random.Generator, granks: tuple[int, ...],
               fusable_only: bool = False) -> dict:
    kinds = _FUSABLE if fusable_only else _KINDS
    kind = str(rng.choice(kinds))
    nelem = int(rng.integers(1, 9))
    root = int(rng.integers(0, len(granks)))
    return {"op": "coll", "granks": granks, "kind": kind, "nelem": nelem,
            "root": root, "dtype": str(rng.choice(DTYPES))}


def _make_schedule(rng: np.random.Generator, nranks: int) -> list[dict]:
    """A random SPMD schedule: every rank executes the ops in list order."""
    groups = _make_groups(rng, nranks)
    schedule: list[dict] = []
    for _ in range(int(rng.integers(8, 18))):
        roll = rng.random()
        granks = groups[int(rng.integers(0, len(groups)))]
        if roll < 0.55:
            schedule.append(_rand_coll(rng, granks))
        elif roll < 0.75 and len(granks) >= 2:
            # a fused batch window of 2..4 collectives on one group
            ops = [_rand_coll(rng, granks, fusable_only=True)
                   for _ in range(int(rng.integers(2, 5)))]
            schedule.append({"op": "batch", "granks": granks, "ops": ops})
        elif roll < 0.82 and len(granks) >= 2:
            # a sendrecv chain: every group member shifts to its neighbor
            schedule.append({"op": "ring", "granks": granks,
                             "nelem": int(rng.integers(1, 9)),
                             "dtype": str(rng.choice(DTYPES))})
        elif roll < 0.92:
            # rank-skewed local compute (stresses arrival-order diversity)
            flops = [float(f) for f in rng.integers(1, 50, size=nranks) * 1e7]
            schedule.append({"op": "compute", "flops": flops})
        else:
            src, dst = rng.choice(nranks, size=2, replace=False)
            schedule.append({"op": "p2p", "src": int(src), "dst": int(dst),
                             "nelem": int(rng.integers(1, 9)),
                             "dtype": str(rng.choice(DTYPES))})
    return schedule


# --------------------------------------------------------------------------
# Independent volume expectation (the convention table, re-derived)
# --------------------------------------------------------------------------


def _coll_volume(spec: dict, per_rank: dict[int, float]) -> None:
    granks = spec["granks"]
    g = len(granks)
    n = spec["nelem"] * _itemsize(spec)  # buffer / per-chunk bytes
    if g == 1:
        return  # size-1 groups shortcut before any rendezvous
    kind = spec["kind"]
    root = granks[spec["root"]]
    if kind == "barrier":
        pass
    elif kind in ("all_reduce", "broadcast", "reduce"):
        for r in granks:
            per_rank[r] += n
    elif kind in ("all_gather", "all_to_all"):
        for r in granks:
            per_rank[r] += (g - 1) * n
    elif kind == "reduce_scatter":
        for r in granks:
            per_rank[r] += n
    elif kind in ("scatter", "gather"):
        for r in granks:
            per_rank[r] += (g - 1) * n if r == root else n
    else:  # pragma: no cover - schedule generator bug
        raise AssertionError(f"unpriced kind {kind}")


def _expected_volume(schedule: list[dict], nranks: int) -> dict[int, float]:
    per_rank = {r: 0.0 for r in range(nranks)}
    for spec in schedule:
        if spec["op"] == "coll":
            _coll_volume(spec, per_rank)
        elif spec["op"] == "batch":
            for sub in spec["ops"]:
                _coll_volume(sub, per_rank)
        elif spec["op"] == "p2p":
            n = spec["nelem"] * _itemsize(spec)
            per_rank[spec["src"]] += n  # send event
            per_rank[spec["dst"]] += n  # recv event
        elif spec["op"] == "ring":
            n = spec["nelem"] * _itemsize(spec)
            for r in spec["granks"]:
                per_rank[r] += 2 * n  # one send + one recv each
    return per_rank


# --------------------------------------------------------------------------
# Schedule execution (one rank's program)
# --------------------------------------------------------------------------


def _payload(spec: dict, rank: int) -> VArray:
    dtype = np.dtype(spec.get("dtype", "float32"))
    data = np.full(spec["nelem"], 0.25 * (rank + 1), dtype=dtype)
    return VArray.from_numpy(data)


def _chunks(spec: dict, rank: int, g: int) -> list[VArray]:
    dtype = np.dtype(spec.get("dtype", "float32"))
    return [
        VArray.from_numpy(
            np.full(spec["nelem"], 0.5 * (rank + 1) + j, dtype=dtype)
        )
        for j in range(g)
    ]


def _issue(comm: Communicator, spec: dict, rank: int):
    """Issue one collective; works identically inside a batch window."""
    kind, g, root = spec["kind"], len(spec["granks"]), spec["root"]
    if kind == "barrier":
        return comm.barrier()
    if kind == "all_reduce":
        return comm.all_reduce(_payload(spec, rank))
    if kind == "broadcast":
        arr = _payload(spec, rank) if comm.rank == root else None
        return comm.broadcast(arr, root=root)
    if kind == "reduce":
        return comm.reduce(_payload(spec, rank), root=root)
    if kind == "all_gather":
        return comm.all_gather(_payload(spec, rank))
    if kind == "reduce_scatter":
        return comm.reduce_scatter(_chunks(spec, rank, g))
    if kind == "scatter":
        chunks = _chunks(spec, rank, g) if comm.rank == root else None
        return comm.scatter(chunks, root=root)
    if kind == "gather":
        return comm.gather(_payload(spec, rank), root=root)
    if kind == "all_to_all":
        return comm.all_to_all(_chunks(spec, rank, g))
    raise AssertionError(f"unknown kind {kind}")  # pragma: no cover


def _digest(value) -> bytes:
    """Canonical bytes of a result (VArray, list of VArrays, or None)."""
    if value is None:
        return b"-"
    if isinstance(value, VArray):
        return value.numpy().tobytes()
    return b"|".join(_digest(v) for v in value)


def _run_schedule(schedule: list[dict]):
    def program(ctx):
        digests = []
        for spec in schedule:
            if spec["op"] == "compute":
                ctx.compute(flops=spec["flops"][ctx.rank])
            elif spec["op"] == "p2p":
                if ctx.rank == spec["src"]:
                    comm = Communicator(ctx, (spec["src"], spec["dst"]))
                    comm.send(_payload(spec, ctx.rank), dst=1)
                elif ctx.rank == spec["dst"]:
                    comm = Communicator(ctx, (spec["src"], spec["dst"]))
                    digests.append(_digest(comm.recv(src=0)))
            elif spec["op"] == "ring":
                if ctx.rank in spec["granks"]:
                    comm = Communicator(ctx, spec["granks"])
                    g = len(spec["granks"])
                    digests.append(_digest(comm.sendrecv(
                        _payload(spec, ctx.rank),
                        dst=(comm.rank + 1) % g,
                        src=(comm.rank - 1) % g,
                    )))
            elif spec["op"] == "coll":
                if ctx.rank in spec["granks"]:
                    comm = Communicator(ctx, spec["granks"])
                    digests.append(_digest(_issue(comm, spec, ctx.rank)))
            elif spec["op"] == "batch":
                if ctx.rank in spec["granks"]:
                    comm = Communicator(ctx, spec["granks"])
                    with comm.batch() as win:
                        handles = [_issue(comm, sub, ctx.rank)
                                   for sub in spec["ops"]]
                    assert len(win) == len(spec["ops"])
                    digests.extend(_digest(h.value) for h in handles)
        return b"&".join(digests), ctx.now

    return program


def _rank_events(engine: Engine, nranks: int):
    """Per-rank event streams in per-rank program order (canonical form)."""
    out = []
    for r in range(nranks):
        out.append([
            (type(e).__name__, getattr(e, "kind", getattr(e, "kinds", "")),
             getattr(e, "nbytes", 0.0), e.t_start, e.t_end)
            for e in engine.trace.events
            if getattr(e, "rank", None) == r and hasattr(e, "t_start")
        ])
    return out


# --------------------------------------------------------------------------
# The fuzz loop
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed_block", range(4))
def test_fuzz_schedules(seed_block):
    """~200 random schedules: determinism, liveness, exact accounting."""
    engines: dict[tuple[int, str], Engine] = {}
    block = N_SEEDS // 4
    for seed in range(seed_block * block, (seed_block + 1) * block):
        rng = np.random.default_rng(1000 + seed)
        nranks = int(rng.integers(2, 9))
        schedule = _make_schedule(rng, nranks)
        engine = engines.get((nranks, "threaded"))
        if engine is None:
            engine = engines[(nranks, "threaded")] = Engine(
                nranks=nranks, op_timeout=60.0)
        program = _run_schedule(schedule)

        engine.trace.clear()  # engines are reused across seeds
        results_a = engine.run(program)  # (b) completing at all = no deadlock
        events_a = _rank_events(engine, nranks)
        volume_a = [engine.trace.comm_volume(rank=r) for r in range(nranks)]

        # (c) accounting: trace volume == schedule-derived expectation
        expected = _expected_volume(schedule, nranks)
        for r in range(nranks):
            assert volume_a[r] == pytest.approx(expected[r]), (
                f"seed {seed}: rank {r} volume {volume_a[r]} != "
                f"expected {expected[r]}"
            )
        assert engine.trace.comm_volume() == pytest.approx(
            sum(expected.values())
        )

        # (a) determinism: rerun the same schedule, compare everything
        engine.trace.clear()
        results_b = engine.run(program)
        events_b = _rank_events(engine, nranks)
        assert results_a == results_b, f"seed {seed}: results diverged"
        assert events_a == events_b, f"seed {seed}: event streams diverged"

        # (d) backend parity: bit-identical results, event streams and
        # virtual clocks under the event backend
        for alt in ALT_BACKENDS:
            alt_engine = engines.get((nranks, alt))
            if alt_engine is None:
                alt_engine = engines[(nranks, alt)] = Engine(
                    nranks=nranks, op_timeout=60.0, backend=alt)
            alt_engine.trace.clear()
            results_c = alt_engine.run(program)
            events_c = _rank_events(alt_engine, nranks)
            assert results_c == results_a, (
                f"seed {seed}: {alt} results diverged from threaded"
            )
            assert events_c == events_a, (
                f"seed {seed}: {alt} event streams diverged from threaded"
            )

# --------------------------------------------------------------------------
# Fault-plan fuzz: identical seeds must reproduce identical failure traces
# --------------------------------------------------------------------------

N_FAULT_SEEDS = 24


@pytest.mark.parametrize("seed", range(N_FAULT_SEEDS))
def test_fuzz_fault_plans(seed):
    """Crash/transient faults under random schedules are bit-deterministic.

    The run either completes (crash scheduled past the program's end) or
    raises; either way two fresh engines given the same seed must produce
    the same outcome type and message, the same per-rank event streams,
    the same dead set and the same per-rank comm volumes.  When the run
    completes, the volumes must also equal the fault-free expectation —
    transient-send retries may never change accounted bytes.
    """
    rng = np.random.default_rng(9000 + seed)
    nranks = int(rng.integers(2, 7))
    schedule = _make_schedule(rng, nranks)
    crash_rank = int(rng.integers(0, nranks))
    crash_at = float(rng.uniform(0.0, 0.02))
    transient = float(rng.choice([0.0, 0.15]))
    plan = FaultPlan(
        seed=seed,
        crashes=(RankCrash(rank=crash_rank, at=crash_at),),
        transient_rate=transient,
    )
    program = _run_schedule(schedule)

    def run_once(backend="threaded"):
        engine = Engine(nranks=nranks, op_timeout=60.0, fault_plan=plan,
                        backend=backend)
        try:
            results = engine.run(program)
            outcome = ("ok", None)
            digest = [r[0] for r in results]
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
            digest = None
        events = _rank_events(engine, nranks)
        dead = sorted(engine._dead)
        vols = [engine.trace.comm_volume(rank=r) for r in range(nranks)]
        return outcome, digest, events, dead, vols

    first = run_once()
    second = run_once()
    assert first == second, f"seed {seed}: failure trace diverged"

    # Backend parity: a single-crash plan's whole failure trace — outcome
    # type and message, results, event streams, dead set, volumes — is a
    # function of program order and virtual time only, so it must be
    # bit-identical under the event backend too.
    for alt in ALT_BACKENDS:
        assert run_once(alt) == first, (
            f"seed {seed}: {alt} failure trace diverged from threaded"
        )

    outcome, _, _, dead, vols = first
    if outcome[0] == "ok":
        assert dead == [], f"seed {seed}: completed with dead ranks"
        expected = _expected_volume(schedule, nranks)
        for r in range(nranks):
            assert vols[r] == pytest.approx(expected[r]), (
                f"seed {seed}: retries changed rank {r} volume"
            )
    elif outcome[0] == "RankFailureError":
        assert crash_rank in dead, f"seed {seed}: wrong dead set {dead}"


# --------------------------------------------------------------------------
# Multi-crash x batch-window fuzz: several ranks dying mid-run must not
# wedge or desynchronize the fused window rendezvous
# --------------------------------------------------------------------------

N_MULTI_SEEDS = 16


def _make_window_schedule(rng: np.random.Generator, nranks: int) -> list[dict]:
    """A batch-window-heavy schedule: the worst case for crash cleanup.

    Fused windows hold several queued ops on one group generation, so a
    member dying between the queueing and the rendezvous exercises the
    window teardown paths that plain collectives never reach.
    """
    groups = _make_groups(rng, nranks)
    schedule: list[dict] = []
    for _ in range(int(rng.integers(8, 14))):
        granks = groups[int(rng.integers(0, len(groups)))]
        roll = rng.random()
        if roll < 0.6 and len(granks) >= 2:
            ops = [_rand_coll(rng, granks, fusable_only=True)
                   for _ in range(int(rng.integers(2, 6)))]
            schedule.append({"op": "batch", "granks": granks, "ops": ops})
        elif roll < 0.8:
            schedule.append(_rand_coll(rng, granks))
        else:
            flops = [float(f) for f in rng.integers(1, 50, size=nranks) * 1e7]
            schedule.append({"op": "compute", "flops": flops})
    return schedule


@pytest.mark.parametrize("seed", range(N_MULTI_SEEDS))
def test_fuzz_multi_crash_window_interleavings(seed):
    """2-3 crashes interleaved with fused batch windows stay deterministic.

    Same contract as :func:`test_fuzz_fault_plans`, with two twists: the
    schedule is dominated by batch windows (crash cleanup must tear down a
    whole queued window, not just one op) and the plan kills several
    distinct ranks at independent times, so crashes can land between a
    window's queueing and its rendezvous, or while another rank's failure
    is already propagating.
    """
    rng = np.random.default_rng(77000 + seed)
    nranks = int(rng.integers(3, 8))
    schedule = _make_window_schedule(rng, nranks)
    n_crashes = int(rng.integers(2, min(4, nranks)))
    crash_ranks = [int(r) for r in
                   rng.choice(nranks, size=n_crashes, replace=False)]
    crashes = tuple(
        RankCrash(rank=r, at=float(rng.uniform(0.0, 0.02)))
        for r in crash_ranks
    )
    plan = FaultPlan(
        seed=seed,
        crashes=crashes,
        transient_rate=float(rng.choice([0.0, 0.15])),
    )
    program = _run_schedule(schedule)

    def run_once(backend="threaded"):
        engine = Engine(nranks=nranks, op_timeout=60.0, fault_plan=plan,
                        backend=backend)
        try:
            results = engine.run(program)
            outcome = ("ok", None)
            digest = [r[0] for r in results]
        except ReproError as exc:
            outcome = (type(exc).__name__, str(exc))
            digest = None
        events = _rank_events(engine, nranks)
        dead = sorted(engine._dead)
        vols = [engine.trace.comm_volume(rank=r) for r in range(nranks)]
        return outcome, digest, events, dead, vols

    first = run_once()
    second = run_once()
    assert first == second, f"seed {seed}: multi-crash trace diverged"

    # Backend parity for multi-crash plans: several ranks die at
    # independent times, so which dead partner a failure message *names*
    # is first-sweep-wins — a race even the threaded backend only wins
    # consistently against itself.  Everything semantic must still match:
    # outcome type, results digest, event streams, dead set, volumes.
    for alt in ALT_BACKENDS:
        alt_outcome, alt_digest, alt_events, alt_dead, alt_vols = (
            run_once(alt))
        assert alt_outcome[0] == first[0][0], (
            f"seed {seed}: {alt} outcome {alt_outcome[0]} != {first[0][0]}"
        )
        assert (alt_digest, alt_events, alt_dead, alt_vols) == first[1:], (
            f"seed {seed}: {alt} multi-crash trace diverged from threaded"
        )

    outcome, _, _, dead, vols = first
    if outcome[0] == "ok":
        assert dead == [], f"seed {seed}: completed with dead ranks"
        expected = _expected_volume(schedule, nranks)
        for r in range(nranks):
            assert vols[r] == pytest.approx(expected[r]), (
                f"seed {seed}: retries changed rank {r} volume"
            )
    elif outcome[0] == "RankFailureError":
        assert set(dead) & set(crash_ranks), (
            f"seed {seed}: dead set {dead} has no planned crash"
        )


# --------------------------------------------------------------------------
# Node-loss fuzz: correlated fault domains under random schedules
# --------------------------------------------------------------------------

N_NODE_SEEDS = 12


def _mask_rank(message: str | None) -> str | None:
    """Mask the rank a failure message names.

    Every member of a lost node dies at the *same* virtual instant, so
    which member the error names is first-sweep-wins — a wall-clock race
    even the threaded backend only decides arbitrarily.  Everything else
    about the trace must still replay bit-identically.
    """
    if message is None:
        return None
    return re.sub(r"rank \d+", "rank <n>", message)


@pytest.mark.parametrize("seed", range(N_NODE_SEEDS))
def test_fuzz_node_crash_plans(seed):
    """Whole-node losses under random schedules are deterministic.

    Same contract as :func:`test_fuzz_fault_plans`, with the crash being
    a correlated fault domain: 5-8 ranks span two topology nodes (the
    default cluster packs four per node), and the plan kills one of them
    — sometimes alongside an independent personal crash on the other.
    ``lost_ranks`` must expand to the whole fired node on every backend.
    """
    rng = np.random.default_rng(31000 + seed)
    nranks = int(rng.integers(5, 9))  # always spans nodes 0 and 1
    schedule = _make_schedule(rng, nranks)
    node = int(rng.integers(0, 2))
    node_at = float(rng.uniform(0.0, 0.02))
    crashes = ()
    if rng.random() < 0.4:
        # an extra personal crash on the *other* node
        lo, hi = (4, nranks) if node == 0 else (0, 4)
        crashes = (RankCrash(rank=int(rng.integers(lo, hi)),
                             at=float(rng.uniform(0.0, 0.02))),)
    plan = FaultPlan(
        seed=seed,
        crashes=crashes,
        node_crashes=(NodeCrash(node=node, at=node_at),),
        transient_rate=float(rng.choice([0.0, 0.15])),
    )
    program = _run_schedule(schedule)
    node_members = set(range(4)) if node == 0 else set(range(4, nranks))

    def run_once(backend="threaded"):
        engine = Engine(nranks=nranks, op_timeout=60.0, fault_plan=plan,
                        backend=backend)
        try:
            results = engine.run(program)
            outcome = ("ok", None)
            digest = [r[0] for r in results]
        except ReproError as exc:
            outcome = (type(exc).__name__, _mask_rank(str(exc)))
            digest = None
        events = _rank_events(engine, nranks)
        dead = sorted(engine._dead)
        lost = sorted(engine.lost_ranks())
        vols = [engine.trace.comm_volume(rank=r) for r in range(nranks)]
        return outcome, digest, events, dead, lost, vols

    first = run_once()
    second = run_once()
    assert first == second, f"seed {seed}: node-loss trace diverged"

    for alt in ALT_BACKENDS:
        assert run_once(alt) == first, (
            f"seed {seed}: {alt} node-loss trace diverged from threaded"
        )

    outcome, _, _, dead, lost, vols = first
    if outcome[0] == "ok":
        assert dead == [] and lost == [], (
            f"seed {seed}: completed with dead ranks"
        )
        expected = _expected_volume(schedule, nranks)
        for r in range(nranks):
            assert vols[r] == pytest.approx(expected[r]), (
                f"seed {seed}: retries changed rank {r} volume"
            )
    elif outcome[0] == "RankFailureError":
        if set(dead) & node_members:
            # The fired node expands to every resident rank, even the
            # ones that never individually reached the crash time.
            assert node_members <= set(lost), (
                f"seed {seed}: lost set {lost} misses node members"
            )


# --------------------------------------------------------------------------
# Crash-during-recovery fuzz: a restart attempt that crashes again
# --------------------------------------------------------------------------

N_RECOVERY_SEEDS = 10


@pytest.mark.parametrize("seed", range(N_RECOVERY_SEEDS))
def test_fuzz_crash_during_recovery_interleavings(seed):
    """A two-attempt restart sequence replays bit-identically.

    Attempt 0 runs under a crash plan (rank or whole node) and fails;
    the "recovered" attempt runs the same schedule on a fresh engine
    under a *second* plan — the crash-during-recovery double fault —
    and either fails too or completes.  The concatenated two-attempt
    trace (outcomes, dead/lost sets, event streams, volumes) must be
    identical across reruns and backends, and a clean second attempt
    must account exactly the fault-free volumes: nothing from the
    crashed attempt may leak into the restart.
    """
    rng = np.random.default_rng(53000 + seed)
    nranks = int(rng.integers(5, 9))
    schedule = _make_schedule(rng, nranks)

    def draw_plan(fseed):
        if rng.random() < 0.5:
            fault = {"node_crashes": (NodeCrash(
                node=int(rng.integers(0, 2)),
                at=float(rng.uniform(0.0, 0.01))),)}
        else:
            fault = {"crashes": (RankCrash(
                rank=int(rng.integers(0, nranks)),
                at=float(rng.uniform(0.0, 0.01))),)}
        return FaultPlan(seed=fseed, **fault)

    plan_a = draw_plan(seed)
    plan_b = draw_plan(seed + 1000) if rng.random() < 0.5 else None
    program = _run_schedule(schedule)

    def attempt(plan, backend):
        engine = Engine(nranks=nranks, op_timeout=60.0, fault_plan=plan,
                        backend=backend)
        try:
            results = engine.run(program)
            outcome = ("ok", None)
            digest = [r[0] for r in results]
        except ReproError as exc:
            outcome = (type(exc).__name__, _mask_rank(str(exc)))
            digest = None
        return (outcome, digest, _rank_events(engine, nranks),
                sorted(engine._dead), sorted(engine.lost_ranks()),
                [engine.trace.comm_volume(rank=r) for r in range(nranks)])

    def run_sequence(backend="threaded"):
        return (attempt(plan_a, backend), attempt(plan_b, backend))

    first = run_sequence()
    assert first == run_sequence(), (
        f"seed {seed}: two-attempt trace diverged across reruns"
    )
    for alt in ALT_BACKENDS:
        assert run_sequence(alt) == first, (
            f"seed {seed}: {alt} two-attempt trace diverged from threaded"
        )

    second_attempt = first[1]
    if second_attempt[0][0] == "ok":
        assert second_attempt[3] == [] and second_attempt[4] == []
        expected = _expected_volume(schedule, nranks)
        for r in range(nranks):
            assert second_attempt[5][r] == pytest.approx(expected[r]), (
                f"seed {seed}: restart volumes drifted on rank {r}"
            )


# --------------------------------------------------------------------------
# Elastic scale-up fuzz: repair-after-crash and crash-after-grow launch
# sequences must replay bit-identically with exact volume accounting
# --------------------------------------------------------------------------

N_ELASTIC_SEEDS = 8


def _launch(schedule, nranks, plan, backend):
    """One engine launch of ``schedule``; returns its full trace tuple."""
    program = _run_schedule(schedule)
    engine = Engine(nranks=nranks, op_timeout=60.0, fault_plan=plan,
                    backend=backend)
    try:
        results = engine.run(program)
        outcome = ("ok", None)
        digest = [r[0] for r in results]
    except ReproError as exc:
        outcome = (type(exc).__name__, _mask_rank(str(exc)))
        digest = None
    return (outcome, digest, _rank_events(engine, nranks),
            sorted(engine._dead), sorted(engine.lost_ranks()),
            [engine.trace.comm_volume(rank=r) for r in range(nranks)])


@pytest.mark.parametrize("seed", range(N_ELASTIC_SEEDS))
def test_fuzz_repair_after_crash_interleavings(seed):
    """The grow-back launch sequence: crash, shrink, repair, grow.

    Launch 0 runs the full-size schedule under a node-crash plan that
    also carries the matching ``NodeRepair`` (availability metadata —
    the engine prices faults, the trainer reads repairs; carrying both
    in one plan must not perturb either).  Launch 1 models the shrunken
    interim world, launch 2 the repaired full-size world, both
    fault-free.  The concatenated three-launch trace must be identical
    across reruns and backends, and the post-repair launch must account
    exactly the fault-free per-rank volumes: nothing from the crashed
    launch may leak across the grow boundary.
    """
    from repro.sim.faults import NodeRepair, SpareArrival

    rng = np.random.default_rng(61000 + seed)
    nranks = int(rng.integers(5, 9))
    schedule = _make_schedule(rng, nranks)
    nsmall = max(2, nranks // 2)
    small_schedule = _make_schedule(rng, nsmall)
    crash_at = float(rng.uniform(0.0, 0.01))
    crashed_node = int(rng.integers(0, 2))
    plan = FaultPlan(
        seed=seed,
        node_crashes=(NodeCrash(node=crashed_node, at=crash_at),),
        # The repair references the node the plan actually crashes.
        node_repairs=(NodeRepair(
            node=crashed_node,
            at=crash_at + float(rng.uniform(0.01, 0.5))),),
        spare_arrivals=(SpareArrival(count=int(rng.integers(1, 5)),
                                     at=float(rng.uniform(0.1, 1.0))),),
    )

    def run_sequence(backend="threaded"):
        return (
            _launch(schedule, nranks, plan, backend),       # crash
            _launch(small_schedule, nsmall, None, backend),  # shrunken
            _launch(schedule, nranks, None, backend),        # grown back
        )

    first = run_sequence()
    assert first == run_sequence(), (
        f"seed {seed}: repair-after-crash trace diverged across reruns"
    )
    for alt in ALT_BACKENDS:
        assert run_sequence(alt) == first, (
            f"seed {seed}: {alt} repair-after-crash trace diverged"
        )

    shrunk, grown = first[1], first[2]
    for label, launch, sched, n in (("shrunken", shrunk, small_schedule,
                                     nsmall),
                                    ("grown", grown, schedule, nranks)):
        assert launch[0][0] == "ok", f"seed {seed}: {label} launch failed"
        assert launch[3] == [] and launch[4] == []
        expected = _expected_volume(sched, n)
        for r in range(n):
            assert launch[5][r] == pytest.approx(expected[r]), (
                f"seed {seed}: {label} launch rank {r} volume drifted"
            )


@pytest.mark.parametrize("seed", range(N_ELASTIC_SEEDS))
def test_fuzz_crash_immediately_after_grow(seed):
    """A crash in the first instants of the grown world stays clean.

    Launch 0 (the shrunken world) completes fault-free; launch 1 (the
    grown world) runs under a plan whose crash fires almost immediately
    — the crash-right-after-grow hazard.  The two-launch trace must be
    identical across reruns and backends, the shrunken launch's volumes
    exact, and when the grown launch's crash lands past the schedule's
    end (completing instead), its volumes exact too.
    """
    rng = np.random.default_rng(67000 + seed)
    nranks = int(rng.integers(5, 9))
    nsmall = max(2, nranks // 2)
    small_schedule = _make_schedule(rng, nsmall)
    schedule = _make_schedule(rng, nranks)
    if rng.random() < 0.5:
        fault = {"node_crashes": (NodeCrash(
            node=int(rng.integers(0, 2)),
            at=float(rng.uniform(0.0, 0.005))),)}
    else:
        fault = {"crashes": (RankCrash(
            rank=int(rng.integers(0, nranks)),
            at=float(rng.uniform(0.0, 0.005))),)}
    plan = FaultPlan(seed=seed, **fault)

    def run_sequence(backend="threaded"):
        return (
            _launch(small_schedule, nsmall, None, backend),  # pre-grow
            _launch(schedule, nranks, plan, backend),        # grown, crashes
        )

    first = run_sequence()
    assert first == run_sequence(), (
        f"seed {seed}: crash-after-grow trace diverged across reruns"
    )
    for alt in ALT_BACKENDS:
        assert run_sequence(alt) == first, (
            f"seed {seed}: {alt} crash-after-grow trace diverged"
        )

    pre = first[0]
    assert pre[0][0] == "ok", f"seed {seed}: pre-grow launch failed"
    expected = _expected_volume(small_schedule, nsmall)
    for r in range(nsmall):
        assert pre[5][r] == pytest.approx(expected[r]), (
            f"seed {seed}: pre-grow rank {r} volume drifted"
        )
    grown = first[1]
    if grown[0][0] == "ok":
        assert grown[3] == [] and grown[4] == []
        expected = _expected_volume(schedule, nranks)
        for r in range(nranks):
            assert grown[5][r] == pytest.approx(expected[r]), (
                f"seed {seed}: grown rank {r} volume drifted"
            )
