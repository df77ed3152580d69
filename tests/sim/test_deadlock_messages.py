"""Deadlock diagnostics name the exact culprits, for every op kind.

The engine docstring promises that a timed-out rendezvous raises
:class:`DeadlockError` *naming the missing ranks* and that a timed-out
``recv`` names the missing sender.  ``tests/sim/test_engine.py`` covers a
couple of cases; this module closes the gap with parametrized coverage of
every collective kind (all of which now travel through the fused
group-channel path), the fused batch window, and the p2p receive path.
"""

import time

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.errors import CommError, DeadlockError
from repro.sim.engine import Engine
from repro.sim.schedulers import available_backends
from repro.varray.varray import VArray

#: every test runs under every backend: deadlock *messages* are part of
#: the engine contract and must not depend on how ranks are scheduled
#: (they embed ``op_timeout``, never measured wall time — cooperative
#: backends detect the stall instantly instead of after the timeout)
BACKENDS = available_backends()

NRANKS = 4
GROUP = tuple(range(NRANKS))
MISSING = (1, 3)  #: ranks that skip the collective
TIMEOUT = 0.4


def _arr(rank):
    return VArray.from_numpy(np.full(4, float(rank + 1), dtype=np.float32))


def _chunks(rank):
    return [_arr(rank + j) for j in range(NRANKS)]


def _sym_arr(rank):
    return VArray.symbolic((4,), np.float32)


def _sym_chunks(rank):
    return [_sym_arr(rank) for _ in range(NRANKS)]


def _issuers(arr, chunks):
    """One issuing function per collective kind, over payload factories."""
    return {
        "barrier": lambda comm, r: comm.barrier(),
        "all_reduce": lambda comm, r: comm.all_reduce(arr(r)),
        "broadcast": lambda comm, r: comm.broadcast(
            arr(r) if comm.rank == 0 else None, root=0),
        "reduce": lambda comm, r: comm.reduce(arr(r), root=0),
        "all_gather": lambda comm, r: comm.all_gather(arr(r)),
        "reduce_scatter": lambda comm, r: comm.reduce_scatter(chunks(r)),
        "scatter": lambda comm, r: comm.scatter(
            chunks(r) if comm.rank == 0 else None, root=0),
        "gather": lambda comm, r: comm.gather(arr(r), root=0),
        "all_to_all": lambda comm, r: comm.all_to_all(chunks(r)),
    }


_ISSUERS = _issuers(_arr, _chunks)
_SYM_ISSUERS = _issuers(_sym_arr, _sym_chunks)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", sorted(_ISSUERS))
def test_collective_deadlock_names_missing_ranks(kind, backend):
    """Every collective kind's timeout names exactly the absent ranks."""

    def prog(ctx):
        if ctx.rank in MISSING:
            return "skipped"
        _ISSUERS[kind](Communicator(ctx, GROUP), ctx.rank)

    engine = Engine(nranks=NRANKS, op_timeout=TIMEOUT, backend=backend)
    with pytest.raises(DeadlockError, match=r"missing ranks \[1, 3\]") as exc:
        engine.run(prog)
    # The message also carries the op kind and the arrival census.
    assert kind in str(exc.value)
    assert "2/4 ranks arrived [0, 2]" in str(exc.value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_window_deadlock_names_missing_ranks(backend):
    """A fused batch window that some ranks skip reports them too."""

    def prog(ctx):
        if ctx.rank in MISSING:
            return "skipped"
        comm = Communicator(ctx, GROUP)
        with comm.batch():
            comm.all_reduce(_arr(ctx.rank))
            comm.all_reduce(_arr(ctx.rank))

    engine = Engine(nranks=NRANKS, op_timeout=TIMEOUT, backend=backend)
    with pytest.raises(DeadlockError, match=r"missing ranks \[1, 3\]") as exc:
        engine.run(prog)
    assert "fused" in str(exc.value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_signature_mismatch_is_a_comm_error_not_a_deadlock(backend):
    """Disagreeing window contents abort immediately with the two sigs."""
    from repro.errors import CommError, SimulationError

    def prog(ctx):
        comm = Communicator(ctx, GROUP)
        with comm.batch():
            comm.all_reduce(_arr(ctx.rank))
            if ctx.rank == 2:
                comm.barrier()
            else:
                comm.all_reduce(_arr(ctx.rank))

    engine = Engine(nranks=NRANKS, op_timeout=TIMEOUT, backend=backend)
    with pytest.raises((CommError, SimulationError), match="mismatch"):
        engine.run(prog)


@pytest.mark.parametrize("backend", BACKENDS)
def test_recv_deadlock_names_missing_sender(backend):
    """A timed-out recv names the sender that never posted."""

    def prog(ctx):
        comm = Communicator(ctx, (0, 1))
        if ctx.rank == 1:
            comm.recv(0)

    engine = Engine(nranks=2, op_timeout=TIMEOUT, backend=backend)
    with pytest.raises(DeadlockError, match="missing sender: rank 0"):
        engine.run(prog)


@pytest.mark.parametrize("backend", BACKENDS)
def test_recv_deadlock_names_missing_sender_nontrivial_pair(backend):
    """The named sender is the global rank, not the group index."""

    def prog(ctx):
        if ctx.rank == 2:
            comm = Communicator(ctx, (2, 3))
            comm.recv(1)  # group index 1 == global rank 3

    engine = Engine(nranks=4, op_timeout=TIMEOUT, backend=backend)
    with pytest.raises(DeadlockError, match="missing sender: rank 3"):
        engine.run(prog)


def test_deadlock_message_is_byte_identical_across_backends():
    """The exact DeadlockError text cannot depend on the backend.

    Cooperative backends fire the deadline callback the instant the run
    queue drains; the threaded watchdog fires after ``op_timeout`` wall
    seconds.  Both produce the same message because the message embeds
    the configured timeout, not a measurement.
    """

    def prog(ctx):
        if ctx.rank in MISSING:
            return "skipped"
        Communicator(ctx, GROUP).barrier()

    messages = {}
    for backend in BACKENDS:
        engine = Engine(nranks=NRANKS, op_timeout=TIMEOUT, backend=backend)
        with pytest.raises(DeadlockError) as exc:
            engine.run(prog)
        messages[backend] = str(exc.value)
    assert len(set(messages.values())) == 1, messages


# --- deferred arm ---------------------------------------------------------------
#
# A symbolic, untraced engine on the ``event`` backend defers collective
# timing: ranks deposit and run on, and a stall is named when a rank
# parks, force-syncs or the run ends.  The same programs on ``threaded``
# block at every rendezvous.  The error each raises must be the same
# class with the same text.


def _deferred_vs_threaded(prog, expected=DeadlockError, timeout=TIMEOUT):
    errors = {}
    for backend in ("threaded", "event"):
        engine = Engine(nranks=NRANKS, mode="symbolic", trace=False,
                        op_timeout=timeout, backend=backend)
        assert engine._deferred == (backend == "event")
        with pytest.raises(expected) as exc:
            engine.run(prog)
        errors[backend] = (type(exc.value), str(exc.value))
        engine.shutdown()
    assert errors["event"] == errors["threaded"]
    return errors["event"][1]


@pytest.mark.parametrize("kind", sorted(_SYM_ISSUERS))
def test_deferred_collective_deadlock_matches_threaded(kind):
    def prog(ctx):
        if ctx.rank in MISSING:
            return "skipped"
        _SYM_ISSUERS[kind](Communicator(ctx, GROUP), ctx.rank)

    message = _deferred_vs_threaded(prog)
    assert kind in message
    assert "2/4 ranks arrived [0, 2]; missing ranks [1, 3]" in message


def test_deferred_batch_window_deadlock_matches_threaded():
    def prog(ctx):
        if ctx.rank in MISSING:
            return "skipped"
        comm = Communicator(ctx, GROUP)
        with comm.batch():
            comm.all_reduce(_sym_arr(ctx.rank))
            comm.gather(_sym_arr(ctx.rank), root=0)

    message = _deferred_vs_threaded(prog)
    assert "fused[" in message and "missing ranks [1, 3]" in message


def _arrivals(engine):
    """Ranks deposited into the engine's open rendezvous generations."""
    return sum(len(gen.arrivals) for ch in list(engine._channels.values())
               for gen in list(ch.gens.values()))


def test_deferred_window_mismatch_matches_threaded():
    """Rank 2 queues a different window.  It is held back until the other
    three ranks have deposited, so the ``threaded`` message is reported
    from the same arrival order the event backend runs in (the long
    timeout keeps the watchdog quiet while it waits)."""

    def prog(ctx):
        comm = Communicator(ctx, GROUP)
        if ctx.rank == 2 and ctx.engine.backend == "threaded":
            while _arrivals(ctx.engine) < NRANKS - 1:
                time.sleep(0.001)
        with comm.batch():
            comm.all_reduce(_sym_arr(ctx.rank))
            if ctx.rank == 2:
                comm.barrier()
            else:
                comm.all_reduce(_sym_arr(ctx.rank))

    message = _deferred_vs_threaded(prog, expected=CommError, timeout=60.0)
    assert "rank 2 called 'fused[all_reduce[op=sum], barrier]'" in message
