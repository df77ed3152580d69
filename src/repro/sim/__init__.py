"""Discrete-event SPMD simulator: clocks, cost models, engine, tracing.

The simulator executes every rank's *real* algorithm code under a
scheduler backend (:mod:`repro.sim.schedulers`): all ranks multiplexed on
one event-driven run loop with explicit hand-off by default, or one OS
thread per rank as the reference the tests compare against — backends
change wall-clock dispatch cost only, never results or modeled time.
Wall-clock time is irrelevant: each rank owns a virtual
:class:`~repro.sim.clock.VirtualClock` advanced by

* the compute cost model for local ops (charged by :mod:`repro.varray`), and
* the communication cost model at every collective rendezvous
  (:mod:`repro.comm`), which also synchronizes the participating clocks.

The result of a simulation is therefore both the *data* each rank computed
(bit-exact numpy in real mode) and the *simulated time* each rank took.
"""

from repro.sim.clock import VirtualClock
from repro.sim.cost import CollectiveAlg, CommCostModel, ComputeCostModel
from repro.sim.events import (
    CommEvent,
    ComputeEvent,
    FaultEvent,
    MarkerEvent,
    RetryEvent,
    Trace,
)
from repro.sim.faults import (
    ComputeSlowdown,
    FaultPlan,
    LinkFault,
    NodeCrash,
    RankCrash,
    RetryPolicy,
)
from repro.sim.memory import MemoryTracker
from repro.sim.engine import Engine, RankContext
from repro.sim.schedulers import (
    EventScheduler,
    SchedulerBackend,
    ThreadedScheduler,
    available_backends,
    resolve_backend,
)
from repro.sim.timeline import RankBreakdown, analyze, gantt

__all__ = [
    "VirtualClock",
    "ComputeCostModel",
    "CommCostModel",
    "CollectiveAlg",
    "Trace",
    "ComputeEvent",
    "CommEvent",
    "MarkerEvent",
    "FaultEvent",
    "RetryEvent",
    "FaultPlan",
    "RankCrash",
    "NodeCrash",
    "LinkFault",
    "ComputeSlowdown",
    "RetryPolicy",
    "MemoryTracker",
    "Engine",
    "RankContext",
    "SchedulerBackend",
    "ThreadedScheduler",
    "EventScheduler",
    "resolve_backend",
    "available_backends",
    "analyze",
    "gantt",
    "RankBreakdown",
]
