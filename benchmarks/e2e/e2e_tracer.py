"""Span tracer for the traced run: attribute wrappers around each layer's
public functions, installed from the harness (nothing under ``src/`` changes).

One span per wrapped call: name, thread, wall start/end, parent.  A span's
*self* time is its duration minus the part its child spans cover, taken on
two clocks: the thread's CPU clock (``self_s``: what the layer costs; it
does not grow while 64 rank threads queue for the interpreter lock) and the
wall clock (``wait_s`` of a parked rendezvous).  Counts and byte/flop sums
are taken at the same boundaries and must repeat exactly between runs.

Only the traced child imports this module's :func:`install`; an untraced
child keeps the original callables.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array

# (span name, module, attribute path, hook name or None).  A rename in
# ``src/`` makes ``install`` fail rather than silently lose the layer.
_OPS_ELEMENTWISE = (
    "add sub mul div scale neg exp sqrt square reciprocal tanh power gelu "
    "gelu_grad relu relu_grad softmax softmax_grad reduce_sum reduce_mean "
    "reduce_max argmax take_rows add_at_rows cast"
).split()
_OPS_SHAPE = "transpose swap_last_two reshape concat split".split()
_COLLECTIVES = (
    "broadcast reduce all_reduce all_gather reduce_scatter scatter gather "
    "all_to_all barrier"
).split()
_COST_COMM = _COLLECTIVES + ["p2p", "fused"]
_LAYER_CLASSES = (
    ("repro.parallel.serial", "SerialTransformerLayer"),
    ("repro.parallel.megatron.layers", "MegatronTransformerLayer"),
    ("repro.parallel.tesseract.layers", "TesseractTransformerLayer"),
)
_LM_CLASSES = ("SerialTransformerLM", "MegatronTransformerLM",
               "TesseractTransformerLM")

WRAP_POINTS: list[tuple[str, str, str, str | None]] = [
    ("sim.engine.run", "repro.sim.engine", "Engine.run", None),
    ("sim.engine.run", "repro.sim.engine", "run_engines", None),
    ("sim.engine.compute", "repro.sim.engine", "RankContext.compute", "flops"),
    ("sim.engine.collective", "repro.sim.engine", "Engine.collective", None),
    ("sim.engine.collective", "repro.sim.engine", "Engine.fused_collective",
     None),
    ("sim.engine.deferred", "repro.sim.engine",
     "Engine.fused_collective_deferred", None),
    ("sim.engine.deferred", "repro.sim.engine",
     "Engine.collective_deferred_single", None),
    ("sim.engine.deferred", "repro.sim.engine", "Engine.sync_rank", None),
    ("sim.engine.p2p", "repro.sim.engine", "Engine.post_message", None),
    ("sim.engine.p2p", "repro.sim.engine", "Engine.take_message", None),
    ("sim.cost.compute", "repro.sim.cost", "ComputeCostModel.op_time", None),
    *[("sim.cost.comm", "repro.sim.cost", f"CommCostModel.{m}", None)
      for m in _COST_COMM],
    *[("comm.collective", "repro.comm.communicator", f"Communicator.{m}", m)
      for m in _COLLECTIVES],
    ("comm.p2p", "repro.comm.communicator", "Communicator.send", "send"),
    ("comm.p2p", "repro.comm.communicator", "Communicator.recv", "recv"),
    ("comm.p2p", "repro.comm.communicator", "Communicator.sendrecv", None),
    ("comm.batch", "repro.comm.communicator", "Communicator.batch", None),
    ("varray.matmul", "repro.varray.ops", "matmul", None),
    *[("varray.elementwise", "repro.varray.ops", f, None)
      for f in _OPS_ELEMENTWISE],
    *[("varray.shape", "repro.varray.ops", f, None) for f in _OPS_SHAPE],
    *[("pblas.matmul", f"repro.pblas.{mod}", fn, None) for mod, fn in (
        ("tesseract", "tesseract_ab"), ("tesseract", "tesseract_abt"),
        ("tesseract", "tesseract_atb"),
        ("tesseract", "tesseract_matmul_backward"),
        ("tesseract", "tesseract_ab_then_bias"),
        ("summa", "summa_ab"), ("summa", "summa_abt"), ("summa", "summa_atb"),
        ("megatron", "oned_column_linear"), ("megatron", "oned_row_linear"),
        ("dense", "dense_ab"), ("dense", "dense_matmul_backward"),
        ("cannon", "cannon_ab"), ("solomonik", "solomonik_25d_ab"),
    )],
    *[(f"parallel.{span}", mod, f"{cls}.{meth}", None)
      for mod, cls in _LAYER_CLASSES
      for span, meth in (("layer_fwd", "forward"),
                         ("layer_fwd", "forward_cached"),
                         ("layer_bwd", "backward"))],
    ("parallel.build", "repro.parallel.factory", "build_transformer_stack",
     None),
    ("parallel.build", "repro.serve.model", "build_lm", None),
    ("parallel.build", "repro.models.vit", "SerialViT.__init__", None),
    ("parallel.build", "repro.models.vit", "TesseractViT.__init__", None),
    ("nn.optim.step", "repro.nn.optim.base", "Optimizer.step", None),
    ("train.resilient", "repro.train.resilience", "train_resilient", None),
    ("train.loop", "repro.train.trainer", "train_classifier", None),
    *[("train.snapshot", "repro.train.resilience", f"SnapshotStore.{m}", None)
      for m in ("save", "load", "latest_step", "begin_generation",
                "reset_for_world")],
    ("train.redistribute", "repro.train.resilience", "redistribute_payloads",
     "redistribute"),
    ("serve.runner", "repro.serve.runner", "run_serving", None),
    ("serve.sched.admit", "repro.serve.scheduler", "Scheduler.admit", None),
    ("serve.sched.admit", "repro.serve.scheduler",
     "PagedScheduler.admit_paged", None),
    ("serve.sched.preempt", "repro.serve.scheduler", "Scheduler.preempt",
     None),
    *[("serve.cache.append", "repro.serve.cache", p, None) for p in (
        "KVCacheManager.insert", "KVCacheManager.append_rows",
        "PagedKVCache.admit", "PagedKVCache.append_prefill",
        "PagedKVCache.append_decode")],
    *[("serve.cache.assemble", "repro.serve.cache", p, None) for p in (
        "KVCacheManager.assemble", "PagedKVCache.assemble",
        "PagedKVCache.assemble_slot")],
    ("serve.cache.lookup", "repro.serve.cache", "BlockPool.lookup", None),
    ("serve.cache.evict", "repro.serve.cache", "KVCacheManager.evict", None),
    ("serve.cache.evict", "repro.serve.cache", "PagedKVCache.evict", None),
    ("serve.cache.check", "repro.serve.cache", "BlockPool.check", None),
    ("serve.cache.check", "repro.serve.cache", "PagedKVCache.check", None),
    *[(f"serve.model.{span}", "repro.models.transformer", f"{cls}.{meth}",
       None)
      for cls in _LM_CLASSES
      for span, meth in (("prefill", "prefill"), ("decode", "decode_step"))],
]

#: scheduler backends are wrapped by walking ``SchedulerBackend``'s
#: subclasses, so a backend added or retired later needs no edit here
_SCHED_METHODS = {"wait": ("sim.sched.wait", None),
                  "run": ("sim.sched.run", "handoffs"),
                  "run_many": ("sim.sched.run", "handoffs")}

#: the function handed to ``Engine.run`` / ``run_engines`` is the caller's
#: per-rank program (the serving loop, the training program, the bench
#: row); its span is named after the package that defined it, so its self
#: time is not booked to the engine that merely hosts it
_PROGRAM_SPANS = ("serve.program", "train.program", "bench.program",
                  "other.program")

SPAN_NAMES = sorted({p[0] for p in WRAP_POINTS}
                    | {v[0] for v in _SCHED_METHODS.values()}
                    | set(_PROGRAM_SPANS))
_IDX = {name: i for i, name in enumerate(SPAN_NAMES)}
_WAIT = _IDX["sim.sched.wait"]
_COLLECTIVE = _IDX["sim.engine.collective"]
COUNTERS = ("flops", "bytes_recv", "redistribute_bytes", "handoffs",
            "collective_wait_s")

#: spans kept per thread, and dumped in all (shared evenly between the
#: threads): a repetition makes up to 1.2 M spans, the dump is for reading a
#: timeline, and 50k lines are ~8 MB.  Totals and counts cover every span.
MAX_SPANS_KEPT = 50_000
_SPAN_FIELDS = 6


class _ThreadState:
    __slots__ = ("tid", "stack", "calls", "cpu", "spans", "next_id",
                 "counters")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list = []
        self.clear()

    def clear(self) -> None:
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.cpu = [0.0] * n
        #: flat (name index, id, parent id, start, end, self cpu) records;
        #: an array, so a million spans add no work for the cycle collector
        self.spans = array("d")
        self.next_id = 0
        self.counters = dict.fromkeys(COUNTERS, 0)


class Tracer:
    """Per-thread span stacks plus the totals folded from them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        tracer = self

        class _Local(threading.local):
            def __init__(self) -> None:
                with tracer._lock:
                    self.state = _ThreadState(len(tracer._states))
                    tracer._states.append(self.state)

        self._local = _Local()
        self.missing: list[str] = []
        self._originals: dict[int, object] = {}

    # --- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        idx = _IDX[name]
        local = self._local
        perf, cpu = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            st = local.state
            stack = st.stack
            sid = st.next_id
            st.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [0.0, idx, sid]  # [cpu of child spans, name, id]
            stack.append(frame)
            w0 = perf()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                dc = cpu() - c0
                w1 = perf()
                stack.pop()
                if parent is not None:
                    parent[0] += dc
                    if idx == _WAIT and parent[1] == _COLLECTIVE:
                        # a backend wait wraps nothing, so all of it is wait
                        st.counters["collective_wait_s"] += w1 - w0
                st.calls[idx] += 1
                st.cpu[idx] += dc - frame[0]
                if len(st.spans) < _SPAN_FIELDS * MAX_SPANS_KEPT:
                    st.spans.extend(
                        (idx, sid, parent[2] if parent is not None else -1,
                         w0, w1, dc - frame[0])
                    )
            if hook is not None:
                hook(st.counters, args, kwargs, result)
            return result

        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            try:
                setattr(wrapper, attr, getattr(fn, attr))
            except AttributeError:
                pass
        wrapper.__wrapped__ = fn
        wrapper.__e2e_span__ = name
        return wrapper

    def _install_one(self, name, modname, path, hook) -> None:
        label = f"{modname}:{path}"
        try:
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(label)
            return
        if not callable(orig) or isinstance(orig, (staticmethod, classmethod)):
            self.missing.append(label)
            return
        wrapped = self.wrap(orig, name, _HOOKS[hook] if hook else None)
        setattr(owner, attr, wrapped)
        if not parents:
            self._originals[id(orig)] = (orig, wrapped)

    def install(self) -> None:
        """Wrap every listed point; record the ones that resolved to nothing."""
        for point in WRAP_POINTS:
            self._install_one(*point)
        schedulers = importlib.import_module("repro.sim.schedulers")
        pending = [schedulers.SchedulerBackend]
        seen_wait = False
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for meth, (name, hook) in _SCHED_METHODS.items():
                if meth in vars(cls) and cls is not schedulers.SchedulerBackend:
                    self._install_one(name, cls.__module__,
                                      f"{cls.__qualname__}.{meth}", hook)
                    seen_wait |= meth == "wait"
        if not seen_wait:
            self.missing.append("repro.sim.schedulers:<backend>.wait")
        self._wrap_programs()

    def _program(self, fn):
        parts = getattr(fn, "__module__", "").split(".")
        name = f"{parts[1]}.program" if len(parts) > 1 else ""
        return self.wrap(fn, name if name in _IDX else "other.program")

    def _wrap_programs(self) -> None:
        """Give the rank program passed to the engine a span of its own."""
        engine = importlib.import_module("repro.sim.engine")
        traced_run, traced_many = engine.Engine.run, engine.run_engines
        if not hasattr(traced_run, "__e2e_span__") or not hasattr(
                traced_many, "__e2e_span__"):
            return  # already reported missing

        def run(eng, fn, *args, **kwargs):
            return traced_run(eng, self._program(fn), *args, **kwargs)

        def run_engines(jobs):
            return traced_many([(e, self._program(fn)) for e, fn in jobs])

        run.__e2e_span__ = run_engines.__e2e_span__ = "sim.engine.run"
        engine.Engine.run = run
        engine.run_engines = run_engines
        orig = traced_many.__wrapped__
        self._originals[id(orig)] = (orig, run_engines)

    def rebind(self) -> int:
        """Point ``from x import f`` bindings taken before :meth:`install`
        (or by modules imported since) at the wrapper.  Returns how many."""
        fixed = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(("repro", "e2e_")):
                continue
            for key, value in list(vars(mod).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    fixed += 1
        return fixed

    # --- reading --------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for st in self._states:
                st.clear()

    def totals(self) -> dict:
        """Fold every thread's spans: per span name ``calls`` and ``cpu_s``;
        plus the counters and the span count."""
        with self._lock:
            states = list(self._states)
        out = {name: {"calls": 0, "cpu_s": 0.0} for name in SPAN_NAMES}
        counters = dict.fromkeys(COUNTERS, 0)
        for st in states:
            for i, name in enumerate(SPAN_NAMES):
                out[name]["calls"] += st.calls[i]
                out[name]["cpu_s"] += st.cpu[i]
            for key in COUNTERS:
                counters[key] += st.counters[key]
        return {
            "spans": out,
            "counters": counters,
            "span_count": sum(s["calls"] for s in out.values()),
        }

    def dump_spans(self, fh, workload: str) -> int:
        """Write the first spans of every thread as JSON lines, at most
        ``MAX_SPANS_KEPT`` in all; returns the number written."""
        import json
        from itertools import islice

        with self._lock:
            states = [st for st in self._states if st.spans]
        n = 0
        for st in states:
            rows = zip(*[iter(st.spans)] * _SPAN_FIELDS)
            quota = MAX_SPANS_KEPT // len(states)
            for idx, sid, parent, w0, w1, self_cpu in islice(rows, quota):
                fh.write(json.dumps({
                    "workload": workload,
                    "name": SPAN_NAMES[int(idx)], "thread": st.tid,
                    "id": int(sid), "parent": int(parent), "start": w0,
                    "end": w1, "self_cpu_s": self_cpu,
                }) + "\n")
                n += 1
        return n


# --- hooks: counts taken at the same boundary as the span -----------------------

def _flops_hook(counters, args, kwargs, result) -> None:
    counters["flops"] += kwargs["flops"] if "flops" in kwargs else args[1]


def _handoffs_hook(counters, args, kwargs, result) -> None:
    counters["handoffs"] += getattr(args[0], "handoffs", 0)


def _ready_value(result):
    """The value of a direct result, or of a resolved ``PendingResult``."""
    if hasattr(result, "ready"):
        return result.value if result.ready else None
    return result


def _others(chunks, rank) -> int:
    return sum(c.nbytes for i, c in enumerate(chunks) if i != rank)


def _comm_bytes(kind):
    """Bytes this rank receives (or sends, if it receives nothing) in one
    collective: the per-rank convention of ``repro.comm.communicator``,
    rebuilt from the call's arguments and result so it also holds with
    engine tracing off."""

    def hook(counters, args, kwargs, result) -> None:
        comm = args[0]
        if comm.size == 1 or kind == "barrier":
            return
        first = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
        value = _ready_value(result)
        if kind in ("all_reduce", "reduce", "send"):
            n = first.nbytes
        elif kind == "recv":
            n = value.nbytes
        elif kind == "broadcast":
            n = first.nbytes if first is not None else (
                value.nbytes if value is not None else 0)
        elif kind == "all_gather":
            n = (_others(value, comm.rank) if value is not None
                 else (comm.size - 1) * first.nbytes)
        elif kind == "reduce_scatter":
            n = first[comm.rank].nbytes
        elif kind == "scatter":
            n = (_others(first, comm.rank) if first
                 else (value.nbytes if value is not None else 0))
        elif kind == "gather":
            n = (_others(value, comm.rank) if isinstance(value, list)
                 else first.nbytes)
        else:  # all_to_all
            n = _others(first, comm.rank)
        counters["bytes_recv"] += n

    return hook


def _payload_bytes(obj) -> int:
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(v) for v in obj)
    return 0


def _redistribute_hook(counters, args, kwargs, result) -> None:
    counters["redistribute_bytes"] += _payload_bytes(result)


_HOOKS = {
    "flops": _flops_hook,
    "handoffs": _handoffs_hook,
    "redistribute": _redistribute_hook,
    "send": _comm_bytes("send"),
    "recv": _comm_bytes("recv"),
    **{kind: _comm_bytes(kind) for kind in _COLLECTIVES},
}
