"""The declared op inventory of one transformer layer, per layer family.

The planner prices a candidate from a list of what one layer launches on
one rank for one microbatch: every local kernel the modules run and every
collective they issue, forward and backward.  This module is that list,
written once per *layer family*:

=======  ===============================================================
flat     replicated activations: ``serial`` is ``megatron`` at tp = 1
         (column-parallel QKV/fc1, row-parallel proj/fc2 with a tensor
         all-reduce, replicated LayerNorm; §2.5)
grid     ``[b/dq, s, h/q]`` activation blocks: ``optimus`` is
         ``tesseract`` at d = 1 (SUMMA linears, §2.2 / Alg. 3; row
         all-reduced LayerNorm statistics, §3.2.2; the depth all-reduce
         of every weight gradient, §3.1)
=======  ===============================================================

Records carry the tags the layer code passes to the engine, so a missing
or extra op can be named: ``tests/plan/test_inventory.py`` runs one
traced layer per scheme and checks the lists op for op against rank 0's
trace.  Flops and bytes follow :mod:`repro.varray.ops` (matmul ``2mkn``
flops over its operand and result bytes, elementwise one flop per output
element, reductions one per input element, data movement zero flops).

A :class:`Collective` names the axis of :class:`~repro.plan.cost.
PlanGroups` it runs on and its per-rank bytes, one entry per op it
fuses: a plain collective has one entry, a batch window (the LayerNorm
statistics, the dg/db sums) one per queued op, and both are priced the
way the engine prices them, by :meth:`~repro.sim.cost.CommCostModel.fused`.

The same builders say what the layer *holds*: one :class:`Held` record
per module with its parameter shards and its ``save_for_backward`` set,
in the order the modules' forwards return.  Every module's backward
releases its set and then accumulates its own gradients, so the modules
run backward in the reverse order.  :meth:`repro.plan.cost.PlanCostModel.
estimate` walks these records through the pipeline schedule, and
``tests/plan/test_memory.py`` checks them name for name against
``module.parameters()`` and each module's charged ``_saved_bytes``.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from repro.plan.space import CandidateConfig, ModelSpec

__all__ = ["DTYPE_BYTES", "Kernel", "Collective", "Held", "LayerOps",
           "layer_ops"]

#: The simulator's training dtype (float32) in bytes.
DTYPE_BYTES = 4


class Kernel(NamedTuple):
    """``count`` launches of one local kernel."""

    tag: str
    flops: float
    nbytes: float
    min_dim: float | None
    count: int


class Collective(NamedTuple):
    """``count`` collectives on one axis of the candidate's grid."""

    tag: str
    kind: str                  #: "broadcast", "reduce" or "all_reduce"
    axis: str                  #: a :class:`~repro.plan.cost.PlanGroups` field
    nbytes: tuple[float, ...]  #: per-rank bytes of each fused op
    count: int


class Held(NamedTuple):
    """What one module of the layer holds on this rank (local shapes)."""

    name: str                                  #: path in the layer
    params: tuple[tuple[str, tuple], ...]      #: (name, shape) per shard
    saved: tuple[tuple[int, ...], ...]         #: its save_for_backward set

    @property
    def saved_bytes(self) -> int:
        return sum(prod(s) for s in self.saved) * DTYPE_BYTES


class LayerOps(NamedTuple):
    """One layer on one rank for one microbatch."""

    fwd: tuple            #: kernels and collectives of the forward
    bwd: tuple            #: ... and of the backward
    held: tuple           #: :class:`Held` records, in forward-return order
    block: tuple          #: shape of the activation block entering the layer
    param_bytes: int      #: every parameter shard (= the gradients)
    saved_bytes: int      #: every saved set of one forward


class _Pass(list):
    """One phase's records, with builders named after the ops they mirror."""

    def kernel(self, tag, flops, nbytes, min_dim=None, count=1):
        if count:
            self.append(Kernel(tag, flops, nbytes, min_dim, count))

    def unary(self, tag, elems, flops_per_el=1.0):
        self.kernel(tag, flops_per_el * elems, 2 * elems * DTYPE_BYTES)

    def binary(self, tag, a, b, flops_per_el=1.0, count=1):
        out = max(a, b)                      # the broadcast output
        self.kernel(tag, flops_per_el * out, (a + b + out) * DTYPE_BYTES,
                    count=count)

    def reduce(self, tag, elems):
        self.kernel(tag, float(elems), elems * DTYPE_BYTES)

    def move(self, tag, elems, count=1):
        self.kernel(tag, 0.0, 2 * elems * DTYPE_BYTES, count=count)

    def reshape(self, count=1):
        self.kernel("reshape", 0.0, 0.0, count=count)

    def matmul(self, tag, batch, m, k, n, batched_b=False, count=1):
        b_elems = (batch if batched_b else 1) * k * n
        self.kernel(tag, 2.0 * batch * m * k * n,
                    (batch * m * k + b_elems + batch * m * n) * DTYPE_BYTES,
                    float(min(m, k, n)), count)

    def coll(self, tag, kind, axis, *elems, count=1):
        self.append(Collective(tag, kind, axis,
                               tuple(e * DTYPE_BYTES for e in elems), count))


def layer_ops(model: ModelSpec, cfg: CandidateConfig, mb: int,
              seq: int) -> LayerOps:
    """The records of one layer for one microbatch of ``mb`` sequences.

    Memoized per scheme and local shape: the time loop and the memory walk
    of a search read the same records for every candidate that shares them.
    """
    return _layer_ops(cfg.scheme, cfg.tp, cfg.q, cfg.d, model.hidden,
                      model.nheads, model.mlp_ratio, mb, seq)


@lru_cache(maxsize=1024)
def _layer_ops(scheme, tp, q, d, h, nheads, r, mb, seq) -> LayerOps:
    grid = scheme in ("optimus", "tesseract")
    split = q if grid else tp                # hidden/head split
    b = mb // (d * q) if grid else mb        # local batch
    width = h // q if grid else h            # local activation width
    rows = b * seq
    n = rows * width
    heads, hd = nheads // split, h // nheads
    qkv_w, ff_w = 3 * h // split, r * h // split
    fwd, bwd, held = _Pass(), _Pass(), []

    def hold(name, params=(), saved=()):
        held.append(Held(name, tuple(params), tuple(saved)))

    if grid:
        split_tag = "tattn"

        def linear(k, o, _row_parallel):
            # Forward SUMMA (Alg. 2, AB): q row/column broadcasts, q local
            # GEMMs and q - 1 accumulating adds, then the bias.
            fwd.coll("tlinear_fwd", "broadcast", "row", rows * k, count=q)
            fwd.coll("tlinear_fwd", "broadcast", "col", k * o, count=q)
            fwd.matmul("tlinear_fwd", b, seq, k, o, count=q)
            fwd.binary("tlinear_fwd", rows * o, rows * o, count=q - 1)
            fwd.binary("tlinear_bias", rows * o, o)
            # dX = dY W^T (AB^T): column broadcast of W, row reduce of dX.
            bwd.coll("tlinear_dx", "broadcast", "col", k * o, count=q)
            bwd.matmul("tlinear_dx", b, seq, o, k, count=q)
            bwd.coll("tlinear_dx", "reduce", "row", rows * k, count=q)
            bwd.reshape(2)
            # dW = X^T dY (A^T B): row broadcast of X, column reduce of dW,
            # then the depth all-reduce of §3.1.
            bwd.coll("tlinear_dw", "broadcast", "row", rows * k, count=q)
            bwd.matmul("tlinear_dw", 1, k, rows, o, count=q)
            bwd.coll("tlinear_dw", "reduce", "col", k * o, count=q)
            bwd.reduce("tlinear_db", rows * o)
            bwd.coll("tlinear_db", "all_reduce", "col", o)
            if d > 1:
                bwd.coll("tlinear_dw", "all_reduce", "depth", k * o)
                bwd.coll("tlinear_db", "all_reduce", "depth", o)

        def layernorm():
            # E[x] and E[x^2] from local sums and one row window (Eq. 13).
            fwd.unary("tln_sq", n)
            fwd.reduce("tln_mean", n)
            fwd.reduce("tln_meansq", n)
            fwd.coll("tln_mean", "all_reduce", "row", rows, rows)
            fwd.unary("tln_mean", rows)
            fwd.unary("tln_meansq", rows)
            fwd.unary("tln_var", rows)
            fwd.binary("tln_var", rows, rows)
            fwd.binary("tln_std", rows, 1)
            fwd.unary("tln_std", rows)
            fwd.unary("tln_invstd", rows)
            fwd.binary("tln_center", n, rows)
            fwd.binary("tln_xhat", n, rows)
            fwd.binary("tln_gain", n, width)
            fwd.binary("tln_bias", n, width)
            # dg/db summed over (col, depth) in windows; Eq. 14's two means
            # in one row window.
            bwd.binary("tln_dg", n, n)
            for tag in ("tln_dg", "tln_db"):
                bwd.reduce(tag, n)
                bwd.reduce(tag, seq * width)
            bwd.coll("tln_dgdb", "all_reduce", "col", width, width)
            if d > 1:
                bwd.coll("tln_dgdb", "all_reduce", "depth", width, width)
            bwd.binary("tln_dxhat", n, width)
            bwd.binary("tln_xdx", n, n)
            bwd.reduce("tln_m1", n)
            bwd.reduce("tln_m2", n)
            bwd.coll("tln_m1", "all_reduce", "row", rows, rows)
            bwd.unary("tln_m1", rows)
            bwd.unary("tln_m2", rows)
            bwd.binary("tln_sub", n, rows)
            bwd.binary("tln_proj", n, rows)
            bwd.binary("tln_sub", n, n)
            bwd.binary("tln_dx", n, rows)
    else:
        serial = scheme == "serial"
        split_tag = "attn" if serial else "mattn"

        def linear(k, o, row_parallel):
            # Column-parallel: comm-free forward, dX all-reduced backward;
            # row-parallel: output all-reduced forward, bias after it.
            tag = "linear" if serial else ("mrow" if row_parallel else "mcol")
            fwd.matmul(f"{tag}_fwd", b, seq, k, o)
            if row_parallel and tp > 1:
                fwd.coll(f"{tag}_fwd", "all_reduce", "tensor", rows * o)
            fwd.binary(f"{tag}_bias", rows * o, o)
            bwd.reshape(2)
            bwd.matmul(f"{tag}_dw", 1, k, rows, o)
            bwd.reduce(f"{tag}_db", rows * o)
            bwd.matmul(f"{tag}_dx", b, seq, o, k)
            if not row_parallel and tp > 1:
                bwd.coll(f"{tag}_dx", "all_reduce", "tensor", rows * k)

        def layernorm():
            # Replicated two-pass LayerNorm, no communication.
            fwd.reduce("ln_mean", n)
            fwd.binary("ln_center", n, rows)
            fwd.unary("ln_sq", n)
            fwd.reduce("ln_var", n)
            fwd.binary("add", rows, 1)
            fwd.unary("ln_std", rows)
            fwd.unary("ln_invstd", rows)
            fwd.binary("ln_xhat", n, rows)
            fwd.binary("ln_gain", n, width)
            fwd.binary("ln_bias", n, width)
            bwd.binary("ln_dg", n, n)
            for tag in ("ln_dg", "ln_db"):
                bwd.reduce(tag, n)
                bwd.reduce(tag, seq * width)
            bwd.binary("ln_dxhat", n, width)
            bwd.reduce("ln_m1", n)
            bwd.binary("ln_xdx", n, n)
            bwd.reduce("ln_m2", n)
            bwd.binary("ln_sub1", n, rows)
            bwd.binary("ln_proj", n, rows)
            bwd.binary("ln_sub2", n, n)
            bwd.binary("ln_dx", n, rows)

    def dense(name, k, o, row_parallel=False):
        linear(k, o, row_parallel)
        # The input is saved.  The bias spans the local output width: a
        # grid's 1/q column slice, Megatron's full width (so replicated)
        # after a row-parallel all-reduce.
        hold(name, [("w", (k, o)), ("b", (o,))], [(b, seq, k)])

    def norm(name):
        layernorm()
        # Gain and bias span the local width; x-hat and 1/std are saved.
        hold(name, [("g", (width,)), ("b", (width,))],
             [(b, seq, width), (b, seq, 1)])

    # The pre-LN layer both families share: x + attn(ln1(x)), then
    # x + mlp(ln2(x)); the attention core runs on this rank's heads alone.
    bh = b * heads
    head_elems = rows * (h // split)         # one of the local q/k/v
    scores = bh * seq * seq
    norm("ln1")
    dense("attn.qkv", width, qkv_w)
    fwd.move(f"{split_tag}_split", rows * qkv_w)
    fwd.reshape(3)
    fwd.move("attn_heads", head_elems, count=3)
    fwd.matmul("attn_qk", bh, seq, hd, seq, batched_b=True)
    fwd.unary("attn_scale", scores)
    fwd.unary("attn_softmax", scores, 5.0)
    fwd.matmul("attn_av", bh, seq, seq, hd, batched_b=True)
    fwd.move("attn_merge", head_elems)
    fwd.reshape()
    bwd.reshape()
    bwd.move("attn_heads", head_elems)
    bwd.matmul("attn_dv", bh, seq, seq, hd, batched_b=True)
    bwd.matmul("attn_dp", bh, seq, hd, seq, batched_b=True)
    bwd.kernel("attn_dsm", 4.0 * scores, 3 * scores * DTYPE_BYTES)
    bwd.unary("attn_dscale", scores)
    bwd.matmul("attn_dq", bh, seq, seq, hd, batched_b=True)
    bwd.matmul("attn_dk", bh, seq, seq, hd, batched_b=True)
    bwd.move("attn_merge", head_elems, count=3)
    bwd.reshape(3)
    bwd.move(f"{split_tag}_dsplit", rows * qkv_w)
    dense("attn.proj", h // split, width, row_parallel=True)
    # The attention cache is one tuple argument, which save_for_backward
    # charges nothing for (it counts VArray arguments only).
    hold("attn")
    fwd.binary("residual", n, n)
    bwd.binary("residual_bwd", n, n)
    norm("ln2")
    dense("mlp.fc1", width, ff_w)
    fwd.unary("mlp_gelu", rows * ff_w, 8.0)
    bwd.binary("mlp_gelu_bwd", rows * ff_w, rows * ff_w, 10.0)
    dense("mlp.fc2", ff_w, width, row_parallel=True)
    hold("mlp", saved=[(b, seq, ff_w)])      # fc1's output, for the GELU
    fwd.binary("residual", n, n)
    bwd.binary("residual_bwd", n, n)
    return LayerOps(
        tuple(fwd), tuple(bwd), tuple(held), (b, seq, width),
        sum(prod(s) for m in held for _, s in m.params) * DTYPE_BYTES,
        sum(m.saved_bytes for m in held))
