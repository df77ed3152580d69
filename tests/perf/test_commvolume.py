"""Tests for the §1/§3.1 transfer-count formulas — the paper's exact numbers
— and for what the per-layer volume formulas count of a real layer."""

import math

import pytest

from repro.errors import GridError
from repro.perf.commvolume import (
    cannon_transfers,
    megatron_comm_volume,
    optimus_comm_volume,
    solomonik_transfers,
    tesseract_beats_cannon_q,
    tesseract_beats_solomonik_q,
    tesseract_comm_volume,
    tesseract_transfers,
    transfer_ratios,
)
from repro.plan.inventory import DTYPE_BYTES, Collective, layer_ops
from repro.plan.space import CandidateConfig, ModelSpec


class TestPaperNumbers:
    def test_ratio_31_5_at_p64(self):
        """§1: 'the communication needed for Cannon's Algorithm is 31.5
        times the communication needed for Tesseract' at 64 processors."""
        assert transfer_ratios(64)["cannon_over_tesseract"] == pytest.approx(31.5)

    def test_ratio_3_75_at_p64(self):
        """§1: 'the communication needed for the 2.5D algorithm is 3.75
        times the communication needed for Tesseract'."""
        assert transfer_ratios(64)["solomonik_over_tesseract"] == pytest.approx(3.75)

    def test_tesseract_beats_cannon_crossover(self):
        """§3.1 says 'q > 2'; the paper's own formulas give the crossover at
        q = 2 already, i.e. the claim is conservative — the important
        direction (Tesseract wins at practical scales) holds."""
        assert tesseract_beats_cannon_q() == 2
        assert tesseract_transfers(64) < cannon_transfers(64)

    def test_tesseract_beats_solomonik_crossover(self):
        """§3.1 says 'q > 4'; by the formulas the crossover is q = 2.
        Either way Tesseract wins at the paper's evaluated p = 64."""
        assert tesseract_beats_solomonik_q() == 2
        assert tesseract_transfers(64) < solomonik_transfers(64)


class TestFormulas:
    def test_cannon_formula(self):
        # p = q^2 = 9: 2*27 - 2*3 = 48
        assert cannon_transfers(9) == pytest.approx(48.0)

    def test_solomonik_formula(self):
        # p = 8: 2*8 - 2*2 = 12
        assert solomonik_transfers(8) == pytest.approx(12.0)

    def test_tesseract_cubic_formula(self):
        # p = 27 (q = d = 3): 2 * 27^(2/3) = 18
        assert tesseract_transfers(27) == pytest.approx(18.0)

    def test_tesseract_general_depth(self):
        # [q=4, d=2]: 2*q*d = 16
        assert tesseract_transfers(32, d=2) == pytest.approx(16.0)

    def test_tesseract_general_reduces_to_cubic(self):
        assert tesseract_transfers(27, d=3) == pytest.approx(
            tesseract_transfers(27))

    def test_invalid_inputs(self):
        with pytest.raises(GridError):
            cannon_transfers(0)
        with pytest.raises(GridError):
            tesseract_transfers(10, d=3)


class TestPerLayerVolumes:
    def test_megatron_volume(self):
        # 2 beta (p-1) b s h / p
        assert megatron_comm_volume(4, 2, 3, 8) == pytest.approx(
            2 * 3 * 2 * 3 * 8 / 4)

    def test_megatron_volume_zero_at_p1(self):
        assert megatron_comm_volume(1, 2, 3, 8) == 0.0

    def test_tesseract_depth_reduces_volume(self):
        v1 = tesseract_comm_volume(q=4, d=1, b=16, s=8, h=32)
        v4 = tesseract_comm_volume(q=4, d=4, b=16, s=8, h=32)
        assert v4 == pytest.approx(v1 / 4)

    def test_optimus_requires_square_p(self):
        with pytest.raises(Exception):
            optimus_comm_volume(8, 2, 3, 8)

    def test_ordering_at_scale(self):
        """At 64 GPUs, Tesseract (d=4) moves less activation volume per
        layer than Megatron — the core of the paper's argument."""
        b, s, h = 16, 512, 3072
        mega = megatron_comm_volume(64, b, s, h)
        tess = tesseract_comm_volume(q=4, d=4, b=b, s=s, h=h)
        assert tess < mega


class TestFormulasAgainstInventory:
    """Each ``*_comm_volume`` against the per-rank collective elements of
    one layer (:func:`repro.plan.inventory.layer_ops`, which
    ``tests/plan/test_inventory.py`` checks against a traced layer).  None
    of the formulas is the layer's whole volume; each test states the
    exact relation and names what the formula leaves out."""

    B, S, H = 16, 32, 64

    def volume(self, cfg, phase, kind, axis):
        """Per-rank elements one layer moves in ``phase`` over ``axis``."""
        model = ModelSpec("v", hidden=self.H, num_layers=1, nheads=4,
                          seq_len=self.S)
        ops = getattr(layer_ops(model, cfg, self.B, self.S), phase)
        return sum(op.count * sum(op.nbytes) for op in ops
                   if isinstance(op, Collective)
                   and (op.kind, op.axis) == (kind, axis)) / DTYPE_BYTES

    def test_megatron_counts_the_forward_at_the_ring_share(self):
        # 2 beta (p-1) b s h / p: the forward's two row-parallel
        # all-reduces at (p-1)/p of each buffer.  Left out: the backward's
        # two column-parallel dX all-reduces, of the same size.
        p = 4
        cfg = CandidateConfig("megatron", dp=1, pp=1, tp=p)
        fwd = self.volume(cfg, "fwd", "all_reduce", "tensor")
        assert fwd == 2 * self.B * self.S * self.H
        assert megatron_comm_volume(p, self.B, self.S, self.H) == \
            pytest.approx((p - 1) / p * fwd)
        assert self.volume(cfg, "bwd", "all_reduce", "tensor") == fwd

    def test_tesseract_counts_two_of_seven_activation_panels(self):
        # 2 b s h / (d q): two [b/dq, s, h/q] A panels.  A layer's four
        # SUMMA linears broadcast seven (QKV 1, proj 1, fc1 1, fc2 4).
        # Left out: the weight panels (12 h^2 / q, independent of the
        # batch), and the whole backward.
        q, d = 2, 2
        cfg = CandidateConfig("tesseract", dp=1, pp=1, tp=d * q * q, q=q,
                              d=d)
        formula = tesseract_comm_volume(q, d, self.B, self.S, self.H)
        assert self.volume(cfg, "fwd", "broadcast", "row") == \
            pytest.approx(7 / 2 * formula)
        assert self.volume(cfg, "fwd", "broadcast", "col") == \
            12 * self.H ** 2 / q
        # backward: dX row reduces and dW row broadcasts, seven panels
        # each; the depth all-reduce of every weight gradient (§3.1)
        assert self.volume(cfg, "bwd", "reduce", "row") == \
            pytest.approx(7 / 2 * formula)
        assert self.volume(cfg, "bwd", "broadcast", "row") == \
            pytest.approx(7 / 2 * formula)
        assert self.volume(cfg, "bwd", "all_reduce", "depth") > \
            12 * self.H ** 2 / q ** 2

    def test_optimus_carries_h_log_p_beyond_the_panels(self):
        # 2 beta b s h^2 q log(p) / p as printed: the Tesseract form's two
        # of seven A panels (d = 1) times h log p.  The printed h^2 has
        # one factor h too many, and log p is a tree broadcast's step
        # count, a time factor rather than a volume.
        q = 2
        p = q * q
        cfg = CandidateConfig("optimus", dp=1, pp=1, tp=p, q=q)
        panels = self.volume(cfg, "fwd", "broadcast", "row")
        assert optimus_comm_volume(p, self.B, self.S, self.H) == \
            pytest.approx(2 / 7 * panels * self.H * math.log(p))
