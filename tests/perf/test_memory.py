"""Tests for the Eq. 7-10 memory models, and the §3.1 comparison they
make, read off the planner's per-layer memory model."""

import numpy as np
import pytest

from repro.errors import GridError
from repro.perf.memory import (
    elements_to_bytes,
    megatron_matmul_memory,
    solomonik_matmul_memory,
    summa_matmul_memory,
    tesseract_matmul_memory,
)
from repro.hardware.spec import meluxina
from repro.plan.cost import PlanCostModel
from repro.plan.space import CandidateConfig, ModelSpec
from repro.util.mathutil import ceil_div


class TestMatmulMemory:
    def test_eq8_formula(self):
        # a*b/p + b*c*d/p + a*c/p with p = d q^2
        a, b, c, q, d = 8, 4, 6, 2, 2
        p = d * q * q
        expect = a * b / p + b * c * d / p + a * c / p
        assert tesseract_matmul_memory(a, b, c, q, d) == pytest.approx(expect)

    def test_eq10_formula(self):
        a, b, c, p = 8, 4, 6, 4
        assert megatron_matmul_memory(a, b, c, p) == pytest.approx(
            a * b + b * c / p + a * c / p)

    def test_paper_comparison_tesseract_less_than_megatron(self):
        """§3.1: 'Tesseract allocates less memory to each processor than
        its predecessor' — Megatron replicates A."""
        a, b, c = 6144, 3072, 12288  # a big activation-by-weight matmul
        for (q, d) in [(2, 1), (4, 2), (4, 4)]:
            p = d * q * q
            assert (tesseract_matmul_memory(a, b, c, q, d)
                    < megatron_matmul_memory(a, b, c, p))

    def test_matrix_c_term_equal(self):
        """The paper: 'same memory is needed for matrix C'."""
        a, b, c = 64, 32, 16
        q, d = 2, 2
        p = d * q * q
        tess_c = a * c / p
        mega_c = a * c / p
        assert tess_c == mega_c  # both divide C by p

    def test_depth_increases_b_memory_only(self):
        base = tesseract_matmul_memory(64, 32, 16, 4, 1)
        deep = tesseract_matmul_memory(64, 32, 16, 4, 4)
        # p grows 4x: A and C terms shrink; B term (b*c*d/p = b*c/q^2) fixed.
        assert deep < base

    def test_summa_is_tesseract_d1(self):
        assert summa_matmul_memory(8, 4, 6, 2) == tesseract_matmul_memory(
            8, 4, 6, 2, 1)

    def test_solomonik_replicates_both_inputs(self):
        """2.5-D keeps a full [q,q] block of A and B per layer, so its
        footprint exceeds Tesseract's whenever d > 1 and a >> c."""
        a, b, c, q, d = 1024, 64, 64, 4, 4
        assert solomonik_matmul_memory(a, b, c, q, d) > \
            tesseract_matmul_memory(a, b, c, q, d)

    def test_invalid_grids(self):
        with pytest.raises(GridError):
            megatron_matmul_memory(1, 1, 1, 0)
        with pytest.raises(GridError):
            solomonik_matmul_memory(1, 1, 1, 0, 1)


def _estimate(scheme, tp, q=1, d=1, h=256):
    model = ModelSpec("m", hidden=h, num_layers=1, nheads=16, seq_len=64)
    cfg = CandidateConfig(scheme, dp=1, pp=1, tp=tp, q=q, d=d)
    cost = PlanCostModel(meluxina(ceil_div(tp, 4)), tp)
    return cost.estimate(model, cfg, global_batch=16)[1]


class TestTransformerMemory:
    def test_layer_params_dominated_by_12h2(self):
        h = 1024
        total = ModelSpec("m", hidden=h, num_layers=1, nheads=16).param_elements
        assert total == pytest.approx(12 * h * h, rel=0.01)

    def test_per_gpu_params_scaling(self):
        serial = _estimate("serial", 1).params_bytes
        mega = _estimate("megatron", 16).params_bytes
        tess = _estimate("tesseract", 64, q=4, d=4).params_bytes
        assert mega < serial
        assert tess < serial
        # tesseract weights shrink by q^2 = 16 just like megatron's p = 16
        assert tess == pytest.approx(mega, rel=0.05)

    def test_per_gpu_activation_hierarchy(self):
        """Eq. 9 vs Eq. 8 on a whole layer's saved tensors: Megatron
        replicates the LayerNorm and residual-width activations; Optimus
        divides them by q^2; Tesseract by d*q^2 (all but the per-row
        LayerNorm statistics, a 1/h share)."""
        serial = _estimate("serial", 1).activation_bytes
        mega = _estimate("megatron", 16).activation_bytes
        opti = _estimate("optimus", 16, q=4).activation_bytes
        tess = _estimate("tesseract", 64, q=4, d=4).activation_bytes
        assert opti == pytest.approx(serial / 16, rel=0.01)
        assert tess == pytest.approx(serial / 64, rel=0.01)
        assert mega > 0.3 * serial      # 4 of the 13 [b, s, h] units
        assert mega > opti > tess

    def test_elements_to_bytes(self):
        assert elements_to_bytes(10, np.float32) == 40
        assert elements_to_bytes(10, np.float16) == 20


class TestMeasuredAgainstModel:
    def test_simulated_blocks_match_eq8(self):
        """The simulator's actual per-rank block sizes reproduce Eq. 7."""
        from repro.pblas import layouts

        a, b, c, q, d = 16, 8, 8, 2, 2
        A = layouts.split_a(np.zeros((a, b), dtype=np.float32), q, d)
        B = layouts.split_b(np.zeros((b, c), dtype=np.float32), q, d)
        p = d * q * q
        per_rank = A[(0, 0, 0)].size + B[(0, 0, 0)].size + (a // (d * q)) * (c // q)
        assert per_rank == pytest.approx(tesseract_matmul_memory(a, b, c, q, d))
