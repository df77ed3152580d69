"""Tests for the attention core and serial multi-head attention."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.attention import (
    attention_core,
    attention_core_backward,
    fused_qkv_weight,
)
from repro.parallel.layers import SelfAttention
from repro.varray.varray import VArray


def _v(arr):
    return VArray.from_numpy(np.asarray(arr, dtype=np.float32))


def _reference_attention(q, k, v, nheads, scale):
    b, s, h = q.shape
    hd = h // nheads

    def heads(x):
        return x.reshape(b, s, nheads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = heads(q), heads(k), heads(v)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    e = np.exp(scores - scores.max(-1, keepdims=True))
    probs = e / e.sum(-1, keepdims=True)
    out = probs @ vh
    return out.transpose(0, 2, 1, 3).reshape(b, s, h)


class TestAttentionCore:
    def test_matches_reference(self, ctx1, rng):
        b, s, h, nh = 2, 5, 8, 2
        q = rng.normal(size=(b, s, h)).astype(np.float32)
        k = rng.normal(size=(b, s, h)).astype(np.float32)
        v = rng.normal(size=(b, s, h)).astype(np.float32)
        scale = 1.0 / np.sqrt(h / nh)
        out, _ = attention_core(ctx1, _v(q), _v(k), _v(v), nh, scale)
        assert np.allclose(out.numpy(), _reference_attention(q, k, v, nh, scale),
                           atol=1e-4)

    def test_single_head_equals_multi_with_nh1(self, ctx1, rng):
        b, s, h = 1, 4, 6
        q = rng.normal(size=(b, s, h)).astype(np.float32)
        out1, _ = attention_core(ctx1, _v(q), _v(q), _v(q), 1, 0.5)
        ref = _reference_attention(q, q, q, 1, 0.5)
        assert np.allclose(out1.numpy(), ref, atol=1e-4)

    def test_shape_mismatch_rejected(self, ctx1):
        with pytest.raises(ShapeError):
            attention_core(ctx1, VArray.symbolic((1, 2, 4)),
                           VArray.symbolic((1, 3, 4)),
                           VArray.symbolic((1, 2, 4)), 2, 1.0)

    def test_heads_must_divide_hidden(self, ctx1):
        with pytest.raises(ShapeError):
            attention_core(ctx1, VArray.symbolic((1, 2, 5)),
                           VArray.symbolic((1, 2, 5)),
                           VArray.symbolic((1, 2, 5)), 2, 1.0)

    def test_backward_shapes(self, ctx1, rng):
        b, s, h, nh = 2, 3, 8, 4
        q = _v(rng.normal(size=(b, s, h)))
        out, cache = attention_core(ctx1, q, q, q, nh, 0.5)
        dq, dk, dv = attention_core_backward(
            ctx1, cache, _v(rng.normal(size=(b, s, h)))
        )
        assert dq.shape == dk.shape == dv.shape == (b, s, h)

    def test_backward_finite_difference(self, ctx1, rng):
        b, s, h, nh = 1, 3, 4, 2
        scale = 1.0 / np.sqrt(h / nh)
        qn = rng.normal(size=(b, s, h)).astype(np.float32)
        kn = rng.normal(size=(b, s, h)).astype(np.float32)
        vn = rng.normal(size=(b, s, h)).astype(np.float32)
        dy = rng.normal(size=(b, s, h)).astype(np.float32)
        _, cache = attention_core(ctx1, _v(qn), _v(kn), _v(vn), nh, scale)
        dq, dk, dv = attention_core_backward(ctx1, cache, _v(dy))
        eps = 1e-3
        for name, base, grad in [("q", qn, dq), ("k", kn, dk), ("v", vn, dv)]:
            idx = (0, 1, 2)
            up, dn = base.copy(), base.copy()
            up[idx] += eps
            dn[idx] -= eps
            args_up = {"q": qn, "k": kn, "v": vn}
            args_dn = {"q": qn, "k": kn, "v": vn}
            args_up[name] = up
            args_dn[name] = dn
            yu = _reference_attention(args_up["q"], args_up["k"], args_up["v"],
                                      nh, scale)
            yd = _reference_attention(args_dn["q"], args_dn["k"], args_dn["v"],
                                      nh, scale)
            num = ((yu - yd) * dy).sum() / (2 * eps)
            assert abs(num - grad.numpy()[idx]) < 2e-2, name


class TestFusedQKVWeight:
    def test_shape_and_layout(self, ctx1):
        w = fused_qkv_weight(ctx1, 8, ("t",))
        assert w.shape == (8, 24)

    def test_components_independent(self, ctx1):
        w = fused_qkv_weight(ctx1, 8, ("t",))
        assert not np.array_equal(w[:, :8], w[:, 8:16])

    def test_deterministic(self, ctx1):
        a = fused_qkv_weight(ctx1, 4, ("x",))
        b = fused_qkv_weight(ctx1, 4, ("x",))
        assert np.array_equal(a, b)


class TestMultiHeadAttention:
    def test_output_shape(self, ctx1, rng):
        mha = SelfAttention(ctx1, hidden=8, nheads=2)
        x = _v(rng.normal(size=(2, 5, 8)))
        y = mha.forward(x)
        assert y.shape == (2, 5, 8)
        mha.backward(_v(np.zeros((2, 5, 8))))

    def test_permutation_equivariance(self, ctx1, rng):
        """Self-attention without positions commutes with permuting the
        sequence — a structural invariant of Eq. 6."""
        mha = SelfAttention(ctx1, hidden=8, nheads=2)
        x = rng.normal(size=(1, 5, 8)).astype(np.float32)
        perm = np.array([3, 1, 4, 0, 2])
        y = mha.forward(_v(x)).numpy()
        mha.backward(_v(np.zeros_like(x)))
        y_perm = mha.forward(_v(x[:, perm])).numpy()
        mha.backward(_v(np.zeros_like(x)))
        assert np.allclose(y[:, perm], y_perm, atol=1e-4)

    def test_heads_must_divide(self, ctx1):
        with pytest.raises(ShapeError):
            SelfAttention(ctx1, hidden=10, nheads=3)

    def test_backward_accumulates_param_grads(self, ctx1, rng):
        mha = SelfAttention(ctx1, hidden=4, nheads=2)
        x = _v(rng.normal(size=(1, 3, 4)))
        mha.forward(x)
        mha.backward(_v(rng.normal(size=(1, 3, 4))))
        grads = [p.grad for _, p in mha.parameters()]
        assert all(g is not None for g in grads)
