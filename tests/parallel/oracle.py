"""An independent numpy pre-LN transformer layer: forward and backward.

Every parallel == serial suite uses the serial stack as its reference, and
the serial stack runs the same layer skeleton as every parallel layout.  A
bug in that skeleton would therefore pass them all.  This module writes the
layer again from the paper's equations in plain float64 numpy and imports
nothing from ``repro``; the ``reference`` fixture of ``test_equivalence.py``
checks the serial stack against it before any other suite trusts it.

The model it reproduces: LayerNorm with eps 1e-5 over the last axis; a
fused QKV projection whose weight is ``[Wq | Wk | Wv]``; scores scaled by
``1/sqrt(h/n)`` with an optional causal mask; tanh-approximated GELU; the
residual added to the layer input, ``x + attn(ln1(x))`` then ``+
mlp(ln2(.))``.  Weights are read from the serial stack's parameters by
name (``"0.attn.qkv.w"``) and the gradients come back under the same names.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-5
_GELU_C = np.sqrt(2.0 / np.pi)


def stack(params: dict, x: np.ndarray, dy: np.ndarray, num_layers: int,
          nheads: int, causal: bool = False):
    """``(y, dx, grads)`` of ``num_layers`` layers for input ``x`` and
    output gradient ``dy``."""
    h = x.astype(np.float64)
    caches = []
    for i in range(num_layers):
        p = {k[len(f"{i}."):]: np.asarray(v, np.float64)
             for k, v in params.items() if k.startswith(f"{i}.")}
        h, cache = _layer(p, h, nheads, causal)
        caches.append(cache)
    d = dy.astype(np.float64)
    grads = {}
    for i in reversed(range(num_layers)):
        d, g = _layer_backward(caches[i], d)
        grads.update({f"{i}.{k}": v for k, v in g.items()})
    return h, d, grads


def _layer(p, x, nheads, causal):
    a_in, ln1 = _layernorm(x, p["ln1.g"], p["ln1.b"])
    a, attn = _attention(p, a_in, nheads, causal)
    x1 = x + a
    m_in, ln2 = _layernorm(x1, p["ln2.g"], p["ln2.b"])
    pre = m_in @ p["mlp.fc1.w"] + p["mlp.fc1.b"]
    act = _gelu(pre)
    y = x1 + act @ p["mlp.fc2.w"] + p["mlp.fc2.b"]
    return y, (p, ln1, attn, ln2, m_in, pre, act)


def _layer_backward(cache, dy):
    p, ln1, attn, ln2, m_in, pre, act = cache
    g = {}
    dact = _linear_backward(g, "mlp.fc2", p, act, dy)
    dm_in = _linear_backward(g, "mlp.fc1", p, m_in, dact * _gelu_grad(pre))
    dx1 = dy + _layernorm_backward(g, "ln2", ln2, dm_in)
    da_in = _attention_backward(g, p, attn, dx1)
    return dx1 + _layernorm_backward(g, "ln1", ln1, da_in), g


def _layernorm(x, gain, bias):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv, gain)


def _layernorm_backward(g, name, cache, dy):
    xhat, inv, gain = cache
    g[f"{name}.g"] = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(0)
    g[f"{name}.b"] = dy.reshape(-1, xhat.shape[-1]).sum(0)
    dxhat = dy * gain
    return inv * (dxhat - dxhat.mean(-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(-1, keepdims=True))


def _linear_backward(g, name, p, x, dy):
    x2, dy2 = x.reshape(-1, x.shape[-1]), dy.reshape(-1, dy.shape[-1])
    g[f"{name}.w"] = x2.T @ dy2
    g[f"{name}.b"] = dy2.sum(0)
    return dy @ p[f"{name}.w"].T


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x ** 3)))


def _gelu_grad(x):
    t = np.tanh(_GELU_C * (x + 0.044715 * x ** 3))
    return (0.5 * (1.0 + t)
            + 0.5 * x * (1.0 - t ** 2) * _GELU_C * (1.0 + 3 * 0.044715 * x ** 2))


def _attention(p, x, nheads, causal):
    b, s, h = x.shape
    hd = h // nheads

    def heads(t):
        return t.reshape(b, s, nheads, hd).transpose(0, 2, 1, 3)

    qkv = x @ p["attn.qkv.w"] + p["attn.qkv.b"]
    qh, kh, vh = (heads(t) for t in np.split(qkv, 3, axis=-1))
    scale = 1.0 / np.sqrt(hd)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    if causal:
        scores = scores + np.triu(np.full((s, s), -np.inf), k=1)
    e = np.exp(scores - scores.max(-1, keepdims=True))
    probs = e / e.sum(-1, keepdims=True)
    out = (probs @ vh).transpose(0, 2, 1, 3).reshape(b, s, h)
    return out @ p["attn.proj.w"] + p["attn.proj.b"], (x, qh, kh, vh, probs,
                                                        scale, out)


def _attention_backward(g, p, cache, dy):
    x, qh, kh, vh, probs, scale, out = cache
    b, nheads, s, hd = qh.shape

    def heads(t):
        return t.reshape(b, s, nheads, hd).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(b, s, nheads * hd)

    dout_h = heads(_linear_backward(g, "attn.proj", p, out, dy))
    dprobs = dout_h @ vh.transpose(0, 1, 3, 2)
    dv = probs.transpose(0, 1, 3, 2) @ dout_h
    dscores = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True)) * scale
    dqkv = np.concatenate([merge(dscores @ kh),
                           merge(dscores.transpose(0, 1, 3, 2) @ qh),
                           merge(dv)], axis=-1)
    return _linear_backward(g, "attn.qkv", p, x, dqkv)
