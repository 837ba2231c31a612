"""Differentiable primitives over :class:`~pointer_gpt.tensor.Tensor`.

Every op computes its forward result eagerly in numpy and registers a
backward closure on the active tape. The set is deliberately small: just
what a decoder-only transformer with a pointer head needs. `matmul`,
`transpose` and `mean_all` are called only by tests, the bench's included.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, make_output

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715
LOG_FLOOR = 1e-12  # a probability below it scores as log(LOG_FLOOR)
LN_EPS = 1e-5


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _weight_grad(x, g):
    """The gradient of a 2-D w in x @ w: x^T @ g over all leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def add(a, b):
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return make_output(out, (a, b), bwd)


def matmul(a, b):
    """Product over the last two axes. The leading (batch) axes must match,
    or b is 2-D and multiplies every leading slice of a."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or (bd.ndim != 2 and ad.shape[:-2] != bd.shape[:-2]):
        raise ValueError("matmul expects operands of rank >= 2 with equal "
                         "batch axes or a 2-D right operand, got %s and %s"
                         % (ad.shape, bd.shape))
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError("matmul inner dimensions differ: %s vs %s"
                         % (ad.shape, bd.shape))
    out = ad @ bd

    def bwd(g):
        gb = (_weight_grad(ad, g) if bd.ndim == 2
              else ad.swapaxes(-1, -2) @ g)
        return g @ bd.swapaxes(-1, -2), gb

    return make_output(out, (a, b), bwd)


def linear(x, w, b):
    """x @ w + b over any leading axes of x, as one tape record."""
    xd, wd = x.data, w.data
    out = xd @ wd + b.data

    def bwd(g):
        return (g @ wd.swapaxes(-1, -2), _weight_grad(xd, g),
                _unbroadcast(g, b.data.shape))

    return make_output(out, (x, w, b), bwd)


def transpose(x):
    """Swap the last two axes."""
    out = x.data.swapaxes(-1, -2)

    def bwd(g):
        return (g.swapaxes(-1, -2),)

    return make_output(out, (x,), bwd)


def gelu(x):
    """Tanh-approximation GELU (GPT-2 convention)."""
    xd = x.data
    inner = GELU_C * (xd + GELU_A * (xd * xd * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def bwd(g):
        return (g * _gelu_grad(xd, t),)

    return make_output(out, (x,), bwd)


def _gelu_grad(xd, t):
    # d/dx [0.5 x (1 + tanh(c(x + a x^3)))]
    sech2 = 1.0 - t * t
    return (0.5 * (1.0 + t)
            + 0.5 * xd * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * (xd * xd)))


def _softmax(xd):
    e = np.exp(xd - xd.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g, out):
    """Gradient through a softmax over the last axis, given its output."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return (g - dot) * out


def layer_norm(x, gain, bias):
    """Per-row zero-mean/unit-variance normalization with affine."""
    xd = x.data
    d = xd.shape[-1]  # both means: np.mean's arithmetic, not its wrapper
    xc = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        dxhat = g * gain.data
        dx = inv / d * (d * dxhat
                        - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        axes = tuple(range(xd.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return make_output(out, (x, gain, bias), bwd)


def _lead_index(lead, ndim):
    """Index arrays over the leading axes `lead` of an array, each shaped to
    broadcast against an index array of `ndim` axes."""
    return tuple(np.arange(n).reshape((n,) + (1,) * (ndim - i - 1))
                 for i, n in enumerate(lead))


def take_rows(table, indices):
    """Gather rows: table [..., T, d] by indices [..., K]; the leading axes
    of both match, so a 2-D table (an embedding) takes indices of any shape.
    Backward scatter-adds."""
    td = table.data
    idx = np.asarray(indices, dtype=np.int64)
    lead = td.shape[:-2]
    if idx.shape[:len(lead)] != lead:
        raise ValueError("take_rows: indices %s do not lead with the batch "
                         "axes of table %s" % (idx.shape, td.shape))
    if idx.size and (idx.min() < 0 or idx.max() >= td.shape[-2]):
        raise ValueError("row index out of range [0, %d)" % td.shape[-2])
    key = _lead_index(lead, idx.ndim) + (idx,)
    out = td[key]

    def bwd(g):
        gt = np.zeros_like(td)
        np.add.at(gt, key, g)
        return (gt,)

    return make_output(out, (table,), bwd)


def causal_attention(qkv, mask, n_heads):
    """Multi-head softmax(q_h @ k_h^T / sqrt(d_head) + mask) @ v_h -> [..., T,
    d] for qkv [..., S, 3d] = [q | k | v]: the last T rows query, all S rows
    are keys and values, and the first S - T rows' q gets a zero gradient.
    Head h owns columns [h, h+1) * d_head of each of q, k and v. The array
    mask [T, S] is 0 where a query may attend, very negative elsewhere."""
    s, t, d = qkv.shape[-2], mask.shape[-2], qkv.shape[-1] // 3
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def split(x):  # [..., T, d] -> [..., H, T, d_head]
        return x.reshape(*x.shape[:-1], n_heads, d_head).swapaxes(-3, -2)

    def merge(x):  # [..., H, T, d_head] -> [..., T, d]
        return x.swapaxes(-3, -2).reshape(*x.shape[:-3], x.shape[-2], d)

    qd = split(qkv.data[..., s - t:, :d])
    kd, vd = split(qkv.data[..., d:2 * d]), split(qkv.data[..., 2 * d:])
    attn = _softmax(scale * (qd @ kd.swapaxes(-1, -2)) + mask)
    out = merge(attn @ vd)

    def bwd(g):
        g = split(g)
        ds = scale * _softmax_grad(g @ vd.swapaxes(-1, -2), attn)
        # (q^T ds)^T, not ds^T q: the same rounding as matmul + transpose
        dk = (qd.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)
        grad = np.zeros_like(qkv.data)
        gq, gk, gv = (split(grad[..., i * d:(i + 1) * d]) for i in range(3))
        gq[..., s - t:, :] = ds @ kd  # the split views write into grad
        gk[...], gv[...] = dk, attn.swapaxes(-1, -2) @ g
        return (grad,)

    return make_output(out, (qkv,), bwd)


def pointer_mixture(h_src, h_t, w_vocab, pointer, col_mask, ext_ids, width):
    """The output head as one tape record; returns (mixed, attn, p_gen).

    vocab = softmax(h_t @ w_vocab) for h_t [..., N, d]. With pointer None
    (GPT), mixed [..., N, width] is vocab zero-padded, p_gen 1 and attn
    None. With pointer (w_ptr, w_h, b, w_c), attn = softmax(h_t @ w_ptr @ hs^T
    + col_mask) for col_mask [..., S] and hs, the first S = ext_ids.shape[-1]
    rows of h_src [..., T, d]; p_gen = sigmoid(h_t @ w_h + b + (attn @ hs) @
    w_c); mixed is p_gen * vocab plus (1 - p_gen) * attn[..., i] added at
    ext_ids[..., i] (duplicates accumulate). attn and p_gen carry no gradient."""
    ids = np.asarray(ext_ids, dtype=np.int64)
    rows = np.index_exp[..., :ids.shape[-1] if ids.ndim else 0, :]
    hs, ht, wv = h_src.data[rows], h_t.data, w_vocab.data
    if ht.shape[:-2] != hs.shape[:-2]:
        raise ValueError("h_t %s vs h_src %s" % (ht.shape, h_src.shape))
    if ids.shape != hs.shape[:-1] or np.shape(col_mask) != ids.shape:
        raise ValueError("ext_ids %s and col_mask %s vs h_src %s" % (
            ids.shape, np.shape(col_mask), h_src.shape))
    if hs.shape[-2] < 1:
        raise ValueError("pointer_mixture needs a source position")
    if ids.size and (ids.min() < 0 or ids.max() >= width):
        raise ValueError("ext_ids out of range [0, %d)" % width)
    vocab, n_vocab = _softmax(ht @ wv), wv.shape[-1]
    out = np.zeros(vocab.shape[:-1] + (width,), dtype=vocab.dtype)
    if pointer is None:
        out[..., :n_vocab] = vocab

        def vocab_bwd(g):
            g_logits = _softmax_grad(g[..., :n_vocab], vocab)
            return g_logits @ wv.swapaxes(-1, -2), _weight_grad(ht, g_logits)

        return (make_output(out, (h_t, w_vocab), vocab_bwd), None,
                np.ones(ht.shape[:-1] + (1,), dtype=ht.dtype))
    wp, w_h, b, w_c = (t.data for t in pointer)
    a1, hs_t = ht @ wp, hs.swapaxes(-1, -2)
    attn = _softmax(a1 @ hs_t
                    + np.asarray(col_mask, dtype=hs.dtype)[..., None, :])
    context = attn @ hs
    p_gen = 1.0 / (1.0 + np.exp(-(ht @ w_h + b + context @ w_c)))
    cpl = 1.0 - p_gen
    key = _lead_index(attn.shape[:-2], ids.ndim + 1) + (
        np.arange(attn.shape[-2])[:, None], ids[..., None, :])
    np.add.at(out, key, cpl * attn)
    out[..., :n_vocab] += p_gen * vocab

    # terms add up in the order of the op-by-op chain, so both round alike
    def bwd(g):
        g_gen, g_copy = g[..., :n_vocab], g[key]
        g_logits = _softmax_grad(g_gen * p_gen, vocab)
        g_p = (_unbroadcast(g_gen * vocab, p_gen.shape)
               - _unbroadcast(g_copy * attn, cpl.shape))
        g_logit = g_p * p_gen * (1.0 - p_gen)
        g_context = g_logit @ w_c.swapaxes(-1, -2)
        g_ht = (g_logit @ w_h.swapaxes(-1, -2)
                + g_logits @ wv.swapaxes(-1, -2))
        g_scores = _softmax_grad(g_copy * cpl + g_context @ hs_t, attn)
        g_a1 = g_scores @ hs
        g_hs = np.zeros_like(h_src.data)
        g_hs[rows] = (attn.swapaxes(-1, -2) @ g_context
                      + (a1.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2))
        return (g_hs, g_ht + g_a1 @ wp.swapaxes(-1, -2),
                _weight_grad(ht, g_logits), _weight_grad(ht, g_a1),
                _weight_grad(ht, g_logit), _unbroadcast(g_logit, b.shape),
                _weight_grad(context, g_logit))

    return make_output(out, (h_src, h_t, w_vocab, *pointer), bwd), attn, p_gen


def nll(probs, targets, weights):
    """-sum over rows r of weights[r] * log(max(probs[r, targets[r]],
    LOG_FLOOR)) for probs [..., V] and targets, weights [...]; the gradient
    is zero where the floor is active."""
    pd = probs.data
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != pd.shape[:-1]:
        raise ValueError("need one target per row")
    if idx.size and (idx.min() < 0 or idx.max() >= pd.shape[-1]):
        raise ValueError("target out of range")
    weights = np.asarray(weights, dtype=pd.dtype)
    if weights.shape != idx.shape:
        raise ValueError("need one weight per row")
    cols = idx[..., None]
    picked = np.take_along_axis(pd, cols, axis=-1)[..., 0]
    clamped = np.maximum(picked, LOG_FLOOR)
    # 0.0 - x, not -x: a certain prediction scores +0.0
    out = np.asarray(0.0 - (weights * np.log(clamped)).sum(), dtype=pd.dtype)

    def bwd(g):
        gp = np.zeros_like(pd)
        np.put_along_axis(gp, cols, np.where(
            picked > LOG_FLOOR, (0.0 - g) * weights / clamped, 0.0)[..., None],
            axis=-1)
        return (gp,)

    return make_output(out, (probs,), bwd)


def mean_all(x):
    n = x.data.size
    out = np.asarray(x.data.mean(), dtype=x.dtype)

    def bwd(g):
        return (np.broadcast_to(g / n, x.data.shape).astype(x.dtype, copy=True),)

    return make_output(out, (x,), bwd)

