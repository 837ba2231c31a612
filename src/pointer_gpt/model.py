"""Miniature decoder-only transformer with a pointer/copy output head.

The network runs over the concatenated [source, SEP, summary] id sequence.
Blocks are standard pre-norm GPT-2 style (causal multi-head self-attention,
GELU MLP, residuals). The output head mixes a vocabulary softmax with an
attention distribution over source positions through a learned gate, so
source words outside the vocabulary stay reachable via their extended ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ContractError, Tensor, active_tape, require_int
from .tokenizer import PAD, SEP, SPECIAL_TOKENS, UNK

NEG_INF = -1e9
# ModelConfig's size bound, checked before any allocation: the layer cap
# keeps param_specs' loop short, and the parameter cap keeps the float32
# weights within 200 MB (training holds them, their gradients and Adam's
# two moments).
MAX_LAYERS = 64
MAX_PARAMS = 50_000_000


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 128
    max_seq_len: int = 64
    seed: int = 0
    baseline: bool = False  # GPT: vocabulary softmax only, no pointer

    def __post_init__(self):
        # every special token needs an embedding row; SEP is fed on every input
        for name, low in (("vocab_size", len(SPECIAL_TOKENS)), ("d_model", 1),
                          ("n_heads", 1), ("n_layers", 1), ("d_ff", 1),
                          ("max_seq_len", 8), ("seed", 0)):
            require_int(name, getattr(self, name), low)
        if type(self.baseline) is not bool:
            raise ValueError("baseline must be true or false, got %r"
                             % (self.baseline,))
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_layers > MAX_LAYERS:
            raise ValueError("n_layers must be at most %d, got %d"
                             % (MAX_LAYERS, self.n_layers))
        count = sum(math.prod(shape)
                    for shape, _ in param_specs(self).values())
        if count > MAX_PARAMS:
            raise ValueError("model has %d parameters, more than %d"
                             % (count, MAX_PARAMS))


def param_specs(config):
    """{name: (shape, init)} in checkpoint payload order; init is "normal"
    (N(0, 0.02)), "zeros" or "ones". The baseline has no pointer."""
    d, v, f = config.d_model, config.vocab_size, config.d_ff
    specs = {"tok_emb": ((v, d), "normal"),
             "pos_emb": ((config.max_seq_len, d), "normal")}
    for i in range(config.n_layers):
        p = "h%d." % i
        specs[p + "ln1.gain"] = ((d,), "ones")
        specs[p + "ln1.bias"] = ((d,), "zeros")
        for name, width in (("_qkv", 3 * d), ("o", d)):
            specs[p + "attn.w" + name] = ((d, width), "normal")
            specs[p + "attn.b" + name] = ((width,), "zeros")
        specs[p + "ln2.gain"] = ((d,), "ones")
        specs[p + "ln2.bias"] = ((d,), "zeros")
        specs[p + "mlp.w_in"] = ((d, f), "normal")
        specs[p + "mlp.b_in"] = ((f,), "zeros")
        specs[p + "mlp.w_out"] = ((f, d), "normal")
        specs[p + "mlp.b_out"] = ((d,), "zeros")
    specs["ln_f.gain"] = ((d,), "ones")
    specs["ln_f.bias"] = ((d,), "zeros")
    specs["w_vocab"] = ((d, v), "normal")
    if not config.baseline:
        specs["ptr.w"] = ((d, d), "normal")
        specs["gate.w_h"] = ((d, 1), "normal")
        specs["gate.w_c"] = ((d, 1), "normal")
        specs["gate.b"] = ((1, 1), "zeros")
    return specs


def init_params(config, dtype=np.float32):
    """Seeded params as {name: Tensor} in `param_specs` order."""
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, (shape, init) in param_specs(config).items():
        if init == "normal":
            data = rng.normal(0.0, 0.02, size=shape)
        else:
            data = np.full(shape, 1.0 if init == "ones" else 0.0)
        params[name] = Tensor(data, requires_grad=True, dtype=dtype)
    return params


def _causal_mask(t_len, dtype, t_past):
    """[t_len, t_past + t_len]: new row i sees keys up to t_past + i."""
    return np.triu(np.full((t_len, t_past + t_len), NEG_INF, dtype=dtype),
                   k=t_past + 1)


def _attention(params, prefix, x, config, mask, cache, layer):
    """Causal self-attention with every head in one op."""
    qkv = ops.linear(x, params[prefix + "w_qkv"], params[prefix + "b_qkv"])
    if cache is not None:  # attend over the cached rows, then store all
        if layer < len(cache):
            qkv = Tensor(np.concatenate([cache[layer], qkv.data], axis=-2))
        cache[layer:layer + 1] = [qkv.data]
    return ops.linear(ops.causal_attention(qkv, mask, config.n_heads),
                      params[prefix + "wo"], params[prefix + "bo"])


def forward_hidden(params, input_ids, config, cache=None):
    """Hidden states [..., T, d_model] of ids [..., T]; hidden[..., t] depends
    only on ids[..., :t + 1].

    ``cache`` (inference only; empty at first) is a list of per-layer qkv
    arrays [..., T_past, 3 * d_model]; the ids continue at position T_past."""
    if cache is not None and active_tape() is not None:
        raise ContractError("forward_hidden with a cache cannot run under a "
                            "Tape: the qkv concatenation has no backward")
    ids = np.asarray(input_ids, dtype=np.int64)
    t_len = ids.shape[-1]
    t_past = cache[0].shape[-2] if cache else 0
    if ids.size == 0:
        raise ContractError("empty input sequence")
    if t_past + t_len > config.max_seq_len:
        raise ValueError("sequence length %d exceeds max_seq_len %d"
                         % (t_past + t_len, config.max_seq_len))

    x = ops.add(ops.take_rows(params["tok_emb"], ids),
                ops.take_rows(params["pos_emb"], t_past + np.arange(t_len)))
    mask = _causal_mask(t_len, params["tok_emb"].dtype, t_past)
    for i in range(config.n_layers):
        p = "h%d." % i
        normed = ops.layer_norm(x, params[p + "ln1.gain"],
                                params[p + "ln1.bias"])
        x = ops.add(x, _attention(params, p + "attn.", normed, config, mask,
                                  cache, i))
        normed = ops.layer_norm(x, params[p + "ln2.gain"],
                                params[p + "ln2.bias"])
        m = ops.gelu(ops.linear(normed, params[p + "mlp.w_in"],
                                params[p + "mlp.b_in"]))
        x = ops.add(x, ops.linear(m, params[p + "mlp.w_out"],
                                  params[p + "mlp.b_out"]))
    return ops.layer_norm(x, params["ln_f.gain"], params["ln_f.bias"])


def pointer_head(params, h_src, h_t, ext_ids, col_mask, oov_count, config):
    """Batched pointer head: `ops.pointer_mixture`'s (mixed Tensor, attn,
    p_gen) over the extended vocab, vocab_size + oov_count wide.

    h_src [B, T, d] are final-layer states whose first S rows sit at the
    source positions (the encoder side), as in a forward's own output; each
    row of h_t [B, N, d] is the state at a position whose next token is
    being predicted (the decoder side). Callers build the source arrays once
    per batch or document: ext_ids [B, S], the right-padded extended ids;
    col_mask [B, S], 0 on a source position and NEG_INF on padding."""
    pointer = None if config.baseline else tuple(
        params[name] for name in ("ptr.w", "gate.w_h", "gate.b", "gate.w_c"))
    return ops.pointer_mixture(h_src, h_t, params["w_vocab"], pointer,
                               col_mask, ext_ids,
                               config.vocab_size + oov_count)


def pointer_step(params, hidden, step, source_ext_ids, oov_count, config):
    """(mixed [V + oov_count], attn [S] or None (baseline), p_gen float) at
    one position of hidden [T, d], for step >= S = len(source_ext_ids)."""
    s = len(source_ext_ids)
    if step < s:
        raise ContractError("pointer_step at %d precedes end of source %d"
                            % (step, s))
    mixed, attn, p_gen = pointer_head(
        params, ops.take_rows(hidden, [np.arange(s)]),
        ops.take_rows(hidden, [[step]]), [source_ext_ids],
        np.zeros((1, s), dtype=hidden.dtype), oov_count, config)
    return (mixed.data[0, 0], None if attn is None else attn[0, 0],
            float(p_gen[0, 0, 0]))


def positions_needed(source_len, summary_len):
    """Positions a source and a summary (EOS included) take in the model
    input: the source, SEP and every summary id but the last, which is
    only predicted."""
    return source_len + summary_len


def feed_ids(ext_ids, vocab_size):
    """Emitted extended ids as model input: an id >= vocab_size (a copied
    source word) has no embedding row, so it feeds back as UNK."""
    return [UNK if i >= vocab_size else i for i in ext_ids]


def teacher_forced_ids(example, vocab_size):
    """Model input [source, SEP, gold summary prefix] in plain vocab ids."""
    return (list(example.source_ids) + [SEP]
            + feed_ids(example.target_ext_ids[:-1], vocab_size))


def sequence_loss(params, examples, config):
    """Mean over the examples of each one's mean NLL of the mixed
    distribution over its summary prediction steps, from one right-padded
    [B, T] forward."""
    b = len(examples)
    if b < 1:
        raise ContractError("sequence_loss needs at least one example")
    src = np.array([len(ex.source_ids) for ex in examples])
    tgt = np.array([len(ex.target_ext_ids) for ex in examples])
    if min(src.min(), tgt.min()) < 1:
        raise ContractError("example has an empty source or target")
    need = int(positions_needed(src, tgt).max())
    s, n = int(src.max()), int(tgt.max())
    ids = np.full((b, need), PAD)
    targets = np.full((b, n), PAD)
    ext_ids = np.zeros((b, s), dtype=np.int64)  # padding copies 0 mass
    for row, ex in enumerate(examples):
        fed = teacher_forced_ids(ex, config.vocab_size)
        ids[row, :len(fed)] = fed
        targets[row, :tgt[row]] = ex.target_ext_ids
        ext_ids[row, :src[row]] = ex.source_ext_ids
    # the causal mask already keeps every real row off the right padding
    hidden = forward_hidden(params, ids, config)
    steps = np.arange(n)
    real = steps < tgt[:, None]
    mixed, _, _ = pointer_head(
        params, hidden,
        ops.take_rows(hidden, np.where(real, src[:, None] + steps, 0)),
        ext_ids, np.where(np.arange(s) < src[:, None], 0.0,
                          NEG_INF).astype(hidden.dtype),
        max(len(ex.oov) for ex in examples), config)
    # example b's n_b steps weigh 1 / (B * n_b) each; padded steps 0
    weights = (np.asarray(real, dtype=hidden.dtype)
               / np.asarray(b * tgt, dtype=hidden.dtype)[:, None])
    return ops.nll(mixed, targets, weights)
