"""Model tests: init, causality, pointer head, mixture, sequence loss."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from pointer_gpt import ops
from pointer_gpt.decoder import make_step_fn
from pointer_gpt.model import (
    MAX_LAYERS, MAX_PARAMS, ModelConfig, _attention, _causal_mask,
    init_params, forward_hidden, param_specs, pointer_step, sequence_loss, teacher_forced_ids,
)
from pointer_gpt.tensor import Tape, Tensor, backward, make_output
from pointer_gpt.tokenizer import EOS, SEP, UNK, EncodedExample
from reference_ops import mul, softmax_rows, sum_all


def tiny_config(**overrides):
    base = dict(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                max_seq_len=16, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


TOY_EXAMPLE = EncodedExample(source_ids=[6, 7, 1, 8, EOS],
                             source_ext_ids=[6, 7, 20, 8, EOS],
                             oov=["marker"],
                             target_ext_ids=[7, 20, 9, EOS])


class TestModelConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", 20.0), ("d_model", "16"), ("n_heads", True),
        ("n_layers", 2.0), ("d_ff", None), ("max_seq_len", 16.0),
        ("seed", "3")])
    def test_int_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match="%s must be an integer" % field):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("value", ["no", 0, 1.0, None])
    def test_baseline_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="baseline must be true or false"):
            tiny_config(baseline=value)

    @pytest.mark.parametrize("value", [4, 0, -1])
    def test_vocab_size_holds_the_special_tokens(self, value):
        with pytest.raises(ValueError,
                           match="vocab_size must be at least 5, got %d"
                           % value):
            tiny_config(vocab_size=value)
        tiny_config(vocab_size=5)

    def test_layer_count_is_bounded_before_param_specs(self, monkeypatch):
        def unbounded(config):
            raise AssertionError("param_specs ran for %d layers"
                                 % config.n_layers)

        monkeypatch.setattr("pointer_gpt.model.param_specs", unbounded)
        with pytest.raises(ValueError, match="n_layers must be at most %d, "
                           "got 1000000000" % MAX_LAYERS):
            tiny_config(n_layers=10 ** 9)

    def test_parameter_count_is_bounded(self):
        # at d_model 1 each max_seq_len step adds one parameter (a pos_emb row)
        def count(cfg):
            return sum(math.prod(shape)
                       for shape, _ in param_specs(cfg).values())

        dims = dict(vocab_size=5, d_model=1, n_heads=1, n_layers=1, d_ff=1)
        at_bound = 8 + MAX_PARAMS - count(ModelConfig(max_seq_len=8, **dims))
        assert count(ModelConfig(max_seq_len=at_bound, **dims)) == MAX_PARAMS
        with pytest.raises(ValueError, match="model has %d parameters, more "
                           "than %d" % (MAX_PARAMS + 1, MAX_PARAMS)):
            ModelConfig(max_seq_len=at_bound + 1, **dims)

    @pytest.mark.parametrize("field",
                             ["vocab_size", "d_model", "d_ff", "max_seq_len"])
    def test_every_dimension_is_bounded(self, field):
        with pytest.raises(ValueError, match="more than %d" % MAX_PARAMS):
            tiny_config(**{field: 10 ** 9})

    @pytest.mark.parametrize("dims", [
        {},  # the README config and the bench model, at vocab max_size 4000
        # the largest the CLI property tests generate
        dict(d_model=64, n_layers=64, d_ff=64, max_seq_len=64),
    ], ids=["defaults", "property-tests"])
    def test_documented_models_are_admitted(self, dims):
        ModelConfig(vocab_size=4000, **dims)

    def test_round_trip_dict(self):
        cfg = tiny_config(baseline=True)
        assert ModelConfig(**asdict(cfg)) == cfg


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(tiny_config())
        b = init_params(tiny_config())
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        a = init_params(tiny_config(seed=1))
        b = init_params(tiny_config(seed=2))
        assert not np.array_equal(a["tok_emb"].data, b["tok_emb"].data)

    def test_embedding_std_near_002(self):
        cfg = ModelConfig(vocab_size=200, d_model=64, n_heads=2, seed=0)
        p = init_params(cfg)
        assert float(p["tok_emb"].data.std()) == pytest.approx(0.02,
                                                               abs=0.005)

    def test_biases_zero_gains_one(self):
        p = init_params(tiny_config())
        assert not p["h0.attn.b_qkv"].data.any()
        assert not p["gate.b"].data.any()
        assert (p["h0.ln1.gain"].data == 1.0).all()


class TestForwardHidden:
    def test_output_shape(self):
        cfg = tiny_config()
        p = init_params(cfg)
        h = forward_hidden(p, [5, 6, 7], cfg)
        assert h.shape == (3, cfg.d_model)

    def test_single_token(self):
        cfg = tiny_config()
        p = init_params(cfg)
        assert forward_hidden(p, [5], cfg).shape == (1, cfg.d_model)

    def test_causality_under_future_perturbation(self):
        cfg = tiny_config()
        p = init_params(cfg)
        rng = np.random.default_rng(0)
        ids = list(rng.integers(5, cfg.vocab_size, size=8))
        base = forward_hidden(p, ids, cfg).data
        for t in range(7):
            changed = list(ids)
            changed[t + 1] = (changed[t + 1] + 1) % (cfg.vocab_size - 5) + 5
            other = forward_hidden(p, changed, cfg).data
            assert np.abs(other[: t + 1] - base[: t + 1]).max() <= 1e-6

    def test_too_long_rejected(self):
        cfg = tiny_config()
        p = init_params(cfg)
        with pytest.raises(ValueError):
            forward_hidden(p, [5] * (cfg.max_seq_len + 1), cfg)

    def test_out_of_range_id_rejected(self):
        cfg = tiny_config()
        p = init_params(cfg)
        with pytest.raises(ValueError):
            forward_hidden(p, [cfg.vocab_size], cfg)


class TestKVCache:
    @pytest.mark.parametrize("chunks", [[9, 1, 1, 1], [4, 3, 5], [1] * 12])
    def test_chunked_rows_equal_full_forward(self, chunks):
        cfg = tiny_config()
        p = init_params(cfg)
        ids = list(np.random.default_rng(1).integers(0, cfg.vocab_size,
                                                     size=sum(chunks)))
        full = forward_hidden(p, ids, cfg).data
        cache, rows, at = [], [], 0
        for n in chunks:
            rows.append(forward_hidden(p, ids[at:at + n], cfg,
                                       cache=cache).data)
            at += n
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0,
                                   atol=1e-6)
        assert len(cache) == cfg.n_layers
        assert all(qkv.shape == (at, 3 * cfg.d_model) for qkv in cache)

    def test_cache_under_tape_rejected(self):
        cfg = tiny_config()
        p = init_params(cfg)
        with Tape(), pytest.raises(ValueError, match="Tape"):
            forward_hidden(p, [5, 6], cfg, cache=[])

    def test_cached_total_length_checked(self):
        cfg = tiny_config()
        p = init_params(cfg)
        cache = []
        forward_hidden(p, [5] * (cfg.max_seq_len - 1), cfg, cache=cache)
        with pytest.raises(ValueError, match="sequence length %d exceeds"
                           % (cfg.max_seq_len + 1)):
            forward_hidden(p, [5, 6], cfg, cache=cache)
        # the failed call leaves the cache as it was
        forward_hidden(p, [6], cfg, cache=cache)
        assert cache[0].shape[0] == cfg.max_seq_len


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def per_head_attention(x, w, n_heads, mask, r):
    """Causal self-attention one head at a time, in plain numpy.

    Returns the output and, by a hand-written backward, the gradients of
    sum(out * r) with respect to x and to every weight in w.
    """
    d = x.shape[1]
    dh = d // n_heads
    scale = dh ** -0.5
    q, k, v = (x @ w["w" + n] + w["b" + n] for n in "qkv")
    heads, probs = [], []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        p = _softmax_rows(q[:, cols] @ k[:, cols].T * scale + mask)
        probs.append(p)
        heads.append(p @ v[:, cols])
    merged = np.concatenate(heads, axis=1)
    out = merged @ w["wo"] + w["bo"]

    grads = {"wo": merged.T @ r, "bo": r.sum(axis=0)}
    d_merged = r @ w["wo"].T
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for h, p in enumerate(probs):
        cols = slice(h * dh, (h + 1) * dh)
        d_head = d_merged[:, cols]
        dv[:, cols] = p.T @ d_head
        dp = d_head @ v[:, cols].T
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        dq[:, cols] = ds @ k[:, cols]
        dk[:, cols] = ds.T @ q[:, cols]
    dx = np.zeros_like(x)
    for n, dn in zip("qkv", (dq, dk, dv)):
        grads["w" + n] = x.T @ dn
        grads["b" + n] = dn.sum(axis=0)
        dx += dn @ w["w" + n].T
    return out, dx, grads


class TestBatchedAttention:
    """All heads in one batched op against the per-head reference above."""

    T = 6

    def _inputs(self, dtype, seed=0):
        rng = np.random.default_rng(seed)
        d = 8
        x = rng.normal(size=(self.T, d))
        w = {n: rng.normal(0.0, 0.5, size=(d, d)) for n in
             ("wq", "wk", "wv", "wo")}
        w.update({n: rng.normal(0.0, 0.5, size=d) for n in
                  ("bq", "bk", "bv", "bo")})
        r = rng.normal(size=(self.T, d))
        cast = {n: a.astype(dtype) for n, a in w.items()}
        return x.astype(dtype), cast, r.astype(dtype)

    def _batched(self, x, w, n_heads, r):
        """_attention on the reference's weights, with wq, wk and wv (and
        their biases) concatenated; the gradients come back split."""
        cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=n_heads)
        xt = Tensor(x, requires_grad=True)
        fused = {"w_qkv": np.concatenate([w["wq"], w["wk"], w["wv"]], 1),
                 "b_qkv": np.concatenate([w["bq"], w["bk"], w["bv"]]),
                 "wo": w["wo"], "bo": w["bo"]}
        params = {"attn." + n: Tensor(a, requires_grad=True)
                  for n, a in fused.items()}
        mask = _causal_mask(self.T, x.dtype, 0)
        with Tape() as tape:
            out = _attention(params, "attn.", xt, cfg, mask, None, 0)
            loss = sum_all(mul(out, Tensor(r)))
        grads = backward(tape, loss)
        named = {n[len("attn."):]: grads[t] for n, t in params.items()}
        for kind in "wb":
            parts = np.split(named.pop(kind + "_qkv"), 3, axis=-1)
            named.update(zip((kind + n for n in "qkv"), parts))
        return out.data, grads[xt], named

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_forward_float32(self, n_heads):
        x, w, r = self._inputs(np.float32)
        mask = _causal_mask(self.T, np.float32, 0)
        want, _, _ = per_head_attention(x, w, n_heads, mask, r)
        got, _, _ = self._batched(x, w, n_heads, r)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_gradients_float64(self, n_heads):
        x, w, r = self._inputs(np.float64, seed=1)
        mask = _causal_mask(self.T, np.float64, 0)
        _, want_dx, want = per_head_attention(x, w, n_heads, mask, r)
        _, got_dx, got = self._batched(x, w, n_heads, r)
        np.testing.assert_allclose(got_dx, want_dx, rtol=1e-6, atol=1e-12)
        # atol covers bk, whose gradient is zero up to rounding: a key bias
        # shifts each row of scores by a constant, which softmax ignores
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-6,
                                       atol=1e-12, err_msg=name)


def op_chain_linear(x, w, b):
    return ops.add(ops.matmul(x, w), b)


def split_heads(x, n_heads):
    """[..., T, d] -> [..., H, T, d/H] as a tape op; head h gets columns
    [h, h+1) * d/H."""
    *lead, t_len, d = x.shape
    out = x.data.reshape(*lead, t_len, n_heads, d // n_heads).swapaxes(-3, -2)
    return make_output(out, (x,), lambda g: (
        g.swapaxes(-3, -2).reshape(x.shape),))


def merge_heads(x):
    """[..., H, T, d_head] -> [..., T, H * d_head] as a tape op; inverts
    split_heads."""
    *lead, n_heads, t_len, d_head = x.shape
    out = x.data.swapaxes(-3, -2).reshape(*lead, t_len, n_heads * d_head)
    return make_output(out, (x,), lambda g: (
        g.reshape(*lead, t_len, n_heads, d_head).swapaxes(-3, -2),))


def affine(x, scale, shift=0.0):
    """scale * x + shift with python-float coefficients, as a tape op."""
    return make_output(scale * x.data + shift, (x,), lambda g: (scale * g,))


def sigmoid(x):
    """The logistic function, as a tape op."""
    out = 1.0 / (1.0 + np.exp(-x.data))
    return make_output(out, (x,), lambda g: (g * out * (1.0 - out),))


def take_index(x, index):
    """x[index] for a basic (slice) index, as a tape op."""
    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return make_output(x.data[index], (x,), bwd)


def op_chain_attention(qkv, mask, n_heads):
    (s, d3), t = qkv.shape[-2:], mask.shape[-2]
    d = d3 // 3
    qh, kh, vh = (split_heads(take_index(qkv, index), n_heads) for index in (
        np.index_exp[..., s - t:, :d], np.index_exp[..., d:2 * d],
        np.index_exp[..., 2 * d:]))
    scale = 1.0 / math.sqrt(d // n_heads)
    scores = affine(ops.matmul(qh, ops.transpose(kh)), scale)
    attn = softmax_rows(ops.add(scores, Tensor(mask)))
    return merge_heads(ops.matmul(attn, vh))


def pad_cols(x, extra):
    """Append `extra` zero columns, as a tape op."""
    m = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (m + extra,), dtype=x.dtype)
    out[..., :m] = x.data
    return make_output(out, (x,), lambda g: (g[..., :m],))


def scatter_cols(values, col_ids, width):
    """Zeros [..., n, width] plus values[..., n, i] at column
    col_ids[..., i], as a tape op."""
    vd = values.data.reshape(-1, *values.shape[-2:])
    ids = col_ids.reshape(len(vd), -1)
    key = (np.arange(len(vd))[:, None, None], np.arange(vd.shape[1])[:, None],
           ids[:, None, :])
    out = np.zeros(vd.shape[:-1] + (width,), dtype=values.dtype)
    np.add.at(out, key, vd)
    return make_output(out.reshape(values.shape[:-1] + (width,)), (values,),
                       lambda g: (g.reshape(out.shape)[key].reshape(
                           values.shape),))


def op_chain_scatter_add_cols(base, values, col_ids, width):
    return ops.add(pad_cols(base, width - base.shape[-1]),
                   scatter_cols(values, np.asarray(col_ids), width))


def gather_cols(x, cols):
    """x[..., cols[...]] with a trailing axis of 1, as a tape op."""
    cols = cols[..., None]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, cols, g, axis=-1)
        return (gx,)

    return make_output(np.take_along_axis(x.data, cols, axis=-1), (x,), bwd)


def clamped_log(x):
    """log(max(x, LOG_FLOOR)) with a zero gradient at the floor."""
    clamped = np.maximum(x.data, ops.LOG_FLOOR)
    return make_output(np.log(clamped), (x,), lambda g: (
        np.where(x.data > ops.LOG_FLOOR, g / clamped, 0.0),))


def op_chain_nll(probs, targets, weights):
    picked = gather_cols(probs, np.asarray(targets))
    return affine(sum_all(mul(clamped_log(picked),
                              Tensor(weights[..., None]))), -1.0)


def op_chain_pointer_mixture(h_src, h_t, w_vocab, pointer, col_mask,
                             ext_ids, width):
    if pointer is None:  # GPT: the vocabulary softmax alone
        vocab_dist = softmax_rows(ops.matmul(h_t, w_vocab))
        return (pad_cols(vocab_dist, width - vocab_dist.shape[-1]), None,
                np.ones(h_t.shape[:-1] + (1,), dtype=h_t.dtype))
    # the replaced path: the source rows gathered by their own tape op
    s = np.shape(ext_ids)[-1]
    h_src = ops.take_rows(h_src, np.broadcast_to(np.arange(s),
                                                 np.shape(ext_ids)))
    w_ptr, w_h, b, w_c = pointer
    scores = ops.matmul(ops.matmul(h_t, w_ptr), ops.transpose(h_src))
    attn = softmax_rows(ops.add(scores, Tensor(col_mask[:, None, :],
                                               dtype=h_src.dtype)))
    context = ops.matmul(attn, h_src)
    vocab_dist = softmax_rows(ops.matmul(h_t, w_vocab))
    p_gen = sigmoid(ops.add(ops.linear(h_t, w_h, b),
                            ops.matmul(context, w_c)))
    copy_weights = mul(affine(p_gen, -1.0, 1.0), attn)
    mixed = op_chain_scatter_add_cols(mul(p_gen, vocab_dist), copy_weights,
                                      ext_ids, width)
    return mixed, attn.data, p_gen.data


class TestFusedOpsBitIdentity:
    """linear, causal_attention, pointer_mixture and nll against the op
    chains they replace, with q, k and v sliced from qkv, the heads split
    and merged, the scatter, the gate's sigmoid and the affine steps done by
    their own tape ops."""

    def _hidden_and_grads(self, dtype, baseline):
        # heads of 32: scale 1/sqrt(32) is no power of two, so where the
        # backward applies it changes the rounding
        cfg = ModelConfig(vocab_size=60, d_model=64, n_heads=2, n_layers=2,
                          d_ff=128, max_seq_len=64, seed=5, baseline=baseline)
        params = init_params(cfg, dtype=dtype)
        rng = np.random.default_rng(0)
        for t in params.values():  # nonzero biases, unequal gains
            t.data += rng.normal(0.0, 0.05, size=t.shape).astype(dtype)
        src = [int(i) for i in rng.integers(5, 60, size=40)] + [EOS]
        ex = EncodedExample(source_ids=src,
                            source_ext_ids=src[:3] + [60] + src[4:20]
                            + [60] + src[21:],
                            oov=["x"], target_ext_ids=[7, 60] + [9] * 13
                            + [EOS])
        ids = teacher_forced_ids(ex, cfg.vocab_size)
        assert len(ids) == 57
        with Tape() as tape:
            loss = sequence_loss(params, [ex], cfg)
        grads = backward(tape, loss)
        return ([forward_hidden(params, ids, cfg).data, loss.data]
                + [grads[t] for t in params.values()])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hidden_and_gradients_byte_equal_at_t57(self, dtype,
                                                    monkeypatch):
        for baseline in (False, True):
            n_grads = len(param_specs(ModelConfig(vocab_size=60, n_layers=2,
                                                  baseline=baseline)))
            with monkeypatch.context() as patch:
                fused = self._hidden_and_grads(dtype, baseline)
                patch.setattr(ops, "linear", op_chain_linear)
                patch.setattr(ops, "causal_attention", op_chain_attention)
                patch.setattr(ops, "pointer_mixture",
                              op_chain_pointer_mixture)
                patch.setattr(ops, "nll", op_chain_nll)
                chain = self._hidden_and_grads(dtype, baseline)
            assert len(fused) == len(chain) == 2 + n_grads
            for got, want in zip(fused, chain):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()


class TestOpBudget:
    """Op counts on the acceptance config, so that fused ops stay fused."""

    CFG = ModelConfig(vocab_size=60, d_model=64, n_heads=2, n_layers=2,
                      d_ff=128, max_seq_len=64)
    EXAMPLE = EncodedExample(source_ids=[6, 7, 1, 8, EOS],
                             source_ext_ids=[6, 7, 60, 8, EOS],
                             oov=["marker"], target_ext_ids=[7, 60, 9, EOS])

    @pytest.mark.parametrize("baseline", [False, True])
    def test_sequence_loss_tape_records(self, baseline):
        # one padded forward, pointer head and loss for any batch size
        cfg = replace(self.CFG, baseline=baseline)
        params = init_params(cfg)
        batch = [self.EXAMPLE] + mixed_batch(np.random.default_rng(0), v=60,
                                             n_examples=7, max_len=64)
        for examples in (batch[:1], batch):
            with Tape() as tape:
                sequence_loss(params, examples, cfg)
            assert len(tape) <= 27

    @staticmethod
    def _count_op_calls(monkeypatch):
        calls = []
        make = ops.make_output

        def counted(*args):
            calls.append(args)
            return make(*args)

        monkeypatch.setattr(ops, "make_output", counted)
        return calls

    def test_cached_one_row_forward_op_calls(self, monkeypatch):
        params = init_params(self.CFG)
        cache = []
        forward_hidden(params, [6, 7, 8, SEP], self.CFG, cache=cache)
        calls = self._count_op_calls(monkeypatch)
        forward_hidden(params, [9], self.CFG, cache=cache)
        assert 0 < len(calls) <= 24

    def test_one_prefix_step_fn_op_calls(self, monkeypatch):
        ex = self.EXAMPLE
        step_fn = make_step_fn(init_params(self.CFG), ex.source_ids,
                               ex.source_ext_ids, len(ex.oov), self.CFG)
        step_fn([()])
        calls = self._count_op_calls(monkeypatch)
        step_fn([(7,)])
        assert 0 < len(calls) <= 25


class TestPointerStep:
    def setup_method(self):
        self.cfg = tiny_config()
        self.params = init_params(self.cfg)
        self.src = TOY_EXAMPLE.source_ids
        self.ext = TOY_EXAMPLE.source_ext_ids
        self.s = len(self.src)
        self.hidden = forward_hidden(self.params, self.src + [SEP, 7],
                                     self.cfg)

    def test_gate_saturated_to_generate(self):
        # b_gate = +20 drives p_gen to ~1: mixture is the vocab softmax
        self.params["gate.w_h"].data[:] = 0
        self.params["gate.w_c"].data[:] = 0
        self.params["gate.b"].data[:] = 20.0
        mixed, _, p_gen = pointer_step(self.params, self.hidden, self.s + 1,
                                       self.ext, 1, self.cfg)
        assert p_gen > 1.0 - 1e-6
        assert np.abs(mixed[self.cfg.vocab_size:]).max() < 1e-6
        assert mixed.sum() == pytest.approx(1.0, abs=1e-6)

    def test_gate_saturated_to_copy(self):
        self.params["gate.w_h"].data[:] = 0
        self.params["gate.w_c"].data[:] = 0
        self.params["gate.b"].data[:] = -20.0
        mixed, _, p_gen = pointer_step(self.params, self.hidden, self.s + 1,
                                       self.ext, 1, self.cfg)
        assert p_gen < 1e-6
        support = set(self.ext)
        off_support = [w for w in range(len(mixed)) if w not in support]
        assert np.abs(mixed[off_support]).max() < 1e-6
        assert mixed[sorted(support)].sum() == pytest.approx(1.0, abs=1e-6)

    def test_single_source_position(self):
        hidden = forward_hidden(self.params, [6, SEP, 7], self.cfg)
        _, attn, _ = pointer_step(self.params, hidden, 2, [6], 0, self.cfg)
        np.testing.assert_allclose(attn, [1.0])

    def test_returns_mixed_attn_p_gen(self):
        mixed, attn, p_gen = pointer_step(self.params, self.hidden,
                                          self.s + 1, self.ext, 1, self.cfg)
        assert mixed.shape == (self.cfg.vocab_size + 1,)
        assert attn.shape == (self.s,)
        assert type(p_gen) is float

    def test_step_before_source_end_rejected(self):
        with pytest.raises(ValueError, match="pointer_step at %d precedes end "
                           "of source %d" % (self.s - 1, self.s)):
            pointer_step(self.params, self.hidden, self.s - 1, self.ext, 1,
                         self.cfg)

    def test_inconsistent_oov_count_rejected(self):
        with pytest.raises(ValueError, match=r"ext_ids out of range \[0, %d\)"
                           % self.cfg.vocab_size):
            pointer_step(self.params, self.hidden, self.s + 1, self.ext, 0,
                         self.cfg)

    def test_gate_monotone_in_bias(self):
        gates = []
        for b in (-1.0, 0.0, 1.0, 2.0):
            self.params["gate.b"].data[:] = b
            _, _, p_gen = pointer_step(self.params, self.hidden, self.s + 1,
                                       self.ext, 1, self.cfg)
            gates.append(p_gen)
        assert all(a < b for a, b in zip(gates, gates[1:]))


class TestMixtureInvariants:
    def test_hundred_seeded_cases(self):
        rng = np.random.default_rng(123)
        for case in range(100):
            v = int(rng.integers(8, 24))
            cfg = ModelConfig(vocab_size=v,
                              d_model=int(rng.choice([8, 16])),
                              n_heads=int(rng.choice([1, 2])),
                              n_layers=int(rng.integers(1, 3)),
                              d_ff=16, max_seq_len=24, seed=case)
            params = init_params(cfg)
            s = int(rng.integers(1, 8))
            src = list(rng.integers(5, v, size=s))
            oov_count = int(rng.integers(0, 3))
            ext = list(src)
            for k in range(min(oov_count, s)):
                ext[k] = v + k
            hidden = forward_hidden(params, src + [SEP], cfg)
            mixed, _, p_gen = pointer_step(params, hidden, s, ext, oov_count,
                                           cfg)
            assert mixed.sum() == pytest.approx(1.0, abs=1e-6)
            assert (mixed >= 0).all()
            assert 0.0 <= p_gen <= 1.0
            copy_mass = mixed[v:].sum()
            assert copy_mass <= (1.0 - p_gen) + 1e-6

    def test_mixed_dominates_gen_component(self):
        cfg = tiny_config()
        params = init_params(cfg)
        src, ext = TOY_EXAMPLE.source_ids, TOY_EXAMPLE.source_ext_ids
        s = len(src)
        hidden = forward_hidden(params, src + [SEP], cfg)
        mixed, _, p_gen = pointer_step(params, hidden, s, ext, 1, cfg)
        # vocab entries carry at least their generated share
        vocab_logits = hidden.data[s] @ params["w_vocab"].data
        e = np.exp(vocab_logits - vocab_logits.max())
        vocab_dist = e / e.sum()
        assert (mixed[:cfg.vocab_size] >= p_gen * vocab_dist - 1e-6).all()

    def test_repeated_source_word_mass_accumulates(self):
        cfg = tiny_config()
        params = init_params(cfg)
        src = [6, 7, 6, EOS]  # token 6 at positions 0 and 2
        s = len(src)
        hidden = forward_hidden(params, src + [SEP], cfg)
        mixed, attn, p_gen = pointer_step(params, hidden, s, src, 0, cfg)
        vocab_logits = hidden.data[s] @ params["w_vocab"].data
        e = np.exp(vocab_logits - vocab_logits.max())
        gen = p_gen * e[6] / e.sum()
        copy = (1.0 - p_gen) * (attn[0] + attn[2])
        assert mixed[6] == pytest.approx(gen + copy, abs=1e-6)

    def test_baseline_step_is_the_vocabulary_softmax(self):
        cfg = tiny_config(baseline=True)
        params = init_params(cfg)
        src = [6, 7, 6, EOS]
        hidden = forward_hidden(params, src + [SEP], cfg)
        mixed, attn, p_gen = pointer_step(params, hidden, 4, [6, 7, 20, EOS],
                                          1, cfg)
        assert attn is None and p_gen == 1.0
        vocab_logits = hidden.data[4] @ params["w_vocab"].data
        e = np.exp(vocab_logits - vocab_logits.max())
        np.testing.assert_allclose(mixed, np.append(e / e.sum(), 0.0),
                                   rtol=1e-6, atol=1e-9)


class TestSequenceLoss:
    def test_uniform_mixture_gives_log_v(self):
        # zero vocab projection + saturated generate-gate: mixture is
        # uniform over the vocabulary at every step
        cfg = tiny_config(baseline=True)
        params = init_params(cfg)
        params["w_vocab"].data[:] = 0.0
        ex = EncodedExample([6, 7, EOS], [6, 7, EOS], [], [7, EOS])
        loss = float(sequence_loss(params, [ex], cfg).data)
        assert loss == pytest.approx(np.log(cfg.vocab_size), abs=1e-5)

    def test_near_certain_prediction_near_zero_loss(self):
        cfg = tiny_config(baseline=True)
        params = init_params(cfg)
        params["w_vocab"].data[:] = 0.0
        # push all logit mass to the gold tokens via huge bias-like columns
        hidden_probe = EncodedExample([6, EOS], [6, EOS], [], [9, EOS])
        ids = teacher_forced_ids(hidden_probe, cfg.vocab_size)
        h = forward_hidden(params, ids, cfg).data
        # column directions aligned with actual hidden states at each step
        params["w_vocab"].data[:, 9] = 50.0 * h[2] / np.linalg.norm(h[2])
        params["w_vocab"].data[:, EOS] = 50.0 * h[3] / np.linalg.norm(h[3])
        loss = float(sequence_loss(params, [hidden_probe], cfg).data)
        assert loss < 0.05

    def test_overlong_example_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        ex = EncodedExample([6] * 14 + [EOS], [6] * 14 + [EOS], [],
                            [6, 6, 6, EOS])
        with pytest.raises(ValueError):
            sequence_loss(params, [ex], cfg)

    def test_overlong_batch_rejected_by_its_longest_example(self):
        cfg = tiny_config()
        params = init_params(cfg)
        fits = EncodedExample([6, EOS], [6, EOS], [], [6, EOS])
        # 10 source ids + 7 summary ids: max_seq_len + 1 positions
        long = EncodedExample([6] * 9 + [EOS], [6] * 9 + [EOS], [],
                              [6] * 6 + [EOS])
        with pytest.raises(ValueError, match="length %d exceeds max_seq_len"
                           % (cfg.max_seq_len + 1)):
            sequence_loss(params, [fits, long, fits], cfg)

    def test_empty_source_rejected(self):
        # the batch has source columns, but the empty example's are padding
        cfg = tiny_config()
        empty = EncodedExample([], [], [], [6, EOS])
        with pytest.raises(ValueError, match="empty source or target"):
            sequence_loss(init_params(cfg), [TOY_EXAMPLE, empty], cfg)

    def test_loss_is_finite_and_positive_at_init(self):
        cfg = tiny_config()
        params = init_params(cfg)
        loss = float(sequence_loss(params, [TOY_EXAMPLE], cfg).data)
        assert np.isfinite(loss) and loss > 0


def mixed_batch(rng, v=20, n_examples=8, max_len=16):
    """Examples of unequal source and target lengths, with repeated words
    and source words outside the vocabulary, that fit max_len."""
    examples = []
    for _ in range(n_examples):
        s = int(rng.integers(2, 9))
        n = int(rng.integers(1, max_len - s + 1))
        src = [int(i) for i in rng.integers(5, v, size=s - 1)] + [EOS]
        ext = list(src)
        oov = []
        for pos in rng.choice(s - 1, size=min(int(rng.integers(0, 3)), s - 1),
                              replace=False):
            oov.append("w%d" % len(oov))
            src[pos], ext[pos] = UNK, v + len(oov) - 1
        pool = ext[:-1] + [int(i) for i in range(5, v)]
        target = [int(rng.choice(pool)) for _ in range(n - 1)] + [EOS]
        examples.append(EncodedExample(src, ext, oov, target))
    return examples


class TestBatchedSequenceLoss:
    """One padded batch against the mean of its examples taken one by one."""

    @staticmethod
    def _losses(params, examples, cfg):
        batch = float(sequence_loss(params, examples, cfg).data)
        singles = [float(sequence_loss(params, [ex], cfg).data)
                   for ex in examples]
        return batch, float(np.mean(singles))

    @staticmethod
    def _grads(params, examples, cfg):
        def grads_of(batch):
            with Tape() as tape:
                loss = sequence_loss(params, batch, cfg)
            got = backward(tape, loss)
            return [got[t] for t in params.values()]

        singles = [grads_of([ex]) for ex in examples]
        return grads_of(examples), [sum(g) / len(examples)
                                    for g in zip(*singles)]

    def _worst_loss_gap(self, seeds=range(4), baseline=False):
        worst = 0.0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            cfg = tiny_config(seed=seed, baseline=baseline)
            examples = mixed_batch(rng)
            params = init_params(cfg)
            batch, mean = self._losses(params, examples, cfg)
            worst = max(worst, abs(batch - mean))
        return worst

    @pytest.mark.parametrize("baseline", [False, True])
    def test_batch_of_8_loss_equals_mean_float32(self, baseline):
        assert self._worst_loss_gap(baseline=baseline) <= 1e-6

    def test_batch_of_8_gradients_equal_mean_float64(self):
        # bounded by each tensor's largest |g|, not per entry: the
        # attention key biases have a true gradient of 0 (softmax ignores a
        # per-row shift), so theirs is rounding noise of about 1e-20, which
        # the absolute 1e-15 covers
        for seed in range(2):
            rng = np.random.default_rng(seed)
            cfg = tiny_config(seed=seed)
            examples = mixed_batch(rng)
            params = init_params(cfg, dtype=np.float64)
            batch, mean = self._grads(params, examples, cfg)
            for name, got, want in zip(params, batch, mean):
                bound = 1e-6 * np.abs(want).max() + 1e-15
                assert np.abs(got - want).max() <= bound, name

    def test_dropped_source_mask_is_caught(self, monkeypatch):
        mixture = ops.pointer_mixture

        def unmasked(h_src, h_t, w_vocab, pointer, col_mask, *rest):
            return mixture(h_src, h_t, w_vocab, pointer,
                           np.zeros_like(col_mask), *rest)

        monkeypatch.setattr(ops, "pointer_mixture", unmasked)
        assert self._worst_loss_gap() > 1e-3

    def test_weighted_padded_targets_are_caught(self, monkeypatch):
        nll = ops.nll
        monkeypatch.setattr(ops, "nll", lambda probs, targets, weights: nll(
            probs, targets, np.where(weights == 0, weights.max(), weights)))
        assert self._worst_loss_gap() > 1e-3

    def test_batch_lengths_and_oov_vary(self):
        examples = mixed_batch(np.random.default_rng(0))
        assert len({len(ex.source_ids) for ex in examples}) > 1
        assert len({len(ex.target_ext_ids) for ex in examples}) > 1
        assert len({len(ex.oov) for ex in examples}) > 1

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="at least one example"):
            sequence_loss(init_params(cfg), [], cfg)


class TestCausalityOfPointerOutputs:
    def test_twenty_seeded_cases(self):
        rng = np.random.default_rng(77)
        cfg = tiny_config()
        for case in range(20):
            params = init_params(tiny_config(seed=case))
            src = list(rng.integers(5, cfg.vocab_size, size=4))
            ids = src + [SEP, 7, 8]
            hidden = forward_hidden(params, ids, cfg)
            t = len(src) + 1  # predicting from the position after SEP
            base_mixed, _, base_p_gen = pointer_step(params, hidden, t, src,
                                                     0, cfg)
            # perturb a position strictly after t
            changed = list(ids)
            changed[-1] = (changed[-1] + 3) % (cfg.vocab_size - 5) + 5
            hidden2 = forward_hidden(params, changed, cfg)
            after_mixed, _, after_p_gen = pointer_step(params, hidden2, t, src,
                                                       0, cfg)
            assert np.abs(after_mixed - base_mixed).max() <= 1e-6
            assert abs(after_p_gen - base_p_gen) <= 1e-6
