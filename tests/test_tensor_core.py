"""Tests for the tensor/autodiff kernel, optimizer, and gradcheck oracle."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from pointer_gpt import ops, optim
from pointer_gpt.gradcheck import gradcheck
from pointer_gpt.model import _causal_mask
from pointer_gpt.optim import adam_step, clip_grad_norm
from pointer_gpt.tensor import (ContractError, ShapeError, Tape, Tensor,
                                active_tape, backward)
from pointer_gpt.trainer import TrainConfig
from reference_ops import mul, softmax_rows, sum_all


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        np.testing.assert_allclose(ops.matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(ops.matmul(a, b).data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradcheck_5x4_4x3(self):
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(5, 4)))
        b = t64(rng.normal(size=(4, 3)))
        err = gradcheck(lambda x, y: sum_all(ops.matmul(x, y)), [a, b])
        assert err < 1e-4

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 6, 5))
        out = ops.matmul(Tensor(a), ops.transpose(Tensor(b))).data
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ b[i].T, rtol=1e-12)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (3, 4, 5)),  # batch axes differ
        ((3, 4), (2, 4, 5)),     # ranks differ
    ])
    def test_batch_axes_must_match(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            ops.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    def test_gradcheck_batched_with_transpose(self):
        rng = np.random.default_rng(21)
        a = t64(rng.normal(size=(2, 4, 3)))
        b = t64(rng.normal(size=(2, 5, 3)))
        w = np.asarray(rng.normal(size=(2, 4, 5)))
        err = gradcheck(
            lambda x, y: sum_all(mul(ops.matmul(x, ops.transpose(y)),
                                     Tensor(w))), [a, b])
        assert err < 1e-6

    def test_2d_right_operand_matches_per_slice(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(3, 4, 5))
        w = rng.normal(size=(5, 6))
        out = ops.matmul(Tensor(a), Tensor(w)).data
        assert out.shape == (3, 4, 6)
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ w, rtol=1e-12)

    def test_2d_right_operand_gradients_match_per_slice(self):
        # the weight's gradient is the sum of every slice's gradient
        rng = np.random.default_rng(23)
        a, w = t64(rng.normal(size=(3, 4, 5))), t64(rng.normal(size=(5, 6)))
        r = rng.normal(size=(3, 4, 6))
        with Tape() as tape:
            loss = sum_all(mul(ops.matmul(a, w), Tensor(r)))
        grads = backward(tape, loss)
        for i in range(3):
            np.testing.assert_allclose(grads[a][i], r[i] @ w.data.T,
                                       rtol=1e-12)
        np.testing.assert_allclose(
            grads[w], sum(a.data[i].T @ r[i] for i in range(3)), rtol=1e-12)

    def test_gradcheck_2d_right_operand(self):
        rng = np.random.default_rng(24)
        a = t64(rng.normal(size=(2, 3, 4, 5)))
        w = t64(rng.normal(size=(5, 3)))
        r = np.asarray(rng.normal(size=(2, 3, 4, 3)))
        err = gradcheck(
            lambda x, y: sum_all(mul(ops.matmul(x, y), Tensor(r))), [a, w])
        assert err < 1e-6


class TestLinear:
    def test_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(26)
        x, w, b = (Tensor(rng.normal(size=s).astype(np.float32))
                   for s in ((7, 4), (4, 3), (3,)))
        np.testing.assert_array_equal(
            ops.linear(x, w, b).data, ops.add(ops.matmul(x, w), b).data)

    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
    def test_gradcheck(self, x_shape):
        rng = np.random.default_rng(27)
        x, w, b = (t64(rng.normal(size=s)) for s in (x_shape, (4, 3), (3,)))
        r = np.asarray(rng.normal(size=x_shape[:-1] + (3,)))
        err = gradcheck(
            lambda *a: sum_all(mul(ops.linear(*a), Tensor(r))), [x, w, b])
        assert err < 1e-6


def attention_inputs(seed, lead, t_len, t_past, d=4):
    """qkv [*lead, t_past + T, 3d] = [q | k | v] in float64, the causal mask
    offset by t_past, and a random cotangent for the output. The q of the
    first t_past rows is drawn too, but no query reads it."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=lead + (t_len, d))
    k, v = (rng.normal(size=lead + (t_past + t_len, d)) for _ in range(2))
    mask = _causal_mask(t_len, np.float64, t_past)
    r = np.asarray(rng.normal(size=q.shape))
    q = np.concatenate([rng.normal(size=lead + (t_past, d)), q], axis=-2)
    return t64(np.concatenate([q, k, v], axis=-1)), mask, r


def attention_gradcheck_error(lead, t_past, n_heads):
    qkv, mask, r = attention_inputs(28, lead, 4, t_past)
    return gradcheck(
        lambda a: sum_all(mul(
            ops.causal_attention(a, mask, n_heads), Tensor(r))), [qkv])


class TestCausalAttention:
    @pytest.mark.parametrize("lead", [(), (3, 2)])
    @pytest.mark.parametrize("t_past", [0, 3])
    def test_gradcheck(self, lead, t_past):
        for n_heads in (1, 2):
            assert attention_gradcheck_error(lead, t_past, n_heads) < 1e-6

    def test_dropped_softmax_dot_term_is_caught(self, monkeypatch):
        # mutation control: the softmax backward without its - dot term
        monkeypatch.setattr(ops, "_softmax_grad", lambda g, out: g * out)
        assert attention_gradcheck_error((), 3, 2) > 1e-2

    def test_matches_the_op_chain(self):
        qkv, mask, _ = attention_inputs(29, (2,), 5, 2)
        q, k, v = np.split(qkv.data, 3, axis=-1)
        q, k, v = t64(q[..., -5:, :]), t64(k), t64(v)  # the last 5 rows query
        scores = mul(ops.matmul(q, ops.transpose(k)), Tensor(0.5))
        chain = ops.matmul(softmax_rows(ops.add(scores, Tensor(mask))), v)
        np.testing.assert_array_equal(
            ops.causal_attention(qkv, mask, 1).data, chain.data)

    @pytest.mark.parametrize("n_heads", [2, 4])
    def test_each_head_attends_on_its_column_slice(self, n_heads):
        qkv, mask, _ = attention_inputs(30, (), 5, 2, d=8)
        out = ops.causal_attention(qkv, mask, n_heads).data
        assert out.shape == (5, 8)
        width = 8 // n_heads
        for h in range(n_heads):
            cols = slice(h * width, (h + 1) * width)
            one = ops.causal_attention(t64(np.concatenate(
                [part[:, cols] for part in np.split(qkv.data, 3, axis=-1)],
                axis=-1)), mask, 1).data
            np.testing.assert_allclose(out[:, cols], one, rtol=1e-12)

    def test_batched_matches_per_slice(self):
        qkv, mask, _ = attention_inputs(31, (3, 2), 4, 3)
        out = ops.causal_attention(qkv, mask, 2).data
        for b in range(3):
            one = ops.causal_attention(Tensor(qkv.data[b]), mask, 2).data
            np.testing.assert_allclose(out[b], one, rtol=1e-12)


def first_rows_query():
    """Mutant of ops.causal_attention: the first T rows of qkv query, not
    the last T."""
    source = inspect.getsource(ops.causal_attention)
    queries = "qd = split(qkv.data[..., s - t:, :d])"
    assert source.count(queries) == 1
    namespace = dict(vars(ops))
    exec(source.replace(queries, "qd = split(qkv.data[..., :t, :d])"),
         namespace)
    return namespace["causal_attention"]


def query_rule_failures(attention):
    """The (lead, n_heads) cases, S = 7 rows and T = 3 queries, where the
    T-query call is not the last T rows of the S-query call within 1e-6,
    the q of the first S - T rows gets a gradient other than an exact 0, or
    gradcheck exceeds 1e-6."""
    failures = []
    for lead in [(), (2,), (3, 2)]:
        for n_heads in (1, 2, 4):
            qkv, mask, r = attention_inputs(32, lead, 3, 4, d=8)
            full = attention(qkv, _causal_mask(7, np.float64, 0), n_heads)
            with Tape() as tape:
                out = attention(qkv, mask, n_heads)
                loss = sum_all(mul(out, Tensor(r)))
            grad = backward(tape, loss)[qkv]
            err = gradcheck(lambda a: sum_all(mul(
                attention(a, mask, n_heads), Tensor(r))), [qkv])
            if (np.abs(out.data - full.data[..., -3:, :]).max() > 1e-6
                    or np.any(grad[..., :4, :8] != 0.0) or err > 1e-6):
                failures.append((lead, n_heads))
    return failures


class TestQueryRows:
    """causal_attention's rule for qkv with more rows S than queries T."""

    def test_the_last_rows_query(self):
        assert query_rule_failures(ops.causal_attention) == []

    def test_first_rows_as_queries_is_caught(self):
        # mutation control: every case fails
        assert len(query_rule_failures(first_rows_query())) == 9


def attention_grads(qkv, mask, n_heads, r):
    """The gradients of q, k and v, split from that of qkv."""
    with Tape() as tape:
        loss = sum_all(mul(
            ops.causal_attention(qkv, mask, n_heads), Tensor(r)))
    return np.split(backward(tape, loss)[qkv], 3, axis=-1)


class TestHeads:
    """The head split of q, k, v and the merge of the output, which happen
    inside causal_attention: 4 heads of width 2 over 8 columns."""

    def test_split_heads_gradcheck(self):
        # a cotangent on head 1's output columns reaches only head 1's
        # columns of q, k and v
        qkv, mask, r = attention_inputs(22, (), 3, 0, d=8)
        r[:, :2] = 0.0
        r[:, 4:] = 0.0
        for g in attention_grads(qkv, mask, 4, r):
            assert np.any(g[:, 2:4] != 0.0)
            np.testing.assert_array_equal(g[:, :2], 0.0)
            np.testing.assert_array_equal(g[:, 4:], 0.0)
        err = gradcheck(
            lambda a: sum_all(mul(
                ops.causal_attention(a, mask, 4), Tensor(r))), [qkv])
        assert err < 1e-6

    def test_merge_heads_gradcheck(self):
        qkv, mask, r = attention_inputs(23, (), 3, 2, d=8)
        err = gradcheck(
            lambda a: sum_all(mul(
                ops.causal_attention(a, mask, 4), Tensor(r))), [qkv])
        assert err < 1e-6

    def test_batched_matches_per_slice(self):
        qkv, mask, r = attention_inputs(24, (3,), 5, 0, d=8)
        out = ops.causal_attention(qkv, mask, 4).data
        grads = attention_grads(qkv, mask, 4, r)
        assert out.shape == (3, 5, 8)
        for b in range(3):
            qkv_b = t64(qkv.data[b])
            np.testing.assert_allclose(
                out[b], ops.causal_attention(qkv_b, mask, 4).data,
                rtol=1e-12)
            for g, gb in zip(grads, attention_grads(qkv_b, mask, 4, r[b])):
                np.testing.assert_allclose(g[b], gb, rtol=1e-12, atol=1e-15)

    def test_batched_gradcheck(self):
        qkv, mask, r = attention_inputs(25, (2,), 3, 1, d=8)
        err = gradcheck(
            lambda a: sum_all(mul(
                ops.causal_attention(a, mask, 4), Tensor(r))), [qkv])
        assert err < 1e-6


class TestSoftmaxRows:
    # the forward cases run ops._softmax, which causal_attention and
    # pointer_mixture call; the gradcheck runs the reference tape op
    def test_uniform_logits(self):
        out = ops._softmax(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-7)

    def test_large_logits_no_overflow(self):
        out = ops._softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_known_values(self):
        out = ops._softmax(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.09003, 0.24473, 0.66524]],
                                   atol=1e-4)

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_rows_sum_to_one(self, scale):
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = ops._softmax(rng.normal(size=(4, 6)) * scale)
            assert (out >= 0).all()
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(3, 5)))
        w = np.asarray(rng.normal(size=(3, 5)))
        err = gradcheck(
            lambda a: sum_all(mul(softmax_rows(a), Tensor(w))), x)
        assert err < 1e-6


class TestLayerNorm:
    def test_constant_vector_collapses_to_bias(self):
        x = Tensor(np.full((1, 8), 3.5))
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = ops.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_zero_gain_broadcasts_bias(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 4)))
        out = ops.layer_norm(x, Tensor(np.zeros(4)),
                             Tensor(np.array([1.0, 2.0, 3.0, 4.0])))
        np.testing.assert_allclose(out.data, [[1, 2, 3, 4]] * 2, atol=1e-7)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(3, 8)))
        gain = t64(rng.normal(size=8))
        bias = t64(rng.normal(size=8))
        w = np.asarray(rng.normal(size=(3, 8)))
        err = gradcheck(
            lambda a, g, b: sum_all(
                mul(ops.layer_norm(a, g, b), Tensor(w))),
            [x, gain, bias])
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    def test_byte_equal_to_np_var_formula(self, dtype):
        # the op reuses its centred values for the variance; np.var does
        # the same arithmetic, so the output bytes must not move
        rng = np.random.default_rng(5)
        # widths 5, 48 and 100 are not powers of two, so dividing by the
        # width rounds: a mean taken as sum * (1 / d) would differ there
        for shape in [(1, 1, 64), (4, 1, 64), (8, 49, 64), (57, 64),
                      (3, 5, 8), (3, 5), (2, 7, 48), (4, 100)]:
            for _ in range(20):
                xd, gain, bias = (rng.normal(size=s).astype(dtype)
                                  for s in (shape, shape[-1:], shape[-1:]))
                mu = xd.mean(axis=-1, keepdims=True)
                var = xd.var(axis=-1, keepdims=True)
                want = ((xd - mu) * (1.0 / np.sqrt(var + 1e-5)) * gain
                        + bias)
                got = ops.layer_norm(Tensor(xd), Tensor(gain),
                                     Tensor(bias)).data
                assert got.dtype == want.dtype == dtype
                # value and sign equality: longdouble's padding bytes are
                # undefined, so tobytes() cannot compare them
                assert np.array_equal(got, want), shape
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGelu:
    def test_zero(self):
        assert float(ops.gelu(Tensor([0.0])).data[0]) == 0.0

    def test_large_positive_asymptote(self):
        assert abs(float(ops.gelu(Tensor([10.0])).data[0]) - 10.0) < 1e-4

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = t64(rng.normal(size=(6,)))
        err = gradcheck(lambda a: sum_all(ops.gelu(a)), x)
        assert err < 1e-6


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = sum_all(x)
        np.testing.assert_allclose(backward(tape, loss)[x], np.ones((2, 3)))

    def test_square_grad(self):
        x = t64([[2.0]])
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        np.testing.assert_allclose(backward(tape, loss)[x], [[4.0]])

    def test_non_scalar_loss_rejected(self):
        x = t64(np.ones((2, 2)))
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_returns_exactly_the_reachable_leaves(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(3, 4)))
        w = t64(rng.normal(size=(4, 2)))
        const = t64(rng.normal(size=(3, 2)), requires_grad=False)
        unused = t64(np.ones(2))
        with Tape() as tape:
            h = ops.matmul(x, w)
            y = ops.gelu(ops.add(h, const))
            loss = sum_all(y)
        grads = backward(tape, loss)
        assert grads.keys() == {x, w}
        for t in (h, y, loss, const, unused):
            assert t not in grads
        assert grads[x].shape == x.shape and grads[w].shape == w.shape

    def test_constant_loss_has_no_grads(self):
        with Tape() as tape:
            loss = sum_all(t64(np.ones(3), requires_grad=False))
        assert backward(tape, loss) == {}

    def test_no_accumulation_across_calls(self):
        x = t64(np.ones(3))
        with Tape() as tape:
            loss = sum_all(x)
        first = backward(tape, loss)
        second = backward(tape, loss)
        np.testing.assert_array_equal(first[x], np.ones(3))
        np.testing.assert_array_equal(second[x], np.ones(3))

    def test_repeat_is_bit_identical(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(4, 4)))
        w = t64(rng.normal(size=(4, 4)))
        with Tape() as tape:
            loss = sum_all(ops.gelu(ops.matmul(x, w)))
        first = backward(tape, loss)
        second = backward(tape, loss)
        assert first.keys() == second.keys() == {x, w}
        for t in first:
            assert np.array_equal(first[t], second[t])


class TestTapeNesting:
    def test_ops_record_on_the_innermost_open_tape(self):
        x = t64(np.ones(2))
        assert active_tape() is None
        with Tape() as outer:
            a = sum_all(x)
            with Tape() as inner:
                b = sum_all(x)
                c = sum_all(x)
            d = sum_all(x)
            with pytest.raises(RuntimeError), Tape() as failed:
                e = sum_all(x)
                raise RuntimeError("leaves the inner block")
            f = sum_all(x)
        assert active_tape() is None
        assert sum_all(x).requires_grad  # and records nowhere
        assert [rec[0] for rec in outer] == [a, d, f]
        assert [rec[0] for rec in inner] == [b, c]
        assert [rec[0] for rec in failed] == [e]


def zero_moments(params):
    return [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        adam_step([p], [np.array([1.0], dtype=np.float32)], zero_moments([p]),
                  1, TrainConfig(lr=0.1))
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_zero_grad_leaves_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        adam_step([p], [np.zeros(1, dtype=np.float32)], zero_moments([p]), 1,
                  TrainConfig(lr=0.1))
        np.testing.assert_allclose(p.data, [1.0])

    def test_missing_grad_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        with pytest.raises(ContractError):
            adam_step([p, q], [np.ones(1, dtype=np.float32)],
                      zero_moments([p, q]), 1, TrainConfig())

    def test_quadratic_loss_decreases(self):
        # loss = p^2, grad = 2p
        p = Tensor(np.array([1.0]), requires_grad=True)
        moments = zero_moments([p])
        losses = []
        for t in (1, 2):
            losses.append(float(p.data[0] ** 2))
            adam_step([p], [2.0 * p.data], moments, t, TrainConfig(lr=0.1))
        losses.append(float(p.data[0] ** 2))
        assert losses[0] > losses[1] > losses[2]

    TCFG = TrainConfig(lr=0.05)
    GRADS = (np.array([0.2, -0.5, 0.03]), np.array([-0.4, 0.1, 0.06]))

    @pytest.fixture
    def constants_off_default(self, monkeypatch):
        # every Adam constant off its value; eps is large enough to matter
        for name, value in (("BETA1", 0.7), ("BETA2", 0.95), ("EPS", 0.3)):
            monkeypatch.setattr(optim, name, value)

    @staticmethod
    def closed_form(tcfg, grads, mistake=None):
        """The sum of Kingma & Ba's bias-corrected updates over the steps,
        or of the updates an optimizer with the named mistake makes."""
        b1, b2 = optim.BETA1, optim.BETA2
        if mistake == "swapped betas":
            b1, b2 = b2, b1
        m = v = total = 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            c1, c2, eps = 1 - b1 ** t, 1 - b2 ** t, optim.EPS
            if mistake == "eps without sqrt(correction2)":
                eps = optim.EPS / np.sqrt(c2)
            if mistake == "no bias correction":
                c1 = c2 = 1
            total = total + tcfg.lr * (m / c1) / (np.sqrt(v / c2) + eps)
        return total

    @pytest.mark.usefixtures("constants_off_default")
    def test_train_config_settings_reach_the_update(self):
        p = Tensor(np.array([1.0, 2.0, 3.0]), dtype=np.float64,
                   requires_grad=True)
        start = p.data.copy()
        moments = zero_moments([p])
        for t, g in enumerate(self.GRADS, start=1):
            adam_step([p], [g], moments, t, self.TCFG)
        want = start - self.closed_form(self.TCFG, self.GRADS)
        np.testing.assert_allclose(p.data, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mistake", [
        "swapped betas", "eps without sqrt(correction2)",
        "no bias correction"])
    @pytest.mark.usefixtures("constants_off_default")
    def test_each_mistake_is_outside_the_tolerance(self, mistake):
        # mutation control: these settings and grads tell each mistake apart
        right = self.closed_form(self.TCFG, self.GRADS)
        wrong = self.closed_form(self.TCFG, self.GRADS, mistake)
        assert np.max(np.abs(wrong - right) / np.abs(right)) > 1e-3


class TestClipGradNorm:
    def test_below_threshold_unchanged(self):
        (g,), norm = clip_grad_norm([np.array([0.3, 0.4], dtype=np.float32)],
                                    1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(g, [0.3, 0.4])

    def test_3_4_5_triangle(self):
        (g,), norm = clip_grad_norm([np.array([3.0, 4.0], dtype=np.float32)],
                                    1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(g, [0.6, 0.8], atol=1e-7)

    def test_postclip_norm_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            grads = [rng.normal(size=shape).astype(np.float32) * 10
                     for shape in [(3, 3), (5,), (2, 4)]]
            clipped, _ = clip_grad_norm(grads, 1.0)
            total = sum(float((g ** 2).sum()) for g in clipped)
            assert np.sqrt(total) <= 1.0 + 1e-6

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        once, _ = clip_grad_norm([rng.normal(size=6).astype(np.float32) * 3],
                                 1.0)
        twice, _ = clip_grad_norm(once, 1.0)
        np.testing.assert_array_equal(once[0], twice[0])

    def test_shared_buffer_clipped_once_inputs_unchanged(self):
        # add's backward hands the same gradient array to both operands
        a = t64([3.0, 0.0])
        b = t64([0.0, 4.0])
        with Tape() as tape:
            loss = sum_all(mul(ops.add(a, b), Tensor(np.array([3.0, 4.0]))))
        grads = backward(tape, loss)
        assert np.shares_memory(grads[a], grads[b])
        before = grads[a].copy()
        (ga, gb), norm = clip_grad_norm([grads[a], grads[b]], 1.0)
        assert norm == pytest.approx(np.sqrt(50.0))
        want = before / np.sqrt(50.0)
        np.testing.assert_allclose(ga, want)
        np.testing.assert_allclose(gb, want)
        np.testing.assert_array_equal(grads[a], before)


def mixture_inputs(lead, pointed, seed=14):
    """float64 pointer_mixture inputs for `lead` examples of 4 source rows,
    3 decoder rows, d 4 and a vocabulary of 5: (h_src, h_t, w_vocab,
    pointer, col_mask, ext_ids), pointer being (w_ptr, w_h, b, w_c) or, if
    not `pointed`, None; duplicate ext_ids lie below the width 8. With more
    than one example, the last one's last source row is masked off."""
    rng = np.random.default_rng(seed)
    h_src, h_t = (t64(rng.normal(size=lead + (n, 4))) for n in (4, 3))
    w_ptr, w_vocab = (t64(rng.normal(size=shape)) for shape in ((4, 4),
                                                               (4, 5)))
    gate = tuple(t64(rng.normal(size=shape)) for shape in ((4, 1), (1, 1),
                                                           (4, 1)))
    mask = np.zeros(lead + (4,))
    if lead[0] > 1:
        mask[-1, -1] = -1e9
    ids = rng.integers(0, 8, size=lead + (4,))
    ids[..., 1] = ids[..., 0]
    pointer = (w_ptr,) + gate if pointed else None
    return h_src, h_t, w_vocab, pointer, mask, ids


def mixture_gradcheck_error(lead, pointed):
    h_src, h_t, w_vocab, pointer, mask, ids = mixture_inputs(lead, pointed)
    r = np.random.default_rng(16).normal(size=lead + (3, 8))

    def f(*t):
        mixed = ops.pointer_mixture(*t[:3], t[3:] or None, mask, ids, 8)[0]
        return sum_all(mul(mixed, Tensor(r)))

    return gradcheck(f, [h_src, h_t, w_vocab] + list(pointer or ()))


def long_source_mismatches(mixture, pointed):
    """What differs between `mixture` on an h_src of 6 rows and
    pointer_mixture on its first S = 4 rows, on mixture_inputs((2,),
    pointed): the names of the outputs and input gradients that are not
    bit-equal, and "tail" unless rows >= S get exactly zero gradient."""
    h_src, h_t, w_vocab, pointer, mask, ids = mixture_inputs((2,), pointed)
    extra = np.random.default_rng(18).normal(size=(2, 2, 4))
    long = t64(np.concatenate([h_src.data, extra], axis=-2))
    r = np.random.default_rng(16).normal(size=(2, 3, 8))

    def run(op, hs):
        with Tape() as tape:
            mixed, attn, p_gen = op(hs, h_t, w_vocab, pointer, mask, ids, 8)
            loss = sum_all(mul(mixed, Tensor(r)))
        grads = backward(tape, loss)
        g_hs = grads.get(hs, np.zeros_like(hs.data))  # GPT: no h_src input
        out = {"mixed": mixed.data, "attn": attn, "p_gen": p_gen,
               "h_src": g_hs[:, :4]}
        for name, t in zip(("h_t", "w_vocab", "w_ptr", "w_h", "b", "w_c"),
                           (h_t, w_vocab) + (pointer or ())):
            out[name] = grads[t]
        return out, g_hs[:, 4:]

    got, tail = run(mixture, long)
    want, _ = run(ops.pointer_mixture, t64(long.data[:, :4]))

    def same(a, b):
        return (a is None and b is None) or (
            a is not None and b is not None and a.shape == b.shape
            and a.tobytes() == b.tobytes())

    return ([name for name in want if not same(got[name], want[name])]
            + ([] if np.all(tail == 0.0) else ["tail"]))


class TestGradcheck:
    def test_sum_has_zero_error(self):
        # power-of-two step keeps every float op exact for a linear f
        x = t64(np.arange(4.0))
        assert gradcheck(lambda a: sum_all(a), x, h=0.25) == 0.0

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(9)
        x = t64(rng.normal(size=(4, 6)))
        targets = np.array([1, 3, 0, 5])

        assert gradcheck(lambda a: ops.nll(softmax_rows(a), targets,
                                           np.full(4, 0.25)), x) < 1e-6

    def test_corrupted_backward_detected(self, monkeypatch):
        # negative control: a wrong gelu derivative must be flagged
        from pointer_gpt import ops as ops_mod
        real = ops_mod._gelu_grad
        monkeypatch.setattr(ops_mod, "_gelu_grad",
                            lambda xd, t: real(xd, t) * 1.05)
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(5,)))
        assert gradcheck(lambda a: sum_all(ops.gelu(a)), x) > 1e-2


class TestElementwiseOps:
    # pointer_mixture scatter-adds the copy mass (1 - p_gen) * attn onto
    # the extended-vocabulary columns of each example's source ids

    def test_scatter_add_accumulates_duplicates(self):
        # zero h_t and weights: attn is uniform, p_gen = sigmoid(0) = 0.5
        # and the vocab softmax over 2 columns is uniform
        h_src, h_t, w_ptr, w_vocab, w_h, b, w_c = (
            t64(np.zeros(shape)) for shape in ((1, 3, 2), (1, 1, 2), (2, 2),
                                               (2, 2), (2, 1), (1, 1), (2, 1)))
        mixed, attn, p_gen = ops.pointer_mixture(
            h_src, h_t, w_vocab, (w_ptr, w_h, b, w_c), np.zeros((1, 3)),
            np.array([[1, 1, 3]]), 4)
        np.testing.assert_allclose(attn, np.full((1, 1, 3), 1.0 / 3.0))
        assert p_gen.tolist() == [[[0.5]]]
        np.testing.assert_allclose(
            mixed.data, [[[0.25, 0.25 + 1.0 / 3.0, 0.0, 1.0 / 6.0]]])

    def test_scatter_add_gradcheck(self):
        # every input, the pointer head and the baseline (pointer None)
        for pointed in (True, False):
            assert mixture_gradcheck_error(lead=(1,), pointed=pointed) < 1e-6

    def test_scatter_add_input_checks(self):
        args = mixture_inputs((1,), pointed=True)[:-2]
        mask = np.zeros((1, 4))
        with pytest.raises(ShapeError, match="ext_ids"):  # 5 ids, 4 rows
            ops.pointer_mixture(*args, mask, [[0, 1, 2, 3, 4]], 8)
        with pytest.raises(ContractError, match="out of range"):
            ops.pointer_mixture(*args, mask, [[0, 1, 2, 8]], 8)

    @pytest.mark.parametrize("pointed", [True, False])
    def test_mixture_reads_only_the_first_s_rows_of_h_src(self, pointed):
        # the caller's whole hidden state stands for its source rows
        assert long_source_mismatches(ops.pointer_mixture, pointed) == []

    def test_reading_the_last_s_rows_is_caught(self):
        # mutation control: the copy head attends over the wrong rows
        def last_rows(h_src, h_t, w_vocab, pointer, col_mask, ext_ids, width):
            t, lead = h_src.shape[-2], np.shape(ext_ids)
            tail = ops.take_rows(h_src, np.broadcast_to(
                np.arange(t - lead[-1], t), lead))
            return ops.pointer_mixture(tail, h_t, w_vocab, pointer, col_mask,
                                       ext_ids, width)

        assert "mixed" in long_source_mismatches(last_rows, pointed=True)

    def test_mixture_needs_matching_batch_axes(self):
        # numpy alone would broadcast h_src's one example over h_t's three
        rng = np.random.default_rng(17)
        h_src, h_t, w_vocab = (
            Tensor(rng.normal(size=shape))
            for shape in ((1, 5, 8), (3, 2, 8), (8, 4)))
        with pytest.raises(ShapeError, match="h_t"):
            ops.pointer_mixture(h_src, h_t, w_vocab, None,
                                np.zeros((1, 5)), np.zeros((1, 5), int), 12)

    @pytest.mark.parametrize("pointed", [True, False])
    def test_mixture_needs_one_mask_entry_per_source_id(self, pointed):
        # numpy alone would broadcast the 1-D mask over both examples, its
        # -1e9 column hiding a source row of example 0, and would stop a
        # [2, 5] mask for 4 source ids with its own bare ValueError
        h_src, h_t, w_vocab, pointer, _, ids = mixture_inputs((2,), pointed)
        for mask in (np.array([0.0, 0.0, 0.0, -1e9]), np.zeros((2, 5))):
            with pytest.raises(ShapeError, match="col_mask"):
                ops.pointer_mixture(h_src, h_t, w_vocab, pointer, mask, ids,
                                    8)

    def test_mixture_needs_a_source_position(self):
        h_src, h_t, w_vocab = (
            Tensor(np.zeros(shape))
            for shape in ((1, 0, 8), (1, 2, 8), (8, 4)))
        with pytest.raises(ContractError, match="source position"):
            ops.pointer_mixture(h_src, h_t, w_vocab, None,
                                np.zeros((1, 0)), np.zeros((1, 0), int), 12)

    def test_nll_floor(self):
        probs = t64([[0.0, 1.0], [0.5, 0.5]])
        with Tape() as tape:
            loss = ops.nll(probs, [0, 1], [0.5, 0.5])
        np.testing.assert_allclose(loss.data,
                                   -(np.log(1e-12) + np.log(0.5)) / 2)
        np.testing.assert_array_equal(backward(tape, loss)[probs],
                                      [[0.0, 0.0], [0.0, -1.0]])

    def test_nll_input_checks(self):
        probs = Tensor(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(ShapeError, match="one target per row"):
            ops.nll(probs, [0], [1.0])
        with pytest.raises(ContractError, match="target out of range"):
            ops.nll(probs, [0, 3], [0.5, 0.5])

    def test_scatter_add_batched_matches_per_slice(self):
        args = mixture_inputs((3,), pointed=True)
        h_src, h_t, w_vocab, pointer, mask, ids = args
        r = np.random.default_rng(15).normal(size=(3, 3, 8))
        with Tape() as tape:
            out = ops.pointer_mixture(*args, 8)[0]
            loss = sum_all(mul(out, Tensor(r)))
        grads = backward(tape, loss)
        summed = {t: 0.0 for t in (w_vocab,) + pointer}
        for i in range(3):
            hs, ht = t64(h_src.data[i:i + 1]), t64(h_t.data[i:i + 1])
            with Tape() as tape:
                one = ops.pointer_mixture(hs, ht, w_vocab, pointer,
                                          mask[i:i + 1], ids[i:i + 1], 8)[0]
                one_loss = sum_all(mul(one, Tensor(r[i:i + 1])))
            one_grads = backward(tape, one_loss)
            np.testing.assert_allclose(out.data[i:i + 1], one.data,
                                       rtol=1e-12)
            np.testing.assert_allclose(grads[h_src][i:i + 1], one_grads[hs],
                                       rtol=1e-12)
            np.testing.assert_allclose(grads[h_t][i:i + 1], one_grads[ht],
                                       rtol=1e-12)
            for t in summed:
                summed[t] = summed[t] + one_grads[t]
        for t, want in summed.items():
            np.testing.assert_allclose(grads[t], want, rtol=1e-10)

    def test_scatter_add_batched_gradcheck(self):
        # the second example's last source column is masked off
        for pointed in (True, False):
            assert mixture_gradcheck_error(lead=(2,), pointed=pointed) < 1e-6

    def test_scatter_add_batched_ids_need_one_row_per_slice(self):
        args = mixture_inputs((2,), pointed=False)[:-2]
        with pytest.raises(ShapeError, match="ext_ids"):
            ops.pointer_mixture(*args, np.zeros((2, 4)), [0, 1, 2, 3], 8)

    def test_nll_weighted_matches_per_row(self):
        rng = np.random.default_rng(16)
        probs = t64(rng.dirichlet(np.ones(5), size=(2, 3)))
        targets = np.array([[0, 4, 2], [1, 1, 3]])
        weights = np.array([[0.5, 0.25, 0.0], [0.125, 0.0, 0.125]])
        with Tape() as tape:
            loss = ops.nll(probs, targets, weights)
        grad = backward(tape, loss)[probs]
        want = np.zeros_like(probs.data)
        total = 0.0
        for b in range(2):
            for n in range(3):
                p = probs.data[b, n, targets[b, n]]
                total -= weights[b, n] * np.log(p)
                want[b, n, targets[b, n]] = -weights[b, n] / p
        np.testing.assert_allclose(loss.data, total, rtol=1e-12)
        np.testing.assert_allclose(grad, want, rtol=1e-12)
        # weight 0 keeps a row out of the loss and the gradient
        assert not grad[0, 2].any() and not grad[1, 1].any()

    def test_nll_weighted_gradcheck(self):
        rng = np.random.default_rng(17)
        x = t64(rng.normal(size=(2, 3, 4)))
        targets = np.array([[1, 3, 0], [2, 2, 1]])
        weights = rng.uniform(size=(2, 3))
        assert gradcheck(lambda a: ops.nll(softmax_rows(a), targets,
                                           weights), x) < 1e-6

    def test_nll_weights_need_one_per_row(self):
        probs = Tensor(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(ShapeError, match="one weight per row"):
            ops.nll(probs, [0, 1], [1.0])

    def test_take_rows_batched_matches_per_slice(self):
        rng = np.random.default_rng(18)
        table = t64(rng.normal(size=(3, 5, 2)))
        ids = np.array([[0, 4, 4], [2, 2, 2], [1, 0, 3]])
        r = np.asarray(rng.normal(size=(3, 3, 2)))
        with Tape() as tape:
            out = ops.take_rows(table, ids)
            loss = sum_all(mul(out, Tensor(r)))
        grad = backward(tape, loss)[table]
        for i in range(3):
            one = t64(table.data[i])
            with Tape() as tape:
                rows = ops.take_rows(one, ids[i])
                one_loss = sum_all(mul(rows, Tensor(r[i])))
            np.testing.assert_array_equal(out.data[i], rows.data)
            np.testing.assert_array_equal(grad[i],
                                          backward(tape, one_loss)[one])

    def test_take_rows_batched_gradcheck(self):
        rng = np.random.default_rng(19)
        table = t64(rng.normal(size=(2, 4, 3)))
        ids = np.array([[0, 3, 3, 1, 0], [2, 1, 2, 2, 0]])
        w = np.asarray(rng.normal(size=(2, 5, 3)))
        err = gradcheck(
            lambda tb: sum_all(mul(ops.take_rows(tb, ids), Tensor(w))),
            table)
        assert err < 1e-6

    def test_take_rows_batched_input_checks(self):
        table = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ShapeError, match="batch axes"):
            ops.take_rows(table, np.zeros((3, 2), dtype=int))
        with pytest.raises(ContractError, match="out of range"):
            ops.take_rows(table, [[0], [4]])

    def test_take_rows_gradcheck(self):
        rng = np.random.default_rng(13)
        table = t64(rng.normal(size=(5, 3)))
        ids = np.array([0, 2, 2, 4])
        w = np.asarray(rng.normal(size=(4, 3)))
        err = gradcheck(
            lambda tb: sum_all(mul(ops.take_rows(tb, ids), Tensor(w))),
            table)
        assert err < 1e-6


def public_ops():
    return [name for name, fn in vars(ops).items()
            if inspect.isfunction(fn) and fn.__module__ == ops.__name__
            and not name.startswith("_")]


# the model does not run these; bench/test_bench.py's tracer test calls all
# three, and the reference op chains in tests/test_model.py and this file
# call matmul and transpose, so moving them to tests/reference_ops.py must
# repoint those chains too
BENCH_PINNED = ("matmul", "transpose", "mean_all")


def ops_called_in(folder):
    """The public ops some .py file under `folder` calls as ops.<name>(."""
    root = Path(__file__).resolve().parent.parent
    code = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted((root / folder).rglob("*.py")))
    return {name for name in public_ops()
            if re.search(r"\bops\.%s\(" % name, code)}


class TestOpsHaveCallers:
    def test_every_public_op_is_called(self):
        # a fused op must not leave the ops it replaced behind; the model
        # in src/ must run every op but the bench-pinned ones, and those
        # lose their exemption once bench/ no longer calls them
        public = public_ops()
        assert "pointer_mixture" in public
        uncalled = sorted(set(public) - ops_called_in("src")
                          - set(BENCH_PINNED))
        assert uncalled == []
        assert sorted(set(BENCH_PINNED) - ops_called_in("bench")) == []


# public names that nothing outside the tests calls, and why each stays
UNCALLED_ALLOWED = {
    "pointer_step": "bench/spans.py CALLS wraps it by name, and "
                    "tests/test_bench_names.py requires that it exists",
    **{name: "pinned for bench/test_bench.py's tracer test"
       for name in BENCH_PINNED},
}


def public_definitions():
    """(module, name) of every public function and method in src."""
    root = Path(__file__).resolve().parent.parent / "src" / "pointer_gpt"
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            found += [(path.stem, fn.name) for fn in body
                      if isinstance(fn, ast.FunctionDef)
                      and not fn.name.startswith("_")]
    return found


def names_used_outside_tests():
    """Every name that code in src, bench or demos reads, calls included:
    `f(...)`, `x.f(...)`, a handler passed as `func=f`, a property read.
    Files named test_*.py do not count. Names match without their module,
    so a namesake elsewhere (numpy's `.shape`) counts as a use."""
    root = Path(__file__).resolve().parent.parent
    used = set()
    for folder in ("src", "bench", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


class TestPublicNamesHaveCallers:
    def test_every_public_function_and_method_is_used_outside_tests(self):
        # a replaced function must leave src with its last caller; a name
        # only tests call belongs in a test helper, unless listed above
        definitions = public_definitions()
        assert ("decoder", "beam_search") in definitions
        assert ("tokenizer", "id_of") in definitions  # methods count too
        used = names_used_outside_tests()
        unused = sorted("%s.%s" % (module, name)
                        for module, name in definitions
                        if name not in used and name not in UNCALLED_ALLOWED)
        assert unused == []
        assert sorted(set(UNCALLED_ALLOWED) & used) == []


def op_calls(dtype):
    """(op name, call, Tensor operands) covering every public op; add and
    gelu also run on 0-d operands, where numpy returns a scalar."""
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(size=shape), dtype=dtype)

    mask = _causal_mask(3, dtype, 0)
    return [
        ("add", ops.add, (t(2, 4), t(4))),
        ("add", ops.add, (t(), t())),
        ("matmul", ops.matmul, (t(2, 3, 4), t(4, 5))),
        ("linear", ops.linear, (t(2, 3, 4), t(4, 5), t(5))),
        ("transpose", ops.transpose, (t(2, 3, 4),)),
        ("gelu", ops.gelu, (t(2, 4),)),
        ("gelu", ops.gelu, (t(),)),
        ("layer_norm", ops.layer_norm, (t(2, 3, 4), t(4), t(4))),
        ("take_rows", lambda x: ops.take_rows(x, [[0, 2], [1, 1]]),
         (t(3, 4),)),
        ("causal_attention",
         lambda qkv: ops.causal_attention(qkv, mask, 2),
         (Tensor(np.concatenate([t(2, 3, 4).data for _ in "qkv"], axis=-1),
                 dtype=dtype),)),
        ("pointer_mixture",
         lambda hs, ht, wp, wv, wh, b, wc: ops.pointer_mixture(
             hs, ht, wv, (wp, wh, b, wc), np.zeros((2, 3)),
             [[0, 5, 5], [1, 2, 3]], 6)[0],
         (t(2, 3, 4), t(2, 1, 4), t(4, 4), t(4, 5), t(4, 1), t(1, 1),
          t(4, 1))),
        ("nll", lambda p: ops.nll(p, [1, 3], [1.0, 0.5]),
         (Tensor(np.full((2, 4), 0.25), dtype=dtype),)),
        ("mean_all", ops.mean_all, (t(2, 4),)),
    ]


class TestOpOutputContract:
    """Op outputs skip Tensor's coercion, so pin what it guaranteed."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    def test_dtype_requires_grad_and_tape_record(self, dtype):
        calls = op_calls(dtype)
        assert sorted({name for name, _, _ in calls}) == sorted(public_ops())
        for name, call, inputs in calls:
            # no input requiring grad, then each input alone
            for grad_at in [None] + list(range(len(inputs))):
                for i, x in enumerate(inputs):
                    x.requires_grad = i == grad_at
                requires = grad_at is not None
                with Tape() as tape:
                    out = call(*inputs)
                where = (name, [x.shape for x in inputs], grad_at)
                assert type(out.data) is np.ndarray, where
                assert out.data.dtype == dtype, where
                assert out.requires_grad is requires, where
                assert len(tape) == int(requires), where
                if requires:
                    assert tape[0][0] is out, where
                # outside a tape the result is the same kind of tensor
                bare = call(*inputs)
                assert type(bare.data) is np.ndarray, where
                assert bare.requires_grad is requires, where
