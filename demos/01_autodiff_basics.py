"""A tour of the tape-based autodiff kernel.

Builds a tiny pointer-head model from the ops the summarizer runs, runs
the backward pass (which returns the gradient of every leaf tensor), and
cross-checks the gradients against central finite differences.
"""

import numpy as np

from pointer_gpt import ops
from pointer_gpt.gradcheck import gradcheck
from pointer_gpt.tensor import Tape, Tensor, backward

rng = np.random.default_rng(0)


def leaf(*shape):
    return Tensor(rng.normal(0.0, 0.5, size=shape), requires_grad=True)


# 1. Three decoder rows read four source rows (d = 4). The pointer head
# mixes a 5-word vocabulary softmax with copy attention over the source;
# source words 1 and 3 are the same out-of-vocabulary word, extended id 5.
x = Tensor(rng.normal(size=(1, 3, 4)))  # float64 data that needs no grad
h_src = leaf(1, 4, 4)
w, b, gain, bias, w_ptr, w_vocab = (leaf(4, 4), leaf(4), leaf(4), leaf(4),
                                    leaf(4, 4), leaf(4, 5))
gate = (leaf(4, 1), leaf(1, 1), leaf(4, 1))  # p_gen's w_h, b and w_c
ext_ids, col_mask = np.array([[2, 5, 4, 5]]), np.zeros((1, 4))
targets, weights = np.array([[5, 4, 1]]), np.full((1, 3), 1.0 / 3.0)


def f(h_src, w, b, gain, bias, w_ptr, w_vocab, *gate):
    h_t = ops.layer_norm(ops.gelu(ops.linear(x, w, b)), gain, bias)
    mixed, _, _ = ops.pointer_mixture(h_src, h_t, w_vocab, (w_ptr, *gate),
                                      col_mask, ext_ids, 6)
    return ops.nll(mixed, targets, weights)  # mean -log p(target)


leaves = [h_src, w, b, gain, bias, w_ptr, w_vocab, *gate]
with Tape() as tape:
    loss = f(*leaves)
grads = backward(tape, loss)  # {leaf tensor: gradient}; x needs none
assert grads.keys() == set(leaves)
print("loss =", float(loss.data))
print("gradients of %d leaves, shapes %s"
      % (len(grads), [grads[t].shape for t in leaves]))

# 2. gradcheck compares the analytic gradient against central differences
# and reports the worst relative error over every element of every leaf.
err = gradcheck(f, leaves)
print("gradcheck worst relative error:", err)
assert err < 1e-5

# 3. backward writes nothing into the tensors, so nothing accumulates:
# replaying one tape twice returns equal gradients.
again = backward(tape, loss)
assert all(np.array_equal(grads[t], again[t]) for t in leaves)
print("replayed tape, max |gradient difference|:",
      max(float(np.abs(grads[t] - again[t]).max()) for t in leaves))
