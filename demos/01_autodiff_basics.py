"""A tour of the tape-based autodiff kernel.

Builds a tiny computation, runs the backward pass (which returns the
gradient of every leaf tensor), and cross-checks the gradients against
central finite differences.
"""

import numpy as np

from pointer_gpt import ops
from pointer_gpt.gradcheck import gradcheck
from pointer_gpt.tensor import Tape, Tensor, backward

# 1. A scalar function of a matrix: f(W) = sum(softmax_rows(x @ W))
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(3, 4)).astype(np.float64))
w = Tensor(rng.normal(size=(4, 5)).astype(np.float64), requires_grad=True)

with Tape() as tape:
    logits = ops.matmul(x, w)
    probs = ops.softmax_rows(logits)
    loss = ops.sum_all(probs)
grads = backward(tape, loss)  # {leaf tensor: gradient}; x needs none

print("loss =", float(loss.data))
print("grad shape:", grads[w].shape)
# each softmax row sums to one no matter what W is, so f is constant and
# every gradient entry must be (numerically) zero
print("max |grad| for a constant function:", np.abs(grads[w]).max())

# 2. The same check, automated: gradcheck compares the analytic gradient
# against central differences and reports the worst relative error.
w2 = Tensor(rng.normal(size=(4, 4)).astype(np.float64), requires_grad=True)
b = Tensor(np.zeros(4), requires_grad=True)


def f(w2, b):
    return ops.mean_all(ops.gelu(ops.add(ops.matmul(x, w2), b)))


err = gradcheck(f, [w2, b])
print("gradcheck worst relative error:", err)
assert err < 1e-5

# 3. backward writes nothing into the tensors, so nothing accumulates:
# replaying one tape twice returns equal gradients.
v = Tensor(np.ones(3), requires_grad=True)
with Tape() as tape:
    out = ops.sum_all(ops.mul(v, v))
first, second = backward(tape, out), backward(tape, out)
assert np.array_equal(first[v], second[v])
print("grad of sum(v * v) at v = 1, twice (expect 2s):", first[v], second[v])
