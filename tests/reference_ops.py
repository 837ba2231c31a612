"""Tape ops the model does not run, kept for tests.

The op chains in test_model.py, which the fused ops must match byte for
byte, and the tape-engine tests in test_tensor_core.py build on these.
They are built on make_output and on the helpers of pointer_gpt.ops,
looked up at call time, so a test that patches a helper such as
ops._softmax_grad patches them too.
"""

import numpy as np

from pointer_gpt import ops
from pointer_gpt.tensor import make_output


def mul(a, b):
    out = a.data * b.data

    def bwd(g):
        return (ops._unbroadcast(g * b.data, a.data.shape),
                ops._unbroadcast(g * a.data, b.data.shape))

    return make_output(out, (a, b), bwd)


def softmax_rows(x):
    """Row-wise softmax with max subtraction; rows sum to 1."""
    out = ops._softmax(x.data)

    def bwd(g):
        return (ops._softmax_grad(g, out),)

    return make_output(out, (x,), bwd)


def sum_all(x):
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.dtype, copy=True),)

    return make_output(out, (x,), bwd)
