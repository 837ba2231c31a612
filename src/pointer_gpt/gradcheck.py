"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from .tensor import Tape, Tensor, backward


def gradcheck(f, tensors, h=1e-5):
    """Compare analytic grads of scalar-valued f against central differences.

    `tensors` is one Tensor or an iterable of Tensors passed to f positionally.
    Use float64 tensors; float32 finite differences are too noisy for tight
    tolerances. Returns the max relative error
    |a - n| / max(1e-8, |a| + |n|) over all elements of all tensors.
    """
    tensors = [tensors] if isinstance(tensors, Tensor) else list(tensors)

    with Tape() as tape:
        loss = f(*tensors)
    grads = backward(tape, loss)

    worst = 0.0
    for t in tensors:
        analytic = grads[t] if t in grads else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = flat[i]
            plus = f(*tensors).data.reshape(())[()]
            flat[i] = orig - h
            lo = flat[i]
            minus = f(*tensors).data.reshape(())[()]
            flat[i] = orig
            # divide by the representable step actually taken, not 2h
            numeric = (plus - minus) / (hi - lo)
            a = analytic.reshape(-1)[i]
            err = float(abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
            if err > worst:
                worst = err
    return worst
