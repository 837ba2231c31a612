"""Adam optimizer and global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .tensor import ContractError


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state, grads):
    """One bias-corrected Adam update; grads[i] belongs to state.params[i]."""
    grads = list(grads)
    if len(grads) != len(state.params):
        raise ContractError("adam_step: %d grads for %d parameters"
                            % (len(grads), len(state.params)))
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1 ** state.t
    correction2 = 1.0 - b2 ** state.t
    step = state.lr * math.sqrt(correction2) / correction1
    for p, g, m, v in zip(state.params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= (step * m / (np.sqrt(v) + state.eps * math.sqrt(correction2))).astype(p.dtype)


def clip_grad_norm(grads, max_norm=1.0):
    """(grads scaled so their global L2 norm is at most max_norm, pre-clip norm).

    The inputs are never written: leaves fed through one op can share a
    gradient buffer. Idempotent: clipping the result again changes nothing.
    """
    grads = list(grads)
    total = 0.0
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        grads = [g * factor for g in grads]
    return grads, norm
