"""Adam optimizer and global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np


# Kingma & Ba's (2015) defaults, the only values the project trains with
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(params, grads, moments, t, tcfg):
    """Step t (from 1) of bias-corrected Adam with tcfg.lr, BETA1, BETA2 and
    EPS; grads[i] and moments[i] = (m, v), updated in place, belong to
    params[i]."""
    if len(grads) != len(params):
        raise ValueError("adam_step: %d grads for %d parameters"
                         % (len(grads), len(params)))
    b1, b2 = BETA1, BETA2
    correction1 = 1.0 - b1 ** t
    root2 = math.sqrt(1.0 - b2 ** t)
    step, eps = tcfg.lr * root2 / correction1, EPS * root2
    for p, g, (m, v) in zip(params, grads, moments):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= (step * m / (np.sqrt(v) + eps)).astype(p.dtype)


def clip_grad_norm(grads, max_norm):
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
