"""Dense tensors and the reverse-mode autodiff tape.

Tensors wrap a numpy float buffer (float32 for training, float64 for
gradient checks). Operations defined in :mod:`pointer_gpt.ops` record
themselves on the currently active :class:`Tape`; :func:`backward` replays
the tape in reverse and returns the gradients of its leaves.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "active_tape",
]


def require_int(name, value, low):
    """Raise ValueError unless value is an int (not a bool) of at least low:
    the rule of every integer config field."""
    if type(value) is not int:  # bool subclasses int
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < low:
        raise ValueError("%s must be at least %d, got %r" % (name, low, value))


class Tensor:
    """Shape + float buffer; hashed by identity, so it can key a dict."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64, np.longdouble):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (
            tuple(self.shape),
            self.requires_grad,
        )


_TAPE_STACK = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape(list):
    """(output, inputs, backward_fn) records in execution order, which is
    topological; inside ``with Tape() as tape`` ops record on ``tape``."""

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


def make_output(out_data, inputs, backward_fn):
    """Wrap an op result, recording it on the active tape when grads flow."""
    out = Tensor.__new__(Tensor)  # no coercion: ops keep the operands' dtype
    out.data = (out_data if type(out_data) is np.ndarray
                else np.asarray(out_data))  # numpy's scalar for 0-d operands
    out.requires_grad = False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            if _TAPE_STACK:
                _TAPE_STACK[-1].append((out, inputs, backward_fn))
            break
    return out


def backward(tape, loss):
    """{leaf: d loss / d leaf} for every requires_grad leaf loss reaches.

    A leaf is a tensor no record on the tape produced. Each intermediate's
    gradient is dropped once its record is replayed, so only leaves remain.
    Nothing is written into the tensors: replaying the same tape gives
    bit-identical results.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss, got shape %s"
                         % (tuple(loss.shape),))
    if not loss.requires_grad:
        return {}
    grads = {loss: np.ones_like(loss.data)}
    for out, inputs, backward_fn in reversed(tape):
        out_grad = grads.pop(out, None)
        if out_grad is None:
            continue
        input_grads = backward_fn(out_grad)
        for inp, g in zip(inputs, input_grads):
            if not inp.requires_grad:
                continue
            grads[inp] = grads[inp] + g if inp in grads else g
    return grads
