"""Deterministic teacher-forced training loop."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .model import sequence_loss
from .optim import adam_step, clip_grad_norm
from .tensor import Tape, backward, require_int

MAX_GRAD_NORM = 1.0  # the global gradient-norm bound of every step


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or weight)."""


@dataclass
class TrainConfig:
    lr: float = 3e-4
    batch_size: int = 1
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        # exact comparison, so an int too large for a float fails here too
        if (not isinstance(self.lr, (int, float)) or isinstance(self.lr, bool)
                or not 0 < self.lr <= sys.float_info.max):
            raise ValueError("lr must be positive and finite, got %r"
                             % (self.lr,))
        for name, low in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            require_int(name, getattr(self, name), low)


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)  # per optimizer step


def train(params, dataset, tcfg, mcfg, loss_log_path=None):
    """Epochs of seeded-shuffle batches: loss, backward, clip, Adam.

    Deterministic given (seed, dataset order) under single-threaded numpy.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    rng = np.random.default_rng(tcfg.seed)
    tensors = list(params.values())
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data))
               for p in tensors]
    report = TrainReport()
    log = open(loss_log_path, "w", encoding="utf-8") if loss_log_path else None
    step = 0
    try:
        for _epoch in range(tcfg.epochs):
            order = rng.permutation(len(dataset))
            for lo in range(0, len(order), tcfg.batch_size):
                batch = order[lo:lo + tcfg.batch_size]
                with Tape() as tape:
                    batch_loss = sequence_loss(
                        params, [dataset[i] for i in batch], mcfg)
                value = float(batch_loss.data)
                if not np.isfinite(value):
                    raise TrainingError(
                        "non-finite loss at step %d (examples %s)"
                        % (step, batch.tolist()))
                grads = backward(tape, batch_loss)
                grads, _norm = clip_grad_norm([grads[p] for p in tensors],
                                              MAX_GRAD_NORM)
                step += 1
                adam_step(tensors, grads, moments, step, tcfg)
                report.losses.append(value)
                if log:
                    log.write("%d\t%.6f\n" % (step, value))
    finally:
        if log:
            log.close()
    # an Adam step can overflow float32 after the last loss was checked
    if not all(np.isfinite(p.data).all() for p in tensors):
        raise TrainingError("training left a NaN or inf weight after step %d"
                            % step)
    return report
