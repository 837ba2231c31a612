"""Autoregressive summary generation by beam search; greedy decoding is
beam search of width 1.

The search runs over the mixed (vocabulary + copy) distribution in
extended-id space. Copied extended ids have no embedding row, so they feed
back into the model as UNK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import feed_ids, forward_hidden, pointer_head, positions_needed
from .ops import LOG_FLOOR
from .tensor import Tensor, require_int
from .tokenizer import EOS, SEP


@dataclass
class DecodeConfig:
    max_summary_len: int = 32
    beam_width: int = 1
    MAX_BEAM_WIDTH = 64  # a beam step runs beam_width prefixes as one batch

    def __post_init__(self):
        for name in ("max_summary_len", "beam_width"):
            require_int(name, getattr(self, name), 1)
        if self.beam_width > self.MAX_BEAM_WIDTH:
            raise ValueError("beam_width must be <= %d" % self.MAX_BEAM_WIDTH)


# The most log-prob one step can add: a float32 mixture probability can
# round above 1 (the copy mass summed over S source positions, by about
# S * 2**-24). 1e-3 is far above that at any practical S and far below
# the gaps at which searches stop, so it costs no steps.
STEP_GAIN_BOUND = 1e-3


@dataclass
class Hypothesis:
    ids: tuple          # extended ids emitted so far
    log_prob: float


def make_step_fn(params, source_ids, source_ext_ids, oov_count, config):
    """step_fn(prefixes) -> [len(prefixes), V_ext]: the next-token
    distribution over the extended vocab after each emitted-id prefix.

    Source + SEP run once to fill a root qkv cache and fix h_src
    (causality) and the copy head's source arrays. Calls go in lockstep, as
    in batched beam search: the live prefixes share one qkv array per layer,
    [k, T, 3 * d_model], one row each. A call whose prefixes each extend one
    of the previous call's by one id gathers its parents' rows and runs the
    k new ids as one forward; a call that repeats the previous prefixes
    reuses their rows; [()] restarts at the root. Any other call raises
    ValueError."""
    v = config.vocab_size
    root = []
    h_src = forward_hidden(params, [list(source_ids) + [SEP]], config,
                           cache=root)  # its SEP row lies past the source
    ext_ids = np.asarray([source_ext_ids], dtype=np.int64)
    col_mask = np.zeros(ext_ids.shape, dtype=h_src.dtype)
    start = ([()], root, h_src.data[:, -1])
    state = start  # (live prefixes, per-layer qkv, their last hiddens)

    def step_fn(prefixes):
        nonlocal state
        keys = [tuple(p) for p in prefixes]
        live, cache, _ = state
        if keys == [()]:
            state = start
        elif keys != live:
            rows = {key: j for j, key in enumerate(live)}
            if not keys or not all(key and key[:-1] in rows
                                   for key in keys):
                raise ValueError("step_fn prefixes must each extend one "
                                 "of the previous call's by one id")
            parents = [rows[key[:-1]] for key in keys]
            cache = [c[parents] for c in cache]
            feed = [feed_ids(key[-1:], v) for key in keys]
            hidden = forward_hidden(params, feed, config, cache=cache).data
            state = (keys, cache, hidden[:, -1])
        mixed, _, _ = pointer_head(params, h_src, Tensor(state[2][None]),
                                   ext_ids, col_mask, oov_count, config)
        return mixed.data[0]

    return step_fn


def max_steps_within(config, source_len, requested):
    """Cap decode length so the model input stays within max_seq_len; n
    steps take positions_needed(source_len, n) positions."""
    room = config.max_seq_len - positions_needed(source_len, 0)
    return max(1, min(requested, room))


def beam_search(step_fn, max_len, beam_width):
    """Standard beam search; finished hypotheses retire to a pool.

    The search stops early once its result is fixed: when the best
    finished hypothesis scores strictly above every live beam's log-prob
    plus STEP_GAIN_BOUND per remaining step. A step adds log p, which is
    <= 0 up to float rounding, so no descendant of a live beam can then
    reach the finished one, and the result equals that of running all
    max_len steps. The comparison is strict because on a tie a descendant
    with smaller ids would win."""
    def rank(hyp):  # cut and pick: higher log-prob first, then smaller ids
        return -hyp.log_prob, hyp.ids
    beams, finished = [Hypothesis((), 0.0)], []
    for step in range(1, max_len + 1):
        candidates = []
        for hyp, dist in zip(beams, step_fn([hyp.ids for hyp in beams])):
            for nxt in np.argsort(-dist, kind="stable")[:beam_width].tolist():
                lp = hyp.log_prob + math.log(max(float(dist[nxt]),
                                                 LOG_FLOOR))
                candidates.append(Hypothesis(hyp.ids + (nxt,), lp))
        candidates.sort(key=rank)
        beams = []
        for hyp in candidates[:beam_width]:
            (finished if hyp.ids[-1] == EOS else beams).append(hyp)
        if not beams:
            break
        # beams[0] is the best live beam: candidates were sorted by rank
        if finished and max(hyp.log_prob for hyp in finished) > (
                beams[0].log_prob + (max_len - step) * STEP_GAIN_BOUND):
            break
    return min(finished or beams, key=rank)


def beam_decode(params, source_ids, source_ext_ids, oov_count, config, dcfg):
    """Best hypothesis under beam search of width dcfg.beam_width."""
    step_fn = make_step_fn(params, source_ids, source_ext_ids, oov_count,
                           config)
    limit = max_steps_within(config, len(source_ids), dcfg.max_summary_len)
    return beam_search(step_fn, limit, dcfg.beam_width)


def greedy_decode(params, source_ids, source_ext_ids, oov_count, config,
                  dcfg):
    """Argmax ids without EOS: beam search of width 1, whose stable argsort
    takes the argmax and breaks ties to the smallest id."""
    hyp = beam_decode(params, source_ids, source_ext_ids, oov_count, config,
                      replace(dcfg, beam_width=1))
    return [i for i in hyp.ids if i != EOS]
