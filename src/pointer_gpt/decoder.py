"""Autoregressive summary generation: greedy and beam search.

Both searches run over the mixed (vocabulary + copy) distribution in
extended-id space. Copied extended ids have no embedding row, so they feed
back into the model as UNK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .model import forward_hidden, pointer_head
from .tokenizer import EOS, SEP, UNK


@dataclass
class DecodeConfig:
    max_summary_len: int = 32
    beam_width: int = 1
    length_norm_alpha: float = 0.0  # 0 = pure log-prob

    def __post_init__(self):
        if self.max_summary_len < 1:
            raise ValueError("max_summary_len must be >= 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not 0.0 <= self.length_norm_alpha <= 1.0:
            raise ValueError("length_norm_alpha must be in [0, 1]")


@dataclass
class Hypothesis:
    ids: tuple          # extended ids emitted so far
    log_prob: float
    finished: bool

    def score(self, alpha):
        if alpha == 0.0 or not self.ids:
            return self.log_prob
        return self.log_prob / (len(self.ids) ** alpha)


def make_step_fn(params, source_ids, source_ext_ids, oov_count, config):
    """Next-token distribution over the extended vocab, given emitted ids.

    Source + SEP run once to fill a K/V cache and fix h_src (causality). A
    prefix extends the (cache, h_t) state of its longest cached ancestor,
    by one id in search order; states over one id shorter than the prefix
    just computed are dropped, except the root."""
    v = config.vocab_size
    s = len(source_ids)
    root = []
    hidden = forward_hidden(params, list(source_ids) + [SEP], config,
                            cache=root)
    h_src = ops.take_rows(hidden, np.arange(s))
    states = {(): (root, ops.take_rows(hidden, [s]))}

    def step_fn(emitted_ids):
        key = tuple(emitted_ids)
        n = len(key)
        while key[:n] not in states:
            n -= 1
        cache, h_t = states[key[:n]]
        if n < len(key):
            cache = list(cache)  # the ancestor's arrays stay intact
            feed = [UNK if i >= v else i for i in key[n:]]
            hidden = forward_hidden(params, feed, config, cache=cache)
            h_t = ops.take_rows(hidden, [len(feed) - 1])
            for old in [p for p in states if 0 < len(p) < len(key) - 1]:
                del states[old]
            states[key] = (cache, h_t)
        _, _, mixed = pointer_head(params, h_src, h_t, source_ext_ids,
                                   oov_count, config)
        return mixed.data[0]

    return step_fn


def max_steps_within(config, source_len, requested):
    """Cap decode length so the model input stays within max_seq_len."""
    room = config.max_seq_len - source_len - 1
    return max(1, min(requested, room))


def greedy_search(step_fn, max_len):
    """Argmax decode; ties break to the smallest id; stops at EOS."""
    out = []
    log_prob = 0.0
    for _ in range(max_len):
        dist = step_fn(out)
        nxt = int(np.argmax(dist))
        log_prob += math.log(max(float(dist[nxt]), 1e-12))
        if nxt == EOS:
            return Hypothesis(tuple(out) + (EOS,), log_prob, True)
        out.append(nxt)
    return Hypothesis(tuple(out), log_prob, False)


def beam_search(step_fn, max_len, beam_width, alpha=0.0):
    """Standard beam search; finished hypotheses retire to a pool."""
    beams = [Hypothesis((), 0.0, False)]
    finished = []
    for _ in range(max_len):
        candidates = []
        for hyp in beams:
            emitted = [i for i in hyp.ids]
            dist = step_fn(emitted)
            top = np.argsort(-dist, kind="stable")[:beam_width]
            for nxt in top:
                nxt = int(nxt)
                lp = hyp.log_prob + math.log(max(float(dist[nxt]), 1e-12))
                candidates.append(
                    Hypothesis(hyp.ids + (nxt,), lp, nxt == EOS))
        candidates.sort(key=lambda h: (-h.score(alpha), h.ids))
        kept = candidates[:beam_width]
        beams = []
        for hyp in kept:
            (finished if hyp.finished else beams).append(hyp)
        if not beams:
            break
    pool = finished if finished else beams
    return max(pool, key=lambda h: (h.score(alpha),
                                    tuple(-i for i in h.ids)))


def _strip_eos(ids):
    return [i for i in ids if i != EOS]


def greedy_decode(params, source_ids, source_ext_ids, oov_count, config,
                  dcfg=None):
    dcfg = dcfg or DecodeConfig()
    step_fn = make_step_fn(params, source_ids, source_ext_ids, oov_count,
                           config)
    limit = max_steps_within(config, len(source_ids), dcfg.max_summary_len)
    return _strip_eos(greedy_search(step_fn, limit).ids)


def beam_decode(params, source_ids, source_ext_ids, oov_count, config, dcfg):
    """Best hypothesis under beam search; k = 1 coincides with greedy."""
    step_fn = make_step_fn(params, source_ids, source_ext_ids, oov_count,
                           config)
    limit = max_steps_within(config, len(source_ids), dcfg.max_summary_len)
    return beam_search(step_fn, limit, dcfg.beam_width,
                       dcfg.length_norm_alpha)
