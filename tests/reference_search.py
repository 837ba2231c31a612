"""The full-length beam search, kept for tests.

This is `decoder.beam_search` as it was before the early stop: it steps
until every beam has finished or max_len is reached. The early-stopping
search must return the same hypothesis, and the K/V-cache mutation controls
drive their queries through this one, so that every step of a search still
reaches the cache.
"""

import math

import numpy as np

from pointer_gpt.decoder import Hypothesis
from pointer_gpt.ops import LOG_FLOOR
from pointer_gpt.tokenizer import EOS


def beam_search(step_fn, max_len, beam_width):
    """Standard beam search; finished hypotheses retire to a pool."""
    def rank(hyp):  # cut and pick: higher log-prob first, then smaller ids
        return -hyp.log_prob, hyp.ids
    beams, finished = [Hypothesis((), 0.0)], []
    for _ in range(max_len):
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
    return min(finished or beams, key=rank)
