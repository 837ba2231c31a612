"""Reference searches, kept for tests.

`greedy_search` is the argmax loop that `decoder.greedy_decode` ran before
greedy decoding became beam search of width 1. Criterion 9 and the decoder
tests compare `decoder.beam_search` with it, so they compare two separate
implementations.

`beam_search` is `decoder.beam_search` as it was before the early stop: it
steps until every beam has finished or max_len is reached. The
early-stopping search must return the same hypothesis, and the K/V-cache
mutation controls drive their queries through this one, so that every step
of a search still reaches the cache.
"""

import math

import numpy as np

from pointer_gpt.decoder import Hypothesis
from pointer_gpt.ops import LOG_FLOOR
from pointer_gpt.tokenizer import EOS


def greedy_search(step_fn, max_len):
    """Argmax decode; ties break to the smallest id; stops at EOS."""
    out = []
    log_prob = 0.0
    for _ in range(max_len):
        dist = step_fn([out])[0]
        nxt = int(np.argmax(dist))
        log_prob += math.log(max(float(dist[nxt]), LOG_FLOOR))
        out.append(nxt)
        if nxt == EOS:
            break
    return Hypothesis(tuple(out), log_prob)


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
