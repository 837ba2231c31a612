"""ROUGE-N scoring (N = 1, 2) with clipped n-gram overlap.

No stemming and no stopword removal; text is lowercased and
punctuation-split by the shared tokenizer so candidate and reference are
normalized identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tokenizer import tokenize

ROUGE_NS = (1, 2)


@dataclass
class RougeScore:
    precision: float
    recall: float
    f_measure: float


def f_measure(p, r):
    """Harmonic mean; 0 when both components are 0."""
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def ngram_counts(tokens, n):
    """Multiset of contiguous n-grams; empty when len(tokens) < n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n_tokens(candidate_tokens, reference_tokens, n):
    cand = ngram_counts(candidate_tokens, n)
    ref = ngram_counts(reference_tokens, n)
    overlap = sum(min(count, ref[g]) for g, count in cand.items())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    return RougeScore(p, r, f_measure(p, r))


def rouge_n(candidate, reference, n):
    """Clipped n-gram precision/recall/F between two texts."""
    return rouge_n_tokens(tokenize(candidate), tokenize(reference), n)


def rouge_report(candidates, references):
    """Corpus scores: mean of per-pair P, R, and F, per n in ROUGE_NS."""
    if len(candidates) != len(references):
        raise ValueError("candidate/reference counts differ: %d vs %d"
                         % (len(candidates), len(references)))
    if not candidates:
        raise ValueError("need at least one candidate/reference pair")
    report = {}
    for n in ROUGE_NS:
        scores = [rouge_n(c, r, n) for c, r in zip(candidates, references)]
        k = len(scores)
        report[n] = RougeScore(
            sum(s.precision for s in scores) / k,
            sum(s.recall for s in scores) / k,
            sum(s.f_measure for s in scores) / k,
        )
    return report


def format_report_table(rows):
    """Aligned text table; rows are (algorithm, {n: RougeScore}) pairs."""
    header = ("Algorithm", "Evaluation metric", "Precision", "Recall",
              "F measure")
    lines = []
    for algorithm, report in rows:
        for n in sorted(report):
            s = report[n]
            lines.append((algorithm if n == sorted(report)[0] else "",
                          "Rouge-%d" % n,
                          "%.4f" % s.precision,
                          "%.4f" % s.recall,
                          "%.4f" % s.f_measure))
    widths = [max(len(header[i]), *(len(row[i]) for row in lines))
              for i in range(len(header))]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    out = [fmt % header]
    out.extend(fmt % row for row in lines)
    return "\n".join(out)
