"""Dataset records: JSONL ingestion and the synthetic copy-task corpus."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tokenizer import SPECIAL_TOKENS, tokenize

TRAIN_FRACTION = 0.8  # the share of records split_by_index trains on


@dataclass
class DatasetRecord:
    source: str
    summary: str


class DatasetError(ValueError):
    """Malformed dataset file."""


def require_tokens(text, what):
    """The one empty-text rule: text must keep a token after tokenize."""
    if not tokenize(text):
        raise DatasetError("%s is empty after tokenization" % what)


def load_dataset(path):
    """JSONL with string fields "source" and "summary"; blank lines skipped."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:
                raise DatasetError("line %d: invalid JSON (%s)"
                                   % (lineno, getattr(e, "msg", e))) from e
            if not isinstance(obj, dict):
                raise DatasetError("line %d: expected a JSON object" % lineno)
            for fieldname in ("source", "summary"):
                if fieldname not in obj:
                    raise DatasetError('line %d: missing field "%s"'
                                       % (lineno, fieldname))
                if not isinstance(obj[fieldname], str):
                    raise DatasetError('line %d: field "%s" must be a string'
                                       % (lineno, fieldname))
                require_tokens(obj[fieldname],
                               'line %d: field "%s"' % (lineno, fieldname))
            records.append(DatasetRecord(obj["source"], obj["summary"]))
    if not records:
        raise DatasetError("dataset %s is empty" % path)
    return records


def save_dataset(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rec in records:
            f.write(json.dumps({"source": rec.source,
                                "summary": rec.summary}) + "\n")


# --- synthetic copy task -------------------------------------------------
#
# Each source embeds 2-4 rare "marker" words drawn from a pool large enough
# that frequency truncation keeps every marker out of the vocabulary. The
# reference summary is a fixed template that must copy the markers, so a
# model without a copy path cannot reproduce them.

# two intros only: every template word then occurs in at least half of the
# records, comfortably above the most frequent marker (~40 occurrences at
# 200 records), so frequency truncation can never keep a marker
_INTROS = ["patient reports onset of",
           "exam shows onset of"]
_SOURCE_TAIL = ("done today . exam shows stable vitals . "
                "plan follow up in clinic .")
_SUMMARY_TEMPLATE = "summary : %s noted ."

_MARKER_POOL_SIZE = 60
_SYLLABLES = ["zor", "vek", "quil", "dra", "fen", "lux", "mor", "tiv",
              "gax", "pyr", "wen", "hoz", "bim", "kel", "juf", "ryn"]


def marker_pool():
    """Deterministic pool of nonsense marker words (never in-vocab)."""
    n = len(_SYLLABLES)
    return [_SYLLABLES[i % n]
            + _SYLLABLES[(i // n + 3) % n]
            + _SYLLABLES[(i // (n * n) + 5) % n]
            for i in range(_MARKER_POOL_SIZE)]


def copy_task_vocab_size():
    """max_size holding exactly the template words, excluding every marker.

    Template words occur in (almost) every record while each marker occurs
    in only a handful, so frequency truncation at this size keeps all
    template words in-vocab and forces all markers out.
    """
    template_text = " ".join(_INTROS) + " " + _SOURCE_TAIL + " " \
        + (_SUMMARY_TEMPLATE % "")
    return len(SPECIAL_TOKENS) + len(set(tokenize(template_text)))


def synthetic_copy_task(n_records, seed):
    """Generate the copy-task corpus: markers must be copied verbatim."""
    rng = np.random.default_rng(seed)
    pool = marker_pool()
    records = []
    for _ in range(n_records):
        k = int(rng.integers(2, 5))
        markers = [pool[i] for i in rng.choice(len(pool), size=k,
                                               replace=False)]
        intro = _INTROS[int(rng.integers(len(_INTROS)))]
        source = "%s %s %s" % (intro, " ".join(markers), _SOURCE_TAIL)
        summary = _SUMMARY_TEMPLATE % " ".join(markers)
        records.append(DatasetRecord(source, summary))
    return records


def split_by_index(records):
    """Deterministic split: first int(n * TRAIN_FRACTION) records train."""
    cut = int(len(records) * TRAIN_FRACTION)
    return records[:cut], records[cut:]
