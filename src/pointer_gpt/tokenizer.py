"""Word-level tokenizer, vocabulary, and extended-id encoding.

Out-of-vocabulary source words get per-example extended ids [V, V+|oov|)
so the copy head can emit them even though the embedding never sees them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .tensor import require_int

SPECIAL_TOKENS = ["<pad>", "<unk>", "<bos>", "<eos>", "<sep>"]
PAD, UNK, BOS, EOS, SEP = range(len(SPECIAL_TOKENS))

# alphanumeric runs (underscore counts as punctuation), else one char per
# non-whitespace punctuation character
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_", re.UNICODE)


def tokenize(text):
    """Lowercase, split on whitespace, isolate each punctuation character."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bijective token<->id map; the first ids are SPECIAL_TOKENS."""

    def __init__(self, tokens):
        self.id_to_token = list(SPECIAL_TOKENS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def size(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def id_of(self, token):
        return self.token_to_id.get(token, UNK)

    def token_of(self, idx):
        return self.id_to_token[idx]

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for token in self.id_to_token:
                f.write(token + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if lines[:len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError("vocabulary file must start with %s"
                             % SPECIAL_TOKENS)
        return cls(lines[len(SPECIAL_TOKENS):])


def build_vocab(corpus, max_size):
    """Specials + most-frequent tokens, ties broken lexicographically."""
    require_int("max_size", max_size, len(SPECIAL_TOKENS) + 1)
    counts = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked]
    return Vocabulary(kept[:max_size - len(SPECIAL_TOKENS)])


@dataclass
class EncodedExample:
    """One source/summary pair in id space, EOS-terminated."""

    source_ids: list
    source_ext_ids: list
    oov: list  # first-occurrence order
    target_ext_ids: list


def encode_source(source, vocab):
    """Encode a source text; returns (ids, ext_ids, oov_table)."""
    ids, ext_ids, oov = [], [], []
    oov_index = {}
    for tok in tokenize(source):
        i = vocab.id_of(tok)
        ids.append(i)
        if i == UNK:
            if tok not in oov_index:
                oov_index[tok] = len(oov)
                oov.append(tok)
            ext_ids.append(vocab.size + oov_index[tok])
        else:
            ext_ids.append(i)
    ids.append(EOS)
    ext_ids.append(EOS)
    return ids, ext_ids, oov


def encode_example(source, target, vocab):
    source_ids, source_ext_ids, oov = encode_source(source, vocab)
    oov_index = {tok: i for i, tok in enumerate(oov)}
    target_ext_ids = []
    for tok in tokenize(target):
        i = vocab.id_of(tok)
        if i == UNK and tok in oov_index:
            i = vocab.size + oov_index[tok]
        target_ext_ids.append(i)
    target_ext_ids.append(EOS)
    return EncodedExample(source_ids, source_ext_ids, oov, target_ext_ids)


def decode(ids, vocab, oov):
    """Extended ids back to a space-joined string; EOS/PAD dropped."""
    words = []
    limit = vocab.size + len(oov)
    for i in ids:
        if i >= limit or i < 0:
            raise ValueError("id %d out of extended-vocabulary range [0, %d)"
                             % (i, limit))
        if i in (EOS, PAD):
            continue
        words.append(oov[i - vocab.size] if i >= vocab.size
                     else vocab.token_of(i))
    return " ".join(words)
