"""Tokenizer, vocabulary, and extended-id encoding tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pointer_gpt.tokenizer import (
    EOS, PAD, SEP, SPECIAL_TOKENS, UNK, Vocabulary, build_vocab, decode,
    encode_example, encode_source, tokenize,
)


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("SOB/cough") == ["sob", "/", "cough"]

    def test_unicode_whitespace(self):
        assert tokenize("a b\tc") == ["a", "b", "c"]

    @given(st.text(max_size=80))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestBuildVocab:
    def test_frequency_order(self):
        v = build_vocab(["a a b"], max_size=10)
        assert v.id_of("a") < v.id_of("b")
        assert v.size == 7

    def test_truncation(self):
        v = build_vocab(["x y z x"], max_size=6)
        assert v.size == 6
        assert "x" in v and "y" not in v and "z" not in v

    def test_lexicographic_tiebreak(self):
        v = build_vocab(["y x"], max_size=6)
        assert "x" in v and "y" not in v

    def test_max_size_must_exceed_specials(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], max_size=5)

    @pytest.mark.parametrize("value, message", [
        (7.5, "max_size must be an integer, got 7.5"),
        (True, "max_size must be an integer, got True"),
        (5, "max_size must be at least 6, got 5")])
    def test_settings_are_integers_with_a_lower_bound(self, value, message):
        with pytest.raises(ValueError) as info:
            build_vocab(["a"], max_size=value)
        assert str(info.value) == message

    def test_specials_occupy_first_ids(self):
        v = build_vocab(["a"], max_size=10)
        assert [v.token_of(i) for i in range(5)] == SPECIAL_TOKENS


class TestEncodeExample:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["aspirin helps pain daily"], max_size=20)

    def test_source_oov_gets_extended_id(self):
        v = build_vocab(["helps"], max_size=10)
        ex = encode_example("aspirin helps", "aspirin", v)
        assert ex.source_ids[0] == UNK
        assert ex.source_ext_ids[0] == v.size  # V + 0
        assert ex.target_ext_ids == [v.size, EOS]
        assert ex.oov == ["aspirin"]

    def test_all_in_vocab(self, vocab):
        ex = encode_example("aspirin helps", "pain", vocab)
        assert ex.source_ids == ex.source_ext_ids
        assert ex.oov == []

    def test_target_oov_not_in_source_is_unk(self, vocab):
        ex = encode_example("aspirin helps", "ibuprofen", vocab)
        assert ex.target_ext_ids == [UNK, EOS]

    def test_sequences_eos_terminated(self, vocab):
        ex = encode_example("aspirin", "helps", vocab)
        assert ex.source_ids[-1] == EOS
        assert ex.source_ext_ids[-1] == EOS
        assert ex.target_ext_ids[-1] == EOS

    def test_oov_order_is_first_occurrence(self):
        v = build_vocab(["and"], max_size=10)
        ex = encode_example("zeta and alpha and zeta", "alpha", v)
        assert ex.oov == ["zeta", "alpha"]
        assert ex.target_ext_ids[0] == v.size + 1

    @given(st.lists(st.sampled_from("abcd"), max_size=12),
           st.lists(st.sampled_from("abcdef"), max_size=6))
    def test_invariants_over_random_corpora(self, src_toks, tgt_toks):
        v = build_vocab(["a b c"], max_size=8)
        ex = encode_example(" ".join(src_toks), " ".join(tgt_toks), v)
        assert len(ex.source_ids) == len(ex.source_ext_ids)
        for i, e in zip(ex.source_ids, ex.source_ext_ids):
            assert e == i or i == UNK
        limit = v.size + len(ex.oov)
        assert all(0 <= t < limit for t in ex.target_ext_ids)
        assert len(set(ex.oov)) == len(ex.oov)


class TestDecode:
    def test_in_vocab_round_trip(self):
        v = build_vocab(["the cat sat"], max_size=10)
        ids = [v.id_of("the"), v.id_of("cat"), EOS]
        assert decode(ids, v, []) == "the cat"

    def test_copy_resolution(self):
        v = build_vocab(["a"], max_size=10)
        assert decode([v.size], v, ["dyspnea"]) == "dyspnea"

    def test_empty(self):
        v = build_vocab(["a"], max_size=10)
        assert decode([], v, []) == ""

    def test_pad_dropped(self):
        v = build_vocab(["a"], max_size=10)
        assert decode([PAD, v.id_of("a"), EOS], v, []) == "a"

    def test_out_of_range_rejected(self):
        v = build_vocab(["a"], max_size=10)
        with pytest.raises(ValueError):
            decode([v.size + 1], v, ["x"])

    @given(st.lists(st.sampled_from(["the", "cat", "sat", "mat"]),
                    min_size=1, max_size=10))
    def test_round_trip_in_vocab_lowercase(self, words):
        v = build_vocab(["the cat sat mat"], max_size=20)
        text = " ".join(words)
        ids, ext_ids, oov = encode_source(text, v)
        assert decode(ids, v, oov) == text


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        v = build_vocab(["b a a"], max_size=10)
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == v.id_to_token

    def test_lf_line_endings_and_specials_first(self, tmp_path):
        v = build_vocab(["a"], max_size=10)
        path = tmp_path / "vocab.txt"
        v.save(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n")[:5] == [t.encode() for t in SPECIAL_TOKENS]

    def test_bad_specials_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\nd\ne\nf\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)


class TestVocabularyMembership:
    def test_in_holds_exactly_the_tokens(self):
        # the benchmark's vocab_problems checks marker words with `in`
        v = Vocabulary(["red", "green"])
        assert all(t in v for t in SPECIAL_TOKENS + ["red", "green"])
        assert "blue" not in v and "" not in v
        assert v.id_of("red") not in v  # ids are not tokens
