import re

import pytest

from scrc.errors import InputError
from scrc.textproc import (BOS_ID, EOS_ID, RESERVED_TOKENS, UNK_ID, Vocabulary, build_vocab,
                           decode, encode, encode_nonempty, tokenize)


class TestTokenize:
    def test_lowercasing(self):
        assert tokenize("Left Guy") == ["left", "guy"]

    def test_punctuation_to_spaces(self):
        assert tokenize("the black-and-white cat") == ["the", "black", "and", "white", "cat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_runs(self):
        assert tokenize("  man,   far right!  ") == ["man", "far", "right"]

    def test_punctuation_only(self):
        assert tokenize("?!...") == []


class TestBuildVocab:
    def test_empty_corpus(self):
        v = build_vocab([])
        assert v.tokens == RESERVED_TOKENS

    def test_min_count_filter(self):
        v = build_vocab(["a a b"], min_count=2)
        assert v.tokens == RESERVED_TOKENS + ("a",)

    def test_deterministic_order(self):
        corpus = ["red left", "blue right red", "red blue top"]
        assert build_vocab(corpus).tokens == build_vocab(corpus).tokens

    def test_frequency_then_alpha_order(self):
        v = build_vocab(["b a b c a b"])
        assert v.tokens[3:] == ("b", "a", "c")

    def test_bad_min_count(self):
        with pytest.raises(InputError):
            build_vocab(["x"], min_count=0)


class TestVocabulary:
    def test_reserved_ids(self):
        v = build_vocab(["one two"])
        assert v.lookup("<unk>") == UNK_ID
        assert v.lookup("<bos>") == BOS_ID
        assert v.lookup("<eos>") == EOS_ID

    def test_lookup_roundtrip(self):
        v = build_vocab(["alpha beta gamma"])
        for i in range(len(v)):
            assert v.lookup(v.token(i)) == i

    def test_requires_reserved_prefix(self):
        with pytest.raises(InputError):
            Vocabulary(("a", "b", "c"))

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Vocabulary(RESERVED_TOKENS + ("a", "a"))

    @pytest.mark.parametrize("token", [7, None, 1.5, ["a"], b"a"])
    def test_rejects_tokens_that_are_not_strings(self, token):
        with pytest.raises(InputError, match=r"vocabulary token 4 is not a string"):
            Vocabulary(RESERVED_TOKENS + ("a", token))

    def test_token_id_out_of_range(self):
        v = build_vocab([])
        with pytest.raises(InputError):
            v.token(99)


class TestEncode:
    def test_known_text_has_no_unk(self):
        v = build_vocab(["red bird on the left"])
        ids = encode(v, "red bird left")
        assert UNK_ID not in ids
        assert all(i < len(v) for i in ids)

    def test_unknown_word_maps_to_unk(self):
        v = build_vocab(["red bird"])
        assert encode(v, "zzzq") == [UNK_ID]

    def test_decode_encode_roundtrip(self):
        v = build_vocab(["the small dog sits on the mat"])
        text = "the dog sits on the mat"
        assert decode(v, encode(v, text)) == tokenize(text)

    def test_never_fails_on_arbitrary_text(self):
        v = build_vocab(["plain words"])
        for text in ("", "!!!", "mixed CASE text", "ünïcode wörds", "a" * 500):
            ids = encode(v, text)
            assert all(0 <= i < len(v) for i in ids)

    def test_nonempty_encodes_like_encode(self):
        v = build_vocab(["red bird on the left"])
        assert encode_nonempty(v, "red zzzq, left", "query") == encode(v, "red zzzq, left")

    @pytest.mark.parametrize("text", ["", "  ", "?!."])
    def test_nonempty_names_the_text(self, text):
        v = build_vocab(["red bird"])
        with pytest.raises(InputError, match=re.escape(f"caption tokenizes to nothing: {text!r}")):
            encode_nonempty(v, text, "caption")
