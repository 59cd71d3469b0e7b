"""Tokenization, vocabulary construction and token-id encoding.

The id space reserves 0 for "<unk>", 1 for "<bos>" and 2 for "<eos>".
Out-of-vocabulary words always map to <unk>, so encoding never fails.
"""

from __future__ import annotations

import string
from collections import Counter
from typing import Iterable, Sequence

from .errors import InputError

UNK_TOKEN, BOS_TOKEN, EOS_TOKEN = "<unk>", "<bos>", "<eos>"
RESERVED_TOKENS = (UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)
UNK_ID, BOS_ID, EOS_ID = 0, 1, 2

_PUNCT_TO_SPACE = str.maketrans({ch: " " for ch in string.punctuation})

TokenSequence = list[int]


def tokenize(text: str) -> list[str]:
    """Lowercase, replace ASCII punctuation with spaces, split on whitespace."""
    return text.lower().translate(_PUNCT_TO_SPACE).split()


class Vocabulary:
    """Immutable token <-> id mapping with the reserved markers at ids 0..2."""

    __slots__ = ("_tokens", "_index")

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[:3] != RESERVED_TOKENS:
            raise InputError(
                f"vocabulary must start with {RESERVED_TOKENS}, got {tokens[:3]}")
        for i, token in enumerate(tokens):
            if not isinstance(token, str):
                raise InputError(f"vocabulary token {i} is not a string: {token!r}")
        if len(set(tokens)) != len(tokens):
            raise InputError("vocabulary contains duplicate tokens")
        self._tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    def lookup(self, token: str) -> int:
        """Token id, falling back to the <unk> id for unknown tokens."""
        return self._index.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise InputError(f"token id {token_id} out of range for |V|={len(self._tokens)}")
        return self._tokens[token_id]


def build_vocab(corpus: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Vocabulary over all corpus tokens with frequency >= min_count.

    Tokens are ordered by (frequency descending, token ascending) after the
    reserved markers, so construction is a pure function of its inputs.
    """
    if min_count < 1:
        raise InputError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    kept = sorted((t for t, n in counts.items() if n >= min_count),
                  key=lambda t: (-counts[t], t))
    return Vocabulary(RESERVED_TOKENS + tuple(kept))


def encode(vocab: Vocabulary, text: str) -> TokenSequence:
    return [vocab.lookup(t) for t in tokenize(text)]


def decode(vocab: Vocabulary, ids: Sequence[int]) -> list[str]:
    return [vocab.token(i) for i in ids]
