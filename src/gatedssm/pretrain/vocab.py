"""Whitespace tokenizer with a frequency-ranked, fixed-size vocabulary."""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import repeat
from typing import Iterable, List

import numpy as np

PAD, UNK, CLS, SEP, MASK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
N_SPECIAL = len(SPECIAL_TOKENS)


class Vocab:
    """Immutable token table; ids 0..4 are the special tokens."""

    def __init__(self, tokens: List[str]):
        if tuple(tokens[:N_SPECIAL]) != SPECIAL_TOKENS:
            raise ValueError("vocab must start with the special tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocab contains duplicate tokens")
        self.tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words: Iterable[str]) -> List[int]:
        return list(map(self._ids.get, words, repeat(UNK)))

    def decode(self, ids: Iterable[int]) -> List[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, "r", encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f if line.rstrip("\n")]
        return cls(tokens)


class TokenizedCorpus:
    """Documents, one line of text each, split into whitespace tokens
    once.

    `types` lists each distinct token in order of first appearance,
    `ids` holds the tokens of every document end to end as indices into
    `types`, and `lengths` the token count of each document. Each token
    is split and hashed once here; `build_vocab` counts the ids and
    `chunk_corpus` encodes `types`, so neither reads the text again.
    """

    def __init__(self, lines: Iterable[str]):
        index: defaultdict = defaultdict()
        # A token not seen before gets the next index.
        index.default_factory = index.__len__
        lookup = index.__getitem__
        flat, lengths = array("q"), []
        for line in lines:
            ids = list(map(lookup, line.split()))
            lengths.append(len(ids))
            flat.extend(ids)
        # The factory refers back to the dict; dropping it lets the dict
        # go when this returns instead of at the next cycle collection.
        index.default_factory = None
        self.types = list(index)
        self.ids = np.frombuffer(flat, dtype=np.int64)
        self.lengths = np.array(lengths, dtype=np.int64)


def build_vocab(corpus: TokenizedCorpus, max_size: int) -> Vocab:
    """Frequency-ranked vocabulary over whitespace tokens.

    Ties break lexicographically so the result is deterministic for a
    given corpus regardless of line order. `max_size` bounds the total
    size including the special tokens.
    """
    if max_size <= N_SPECIAL:
        raise ValueError(
            f"max_size must exceed the {N_SPECIAL} special tokens"
        )
    types = corpus.types
    if not types:
        raise ValueError("corpus is empty")
    counts = np.bincount(corpus.ids, minlength=len(types)).tolist()
    # A stable sort by falling count keeps ties in lexicographic order.
    ranked = sorted(range(len(types)), key=types.__getitem__)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return Vocab(list(SPECIAL_TOKENS)
                 + [types[i] for i in ranked[:max_size - N_SPECIAL]])
