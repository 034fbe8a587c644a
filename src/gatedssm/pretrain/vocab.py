"""Whitespace tokenizer with a frequency-ranked, fixed-size vocabulary."""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from typing import Iterable, List

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


def build_vocab(lines: Iterable[str], max_size: int) -> Vocab:
    """Frequency-ranked vocabulary over whitespace tokens.

    Ties break lexicographically so the result is deterministic for a
    given corpus regardless of line order. `max_size` bounds the total
    size including the special tokens.
    """
    if max_size <= N_SPECIAL:
        raise ValueError(
            f"max_size must exceed the {N_SPECIAL} special tokens"
        )
    counts = Counter(chain.from_iterable(map(str.split, lines)))
    if not counts:
        raise ValueError("corpus is empty")
    # A stable sort by falling count keeps ties in lexicographic order.
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return Vocab(list(SPECIAL_TOKENS) + ranked[:max_size - N_SPECIAL])
