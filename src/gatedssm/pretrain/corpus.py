"""Synthetic structured corpus: a word-level Markov chain.

Each word has two preferred successors plus a small uniform escape, so
masked tokens are largely predictable from their neighbors. That gives a
toy MLM task with real headroom: a model that picks up the transition
structure cuts perplexity several-fold against the uniform baseline.

Document d reads the stream ``Rng(derive_seed(seed, d))`` in this order:
one ``integers(0, n_words)`` for the first word, doc_len - 1 uniforms,
then doc_len - 1 ``integers(0, n_words)`` escape words. Step i moves from
word w to its first successor (3w + 1) mod n_words when its uniform is
below 0.45, to its second (5w + 2) mod n_words below 0.9, and to escape
word i otherwise.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..numerics import derive_seed, raw_block, unit_floats

ESCAPE_PROB = 0.1
# Documents are generated about this many tokens at a time, which bounds
# the memory the arrays take whatever the size of the corpus.
BLOCK_TOKENS = 1 << 12


def _markov_words(docs: range, doc_len: int, n_words: int,
                  seed: int) -> np.ndarray:
    """(len(docs), doc_len) word ids of the documents numbered `docs`."""
    seeds = [derive_seed(seed, d) for d in docs]
    n_docs = len(seeds)
    raw = raw_block(seeds, 2 * doc_len - 1)
    draws = unit_floats(raw[:, 1:doc_len])
    # Step i is the affine map w -> (c*w + d) mod n_words; position 0 is
    # the constant map onto the first word. An inclusive prefix scan of
    # the maps under composition (Hillis-Steele doubling) leaves word i
    # in d[:, i]. Entries stay below max(n_words, 6), so c*d + d fits
    # uint64 for any n_words below 2**32.
    kind = ((draws >= (1.0 - ESCAPE_PROB) / 2.0).astype(np.uint64)
            + (draws >= 1.0 - ESCAPE_PROB))
    span = np.uint64(n_words)
    c = np.zeros((n_docs, doc_len), dtype=np.uint64)
    d = np.empty((n_docs, doc_len), dtype=np.uint64)
    c[:, 1:] = np.array([3, 5, 0], dtype=np.uint64)[kind]
    d[:, 0] = raw[:, 0] % span
    d[:, 1:] = np.where(kind == 2, raw[:, doc_len:] % span, kind + 1)
    shift = 1
    while shift < doc_len:
        c_late, d_late = c[:, shift:], d[:, shift:]
        c_new = c_late * c[:, :-shift] % n_words
        d_new = (c_late * d[:, :-shift] + d_late) % n_words
        c_late[...] = c_new
        d_late[...] = d_new
        shift *= 2
    return d


def generate_documents(n_docs: int, doc_len: int, n_words: int,
                       seed: int) -> List[str]:
    """Deterministic list of documents, one string of words each."""
    if n_words < 3:
        raise ValueError("need at least 3 word types")
    if n_docs < 1 or doc_len < 1:
        raise ValueError("n_docs and doc_len must be positive")
    # Row w of the table is the bytes of "w%04d " NUL-padded to one width.
    table = np.array([f"w{w:04d} " for w in range(n_words)], dtype=bytes)
    table = table.view(np.uint8).reshape(n_words, -1)
    name_bytes = (table != 0).sum(axis=1)
    block = max(1, BLOCK_TOKENS // doc_len)
    docs = []
    for start in range(0, n_docs, block):
        words = _markov_words(range(start, min(start + block, n_docs)),
                              doc_len, n_words, seed)
        rows = table[words]
        text = rows[rows != 0]
        # Each document's last separator becomes its line break.
        text[np.cumsum(name_bytes[words].sum(axis=1)) - 1] = ord("\n")
        docs += text.tobytes().decode("ascii").splitlines()
    return docs


def generate_corpus(path: str, n_docs: int, doc_len: int, n_words: int,
                    seed: int) -> str:
    """Write a generated corpus to `path`, one document per line."""
    docs = generate_documents(n_docs, doc_len, n_words, seed)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(docs) + "\n")
    return path
