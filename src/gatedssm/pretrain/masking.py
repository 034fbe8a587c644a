"""Offline token masking for MLM: select, then replace 80/10/10."""

from __future__ import annotations

import numpy as np

from ..numerics import Rng
from .vocab import MASK, N_SPECIAL

IGNORE_LABEL = -1


def mask_tokens(ids: np.ndarray, mask_rate: float, rng: Rng,
                vocab_size: int):
    """BERT-style masking of one id array, any shape.

    Every non-special position is selected independently with
    probability `mask_rate`. Of the selected: 80% become the MASK id,
    10% a random non-special vocabulary id, 10% stay unchanged. Returns
    (input_ids, labels); labels carry the original id at selected
    positions and -1 elsewhere.

    Three fixed-size draws are consumed from `rng` regardless of which
    positions end up selected, so the stream position depends only on
    the input shape.
    """
    if not 0.0 < mask_rate < 1.0:
        raise ValueError("mask_rate must lie strictly between 0 and 1")
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("token ids must be integers")
    select_draw = rng.uniform(ids.shape)
    kind_draw = rng.uniform(ids.shape)
    random_ids = rng.integers(N_SPECIAL, vocab_size, ids.shape)

    maskable = ids >= N_SPECIAL
    selected = maskable & (select_draw < mask_rate)

    out = ids.copy()
    to_mask = selected & (kind_draw < 0.8)
    to_random = selected & (kind_draw >= 0.8) & (kind_draw < 0.9)
    out[to_mask] = MASK
    out[to_random] = random_ids[to_random]

    labels = np.full(ids.shape, IGNORE_LABEL, dtype=ids.dtype)
    labels[selected] = ids[selected]
    return out, labels
