"""Numeric substrate: tensors with reverse-mode autodiff (the causal
convolution included), a seedable RNG, and ``next_pow2``."""

from .rng import Rng, derive_seed, mix64, raw_block, unit_floats
from .tensor import (
    Tensor,
    TapeNode,
    add,
    as_tensor,
    atan2,
    backward,
    causal_conv,
    div,
    embedding,
    flip,
    gelu,
    getitem,
    layer_norm,
    masked_cross_entropy,
    matmul,
    mul,
    neg,
    no_grad,
    power,
    reshape,
    softmax,
    sub,
    tcos,
    texp,
    tlog,
    tmean,
    tsin,
    tsqrt,
    tsum,
    transpose,
)

__all__ = [
    "Rng",
    "TapeNode",
    "Tensor",
    "add",
    "as_tensor",
    "atan2",
    "backward",
    "causal_conv",
    "derive_seed",
    "div",
    "embedding",
    "flip",
    "gelu",
    "getitem",
    "layer_norm",
    "masked_cross_entropy",
    "matmul",
    "mix64",
    "mul",
    "neg",
    "next_pow2",
    "no_grad",
    "power",
    "raw_block",
    "reshape",
    "softmax",
    "sub",
    "tcos",
    "texp",
    "tlog",
    "tmean",
    "transpose",
    "tsin",
    "tsqrt",
    "tsum",
    "unit_floats",
]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (1 for n < 1).

    perfbench's tracer sizes its FFT work counters with it.
    """
    if n < 1:
        return 1
    return 1 << (n - 1).bit_length()
