"""Numeric substrate: a seedable RNG, the tape's entry points and
``next_pow2``.

The tape ops (``add``, ``matmul``, ``gelu``, ``ssm_conv``, ...) are the
functions of ``numerics.tensor`` and have only that name; callers
import the module (``from gatedssm.numerics import tensor as T``) and
call ``T.<op>``.
"""

from .rng import Rng, derive_seed, mix64, raw_block, unit_floats
from .tensor import Tensor, backward, no_grad

__all__ = [
    "Rng",
    "Tensor",
    "backward",
    "derive_seed",
    "mix64",
    "next_pow2",
    "no_grad",
    "raw_block",
    "unit_floats",
]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (1 for n < 1).

    perfbench's tracer sizes its FFT work counters with it.
    """
    if n < 1:
        return 1
    return 1 << (n - 1).bit_length()
