"""Seedable 64-bit random number generator.

Every random choice in the package (parameter init, masking, shuffling,
dropout) goes through this generator so that a seed fully determines a
run. The algorithm is SplitMix64: the state advances by a fixed odd
constant and each output is a bit-mixing finalizer of the new state.
It is documented here so the stream can be reproduced in any language:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

All arithmetic is modulo 2**64.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

# 2**-53, the spacing of doubles in [0, 1).
_INV53 = float(np.ldexp(1.0, -53))


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a single 64-bit integer."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *words: int | str) -> int:
    """Derive an independent child seed from a base seed and labels.

    Used for per-shard, per-epoch, and per-step streams so that work can
    be reordered or parallelized without changing any stream. Strings
    are folded in byte by byte; integers directly.
    """
    h = mix64(seed ^ _GOLDEN)
    for word in words:
        if isinstance(word, str):
            for b in word.encode("utf-8"):
                h = mix64(h ^ (b + 1))
        else:
            h = mix64(h ^ (word & _MASK64) ^ _GOLDEN)
    return h


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _U_MIX1
    z = (z ^ (z >> _S27)) * _U_MIX2
    return z ^ (z >> _S31)


def raw_block(seeds, n: int) -> np.ndarray:
    """The first n raw outputs of ``Rng(s)`` for every seed s at once.

    `seeds` is an int or an array of them; the result has the shape of
    `seeds` plus a trailing axis of length n, and entry [..., k] is the
    (k+1)-th 64-bit output of that seed's stream.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    steps = np.arange(1, n + 1, dtype=np.uint64) * _U_GOLDEN
    return _finalize(seeds[..., None] + steps)


def unit_floats(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw draws: the top 53 bits times 2**-53,
    the mapping ``Rng.uniform`` uses."""
    return (raw >> np.uint64(11)).astype(np.float64) * _INV53


class Rng:
    """SplitMix64 stream with vectorized draws.

    The only mutable state is a single 64-bit integer. Nothing persists
    an Rng: every stream a run draws from starts afresh from
    ``derive_seed(seed, ...)``, so a resumed run rebuilds its streams.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _raw(self, n: int) -> np.ndarray:
        """Next n outputs as a uint64 array; advances the state by n."""
        out = raw_block(self._state, n)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return out

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        """Uniform floats in [low, high). Scalar when shape is None."""
        n = 1 if shape is None else int(np.prod(shape))
        u = unit_floats(self._raw(n))
        if low != 0.0 or high != 1.0:
            # Skipped for [0, 1): the affine map is exact there.
            u = low + (high - low) * u
        if shape is None:
            return float(u[0])
        return u.reshape(shape)

    def normal(self, shape=None, mean: float = 0.0, std: float = 1.0):
        """Gaussian draws via the Box-Muller transform."""
        n = 1 if shape is None else int(np.prod(shape))
        m = (n + 1) // 2
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        b1 = (self._raw(m) >> np.uint64(11)).astype(np.float64)
        b2 = (self._raw(m) >> np.uint64(11)).astype(np.float64)
        u1 = (b1 + 1.0) * _INV53
        u2 = b2 * _INV53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        z = mean + std * z
        if shape is None:
            return float(z[0])
        return z.reshape(shape)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high).

        Uses modulo reduction; with a 64-bit source the bias is below
        2**-40 for any span used here, far under statistical tolerance.
        """
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        span = np.uint64(high - low)
        n = 1 if shape is None else int(np.prod(shape))
        vals = (self._raw(n) % span).astype(np.int64) + low
        if shape is None:
            return int(vals[0])
        return vals.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n)."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        raws = self._raw(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(raws[n - 1 - i] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm
