"""Iterative radix-2 FFT on split real/imaginary float64 buffers.

Supports power-of-two lengths only; callers zero-pad (``next_pow2``
helps). Convention: the transform uses exp(-2*pi*i*j*k/n) with no
scaling; only the forward direction exists.

The batched entry point ``transform`` works on arrays of shape
(..., n); ``fft`` wraps it for single vectors.

No convolution calls this module: ``tensor.causal_conv`` runs as
Toeplitz GEMMs, which measured faster than this transform at every
length up to 4096. It stays as a standalone, tested transform; the
cost model in ``gatedssm.analysis`` still prices convolutions as real
FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ComplexVector:
    """A complex vector stored as separate re/im float64 buffers."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        self.re = np.asarray(self.re, dtype=np.float64)
        self.im = np.asarray(self.im, dtype=np.float64)
        if self.re.shape != self.im.shape:
            raise ValueError(
                f"re/im shapes differ: {self.re.shape} vs {self.im.shape}"
            )
        if self.re.ndim != 1:
            raise ValueError("ComplexVector is one-dimensional")

    def __len__(self) -> int:
        return self.re.shape[0]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        return 1
    return 1 << (n - 1).bit_length()


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# Cached per length: bit-reversal permutation and per-stage twiddles
# (cos, sin) for the forward sign convention.
_PLANS: dict[int, tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]] = {}


def _plan(n: int):
    plan = _PLANS.get(n)
    if plan is not None:
        return plan
    levels = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.intp)
    for i in range(1, n):
        rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (levels - 1))
    stages = []
    for s in range(1, levels + 1):
        half = 1 << (s - 1)
        ang = -2.0 * np.pi * np.arange(half) / (2 * half)
        stages.append((np.cos(ang), np.sin(ang)))
    plan = (rev, stages)
    _PLANS[n] = plan
    return plan


def transform(re: np.ndarray, im: np.ndarray):
    """Radix-2 FFT along the last axis of (..., n) arrays.

    Returns new (re, im) arrays; inputs are not modified.
    """
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    if re.shape != im.shape:
        raise ValueError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    n = re.shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    if n == 1:
        return re.copy(), im.copy()

    rev, stages = _plan(n)
    lead = re.shape[:-1]
    # Fancy indexing yields fresh contiguous arrays we can butterfly in place.
    a = re.reshape(-1, n)[:, rev]
    b = im.reshape(-1, n)[:, rev]
    for w_re, w_im in stages:
        half = w_re.shape[0]
        m = 2 * half
        ar = a.reshape(-1, n // m, m)
        br = b.reshape(-1, n // m, m)
        lo_re, hi_re = ar[..., :half], ar[..., half:]
        lo_im, hi_im = br[..., :half], br[..., half:]
        t_re = hi_re * w_re - hi_im * w_im
        t_im = hi_re * w_im + hi_im * w_re
        np.subtract(lo_re, t_re, out=hi_re)
        np.subtract(lo_im, t_im, out=hi_im)
        np.add(lo_re, t_re, out=lo_re)
        np.add(lo_im, t_im, out=lo_im)
    return a.reshape(*lead, n), b.reshape(*lead, n)


def fft(x: ComplexVector) -> ComplexVector:
    """Forward transform of a single complex vector."""
    re, im = transform(x.re, x.im)
    return ComplexVector(re, im)
