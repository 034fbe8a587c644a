"""FFT tests against a direct O(n^2) DFT oracle."""

import numpy as np
import pytest

from gatedssm.numerics import ComplexVector, Rng, fft, next_pow2, transform


def dft_oracle(re, im):
    """Direct summation DFT, written independently of the FFT code."""
    n = len(re)
    out_re = np.zeros(n)
    out_im = np.zeros(n)
    for k in range(n):
        for j in range(n):
            ang = -2.0 * np.pi * j * k / n
            c, s = np.cos(ang), np.sin(ang)
            out_re[k] += re[j] * c - im[j] * s
            out_im[k] += re[j] * s + im[j] * c
    return out_re, out_im


def test_zeros_transform_to_zeros():
    v = fft(ComplexVector(np.zeros(8), np.zeros(8)))
    assert np.all(v.re == 0) and np.all(v.im == 0)


def test_impulse_transforms_to_ones():
    v = fft(ComplexVector(np.array([1.0, 0, 0, 0]), np.zeros(4)))
    np.testing.assert_allclose(v.re, np.ones(4), atol=1e-15)
    np.testing.assert_allclose(v.im, np.zeros(4), atol=1e-15)


def test_length_one_is_identity():
    v = fft(ComplexVector(np.array([3.5]), np.array([-1.0])))
    assert v.re[0] == 3.5 and v.im[0] == -1.0


def test_matches_dft_oracle_length_16():
    rng = Rng(123)
    re = rng.normal((16,))
    im = rng.normal((16,))
    got = fft(ComplexVector(re, im))
    want_re, want_im = dft_oracle(re, im)
    np.testing.assert_allclose(got.re, want_re, atol=1e-10)
    np.testing.assert_allclose(got.im, want_im, atol=1e-10)


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError, match="power of two"):
        fft(ComplexVector(np.zeros(12), np.zeros(12)))


def test_batched_transform_matches_per_row():
    rng = Rng(55)
    x = rng.normal((5, 32))
    re_b, im_b = transform(x, np.zeros_like(x))
    for i in range(5):
        v = fft(ComplexVector(x[i], np.zeros(32)))
        np.testing.assert_allclose(re_b[i], v.re, atol=1e-12)
        np.testing.assert_allclose(im_b[i], v.im, atol=1e-12)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(256) == 256
    assert next_pow2(257) == 512
