"""``next_pow2``, the FFT size helper that outlived the FFT module."""

from gatedssm.numerics import next_pow2


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(256) == 256
    assert next_pow2(257) == 512
