"""Tests for the SplitMix64 generator."""

import numpy as np

from gatedssm.numerics import Rng, derive_seed, mix64, raw_block, unit_floats


def test_known_splitmix64_values():
    # Reference outputs for seed 1234567, computed from the published
    # SplitMix64 algorithm by an independent big-integer evaluation.
    def ref_stream(seed, n):
        mask = (1 << 64) - 1
        state = seed
        out = []
        for _ in range(n):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    rng = Rng(1234567)
    assert [int(rng._raw(1)[0]) for _ in range(8)] == ref_stream(1234567, 8)
    assert [int(v) for v in raw_block(1234567, 8)] == ref_stream(1234567, 8)


def test_vectorized_matches_scalar_draws():
    a, b = Rng(99), Rng(99)
    block = a._raw(16)
    singles = np.concatenate([b._raw(1) for _ in range(16)])
    assert np.array_equal(block, singles)
    assert np.array_equal(a._raw(3), b._raw(3))


def test_raw_block_matches_per_seed_draws():
    seeds = [0, 1, 99, (1 << 64) - 1, derive_seed(5, 3)]
    block = raw_block(seeds, 7)
    assert block.shape == (5, 7) and block.dtype == np.uint64
    for row, seed in zip(block, seeds):
        rng = Rng(seed)
        assert np.array_equal(row[:1], rng._raw(1))
        assert np.array_equal(unit_floats(row[1:4]), rng.uniform((3,)))
        assert np.array_equal(row[4:] % np.uint64(10),
                              rng.integers(0, 10, (3,)))
    assert np.array_equal(raw_block(99, 7), block[2])
    assert raw_block(seeds, 0).shape == (5, 0)


def test_uniform_range_and_moments():
    u = Rng(3).uniform((200_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    u2 = Rng(4).uniform((1000,), low=-2.0, high=5.0)
    assert u2.min() >= -2.0 and u2.max() < 5.0


def test_uniform_default_range_is_the_affine_formula_bit_for_bit():
    # [0, 1) skips low + (high - low) * u, which is exact there.
    for shape in ((2, 2048, 64), (7,)):
        n = int(np.prod(shape))
        want = 0.0 + (1.0 - 0.0) * unit_floats(Rng(8)._raw(n))
        got = Rng(8).uniform(shape)
        assert np.array_equal(got.reshape(-1), want)
    assert Rng(8).uniform() == float(unit_floats(Rng(8)._raw(1))[0])


def test_normal_moments():
    z = Rng(11).normal((200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    z2 = Rng(12).normal((50_000,), mean=3.0, std=0.5)
    assert abs(z2.mean() - 3.0) < 0.02
    assert abs(z2.std() - 0.5) < 0.02


def test_integers_cover_range():
    v = Rng(5).integers(2, 7, (20_000,))
    assert set(np.unique(v)) == {2, 3, 4, 5, 6}


def test_permutation_is_a_permutation():
    perm = Rng(8).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    # Different seeds give different orders with overwhelming probability.
    assert not np.array_equal(perm, Rng(9).permutation(100))


def test_derive_seed_independent_of_call_order():
    s1 = derive_seed(42, "shard", 3)
    s2 = derive_seed(42, "shard", 4)
    assert s1 != s2
    assert derive_seed(42, "shard", 3) == s1
    assert derive_seed(43, "shard", 3) != s1
    assert mix64(12345) != 12345
