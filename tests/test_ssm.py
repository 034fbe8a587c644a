"""State-space core: discretization, kernels, scan/convolve duality."""

from dataclasses import fields

import numpy as np
import pytest
from conftest import check_grads, count_nodes, traced_peak

import gatedssm.numerics.tensor as T
from gatedssm.numerics import Rng, Tensor, backward, no_grad
from gatedssm.ssm import (
    DT_MAX,
    DT_MIN,
    DiscreteSsm,
    SsmParams,
    convolve,
    discretize,
    init_s4d,
    materialize_kernel,
    scan,
    ssm_apply,
)


def random_params(rng: Rng, n: int) -> SsmParams:
    """Random stable SsmParams (conjugate-pair convention), any n >= 1."""
    return SsmParams(
        log_neg_re=Tensor(rng.normal((n,), std=0.5), requires_grad=True),
        im=Tensor(rng.normal((n,), std=2.0), requires_grad=True),
        c_re=Tensor(rng.normal((n,)), requires_grad=True),
        c_im=Tensor(rng.normal((n,)), requires_grad=True),
        log_dt=Tensor(rng.uniform(None, np.log(0.01), np.log(0.5)),
                      requires_grad=True),
        d=Tensor(rng.normal(), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# initialization


def test_init_s4d_lambda_values():
    p = init_s4d(8, rng=Rng(0))
    lam_re = -np.exp(p.log_neg_re.data)
    np.testing.assert_allclose(lam_re, -0.5, atol=1e-15)
    np.testing.assert_allclose(p.im.data, np.pi * np.arange(4), atol=1e-15)
    assert float(p.d.data) == 1.0


def test_init_s4d_n2_stores_single_pair():
    p = init_s4d(2, rng=Rng(1))
    assert p.n_state == 1
    assert -np.exp(p.log_neg_re.data[0]) == pytest.approx(-0.5)
    assert p.im.data[0] == 0.0


def test_init_s4d_rejects_odd():
    with pytest.raises(ValueError, match="even"):
        init_s4d(5, rng=Rng(0))


def test_init_s4d_dt_range_sampling():
    rng = Rng(42)
    assert (DT_MIN, DT_MAX) == (0.001, 0.1)
    lo, hi = np.log(DT_MIN), np.log(DT_MAX)
    samples = [float(init_s4d(4, rng).log_dt.data)
               for _ in range(1000)]
    assert min(samples) >= lo and max(samples) < hi
    # Spread should cover most of the interval.
    assert max(samples) - min(samples) > 0.9 * (hi - lo)


def test_init_s4d_every_field_trainable():
    p = init_s4d(4, rng=Rng(3))
    for f in fields(p):
        assert getattr(p, f.name).requires_grad, f.name


# ---------------------------------------------------------------------------
# discretization


def test_discretize_closed_form_real_case():
    # Lambda = -1, dt = ln 2, B = 1: a = exp(-ln 2) = 0.5, b = 0.5.
    p = SsmParams(
        log_neg_re=Tensor(np.zeros(1)), im=Tensor(np.zeros(1)),
        c_re=Tensor(np.ones(1)), c_im=Tensor(np.zeros(1)),
        log_dt=Tensor(np.log(np.log(2.0))), d=Tensor(0.0),
    )
    d = discretize(p)
    assert float(d.a_re.data[0]) == pytest.approx(0.5, abs=1e-14)
    assert float(d.a_im.data[0]) == pytest.approx(0.0, abs=1e-14)
    assert float(d.b_re.data[0]) == pytest.approx(0.5, abs=1e-14)


def test_discretize_matches_complex_exponential():
    # Independent route through numpy complex arithmetic.
    rng = Rng(7)
    p = random_params(rng, 6)
    d = discretize(p)
    lam = -np.exp(p.log_neg_re.data) + 1j * p.im.data
    dt = np.exp(float(p.log_dt.data))
    a = np.exp(dt * lam)
    b = (a - 1.0) / lam
    np.testing.assert_allclose(d.a_re.data, a.real, atol=1e-12)
    np.testing.assert_allclose(d.a_im.data, a.imag, atol=1e-12)
    np.testing.assert_allclose(d.b_re.data, b.real, atol=1e-12)
    np.testing.assert_allclose(d.b_im.data, b.imag, atol=1e-12)


def test_discretize_small_dt_limit():
    p = SsmParams(
        log_neg_re=Tensor(np.array([np.log(2.0)])),
        im=Tensor(np.array([3.0])),
        c_re=Tensor(np.ones(1)), c_im=Tensor(np.zeros(1)),
        log_dt=Tensor(np.log(1e-8)), d=Tensor(0.0),
    )
    d = discretize(p)
    assert float(d.a_re.data[0]) == pytest.approx(1.0, abs=1e-7)
    # b_bar -> dt to first order; its imaginary part, dt^2 * Im(Lambda) / 2,
    # is second order.
    assert float(d.b_re.data[0]) == pytest.approx(1e-8, rel=1e-6)
    assert abs(float(d.b_im.data[0])) < 1e-15


def test_discretize_stability():
    for seed in range(5):
        p = random_params(Rng(seed), 8)
        d = discretize(p)
        mag = np.hypot(d.a_re.data, d.a_im.data)
        assert np.all(mag < 1.0)


def test_discretize_gradients():
    rng = Rng(13)
    p = random_params(rng, 3)
    w = Tensor(Rng(1).normal((3,)))

    def f():
        d = discretize(p)
        out = T.add(T.add(T.mul(d.a_re, w), T.mul(d.a_im, w)),
                    T.add(T.mul(d.b_re, w), T.mul(d.b_im, w)))
        return T.tsum(out)

    check_grads(f, [("log_neg_re", p.log_neg_re), ("im", p.im),
                    ("log_dt", p.log_dt)])


# ---------------------------------------------------------------------------
# kernel materialization


def test_kernel_scalar_geometric_case():
    d = DiscreteSsm.from_real(a=0.5, b=1.0, c=2.0, d=0.0)
    k = materialize_kernel(d, 3)
    np.testing.assert_allclose(k.data, [2.0, 1.0, 0.5], atol=1e-14)


def test_kernel_single_tap_formula():
    rng = Rng(19)
    p = random_params(rng, 5)
    d = discretize(p)
    k = materialize_kernel(d, 1)
    cb = (d.c_re.data + 1j * d.c_im.data) * (d.b_re.data + 1j * d.b_im.data)
    assert float(k.data[0]) == pytest.approx(2.0 * cb.real.sum(),
                                                  abs=1e-12)


def test_kernel_matches_power_loop_oracle():
    # Explicit a^l running-product oracle, independent of the
    # exp(l * log a) evaluation in the implementation.
    rng = Rng(23)
    p = random_params(rng, 4)
    d = discretize(p)
    k = materialize_kernel(d, 32)
    a = d.a_re.data + 1j * d.a_im.data
    b = d.b_re.data + 1j * d.b_im.data
    c = d.c_re.data + 1j * d.c_im.data
    power = np.ones_like(a)
    want = np.zeros(32)
    for l in range(32):
        want[l] = 2.0 * np.real(np.sum(c * power * b))
        power = power * a
    np.testing.assert_allclose(k.data, want, atol=1e-10)


def test_kernel_negative_real_pole():
    # Principal-branch log must still give exact integer powers.
    d = DiscreteSsm.from_real(a=-0.8, b=1.0, c=1.0)
    k = materialize_kernel(d, 5)
    np.testing.assert_allclose(
        k.data, [1.0, -0.8, 0.64, -0.512, 0.4096], atol=1e-12
    )


def test_kernel_prefix_extension_consistency():
    for seed in (0, 1, 2):
        p = random_params(Rng(seed), 8)
        d = discretize(p)
        with no_grad():
            short = materialize_kernel(d, 64).data
            long = materialize_kernel(d, 256).data
        np.testing.assert_allclose(long[:64], short, atol=1e-12)


def test_kernel_decay_envelope():
    rng = Rng(31)
    p = random_params(rng, 8)
    d = discretize(p)
    taps = materialize_kernel(d, 128).data
    a_mag = np.hypot(d.a_re.data, d.a_im.data)
    cb_mag = np.hypot(d.c_re.data, d.c_im.data) * np.hypot(d.b_re.data,
                                                           d.b_im.data)
    bound = 2.0 * cb_mag.sum() * np.max(a_mag) ** np.arange(128)
    assert np.all(np.abs(taps) <= bound + 1e-12)


def test_kernel_rejects_bad_length():
    d = DiscreteSsm.from_real(a=0.5, b=1.0, c=1.0)
    with pytest.raises(ValueError):
        materialize_kernel(d, 0)


# ---------------------------------------------------------------------------
# scan and convolve


def test_scan_impulse_reproduces_kernel():
    d = DiscreteSsm.from_real(a=0.5, b=1.0, c=2.0, d=0.0)
    y = scan(d, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(y, [2.0, 1.0, 0.5], atol=1e-14)


def test_scan_zero_input():
    d = DiscreteSsm.from_real(a=0.5, b=1.0, c=2.0, d=1.0)
    np.testing.assert_array_equal(scan(d, np.zeros(5)), np.zeros(5))


def test_convolve_identity_kernel():
    u = Rng(1).normal((8,))
    taps = np.zeros(8)
    taps[0] = 1.0
    out = convolve(Tensor(taps), 0.0, Tensor(u))
    np.testing.assert_allclose(out.data, u, atol=1e-12)


def test_convolve_pure_skip():
    u = Rng(2).normal((8,))
    out = convolve(Tensor(np.zeros(8)), 3.0, Tensor(u))
    np.testing.assert_allclose(out.data, 3.0 * u, atol=1e-12)


def test_convolve_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        convolve(Tensor(np.zeros(4)), 0.0, Tensor(np.zeros(5)))


def test_scan_equals_convolve_quick():
    rng = Rng(37)
    p = random_params(rng, 8)
    d = discretize(p)
    u = rng.normal((64,))
    with no_grad():
        k = materialize_kernel(d, 64)
        y_conv = convolve(k, d.d, Tensor(u)).data
    y_scan = scan(d, u)
    np.testing.assert_allclose(y_conv, y_scan, atol=1e-9)


def test_causality_of_convolution_path():
    rng = Rng(41)
    p = random_params(rng, 8)
    d = discretize(p)
    u = rng.normal((32,))
    with no_grad():
        k = materialize_kernel(d, 32)
        base = convolve(k, d.d, Tensor(u)).data
        for j in (5, 17, 31):
            pert = u.copy()
            pert[j] += 1.0
            out = convolve(k, d.d, Tensor(pert)).data
            assert np.max(np.abs(out[:j] - base[:j])) < 1e-12
            assert abs(out[j] - base[j]) > 1e-6


# ---------------------------------------------------------------------------
# ssm_apply


def test_ssm_apply_single_column_reduces_to_convolve():
    rng = Rng(43)
    p = init_s4d(8, rng=rng)
    x = rng.normal((16, 1))
    with no_grad():
        got = ssm_apply(p, Tensor(x)).data
        k = materialize_kernel(discretize(p), 16)
        want = convolve(k, p.d, Tensor(x[:, 0])).data
    np.testing.assert_allclose(got[:, 0], want, atol=1e-12)


def test_ssm_apply_identical_columns_identical_outputs():
    rng = Rng(47)
    p = init_s4d(8, rng=rng)
    col = rng.normal((16,))
    x = np.stack([col, col], axis=1)
    with no_grad():
        out = ssm_apply(p, Tensor(x)).data
    np.testing.assert_array_equal(out[:, 0], out[:, 1])


def test_ssm_apply_matches_per_column_scan():
    rng = Rng(53)
    p = init_s4d(8, rng=rng)
    x = rng.normal((16, 4))
    d = discretize(p)
    with no_grad():
        got = ssm_apply(p, Tensor(x)).data
    no_skip = DiscreteSsm(d.a_re, d.a_im, d.b_re, d.b_im, d.c_re, d.c_im,
                          Tensor(0.0))
    for col in range(4):
        want = scan(no_skip, x[:, col]) + float(p.d.data) * x[:, col]
        np.testing.assert_allclose(got[:, col], want, atol=1e-9)


def test_ssm_apply_tape_node_count():
    # One application is an ssm_conv node between two transposes; the
    # first records nothing when the input needs no gradient.
    p = init_s4d(8, rng=Rng(71))
    x = Rng(72).normal((2, 16, 3))
    assert count_nodes(ssm_apply(p, Tensor(x))) == 2
    assert count_nodes(ssm_apply(p, Tensor(x, requires_grad=True))) == 3


def test_ssm_apply_no_grad_records_nothing_and_matches():
    # The eval path: same bits as the recording forward, and no tape.
    rng = Rng(73)
    p = random_params(rng, 4)
    x = Tensor(rng.normal((2, 2 * CHUNK + 5, 3)), requires_grad=True)
    recorded = ssm_apply(p, x)
    with no_grad():
        plain = ssm_apply(p, x)
    assert recorded.node is not None
    assert plain.node is None and not plain.requires_grad
    np.testing.assert_array_equal(plain.data, recorded.data)


def test_ssm_apply_batched_matches_unbatched():
    rng = Rng(59)
    p = init_s4d(4, rng=rng)
    x = rng.normal((3, 8, 2))
    with no_grad():
        batched = ssm_apply(p, Tensor(x)).data
        for i in range(3):
            single = ssm_apply(p, Tensor(x[i])).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_full_composite_gradients():
    # discretize -> materialize -> convolve chain, all parameters.
    rng = Rng(61)
    p = random_params(rng, 3)
    u = Tensor(rng.normal((10,)), requires_grad=True)
    w = Tensor(Rng(5).normal((10,)))

    def f():
        k = materialize_kernel(discretize(p), 10)
        return T.tsum(T.mul(convolve(k, p.d, u), w))

    check_grads(f, [
        ("log_neg_re", p.log_neg_re), ("im", p.im), ("c_re", p.c_re),
        ("c_im", p.c_im), ("log_dt", p.log_dt), ("d", p.d), ("u", u),
    ])


def test_ssm_apply_gradients():
    rng = Rng(67)
    p = init_s4d(4, rng=rng)
    x = Tensor(rng.normal((8, 3)), requires_grad=True)
    w = Tensor(Rng(6).normal((8, 3)))

    def f():
        return T.tsum(T.mul(ssm_apply(p, x), w))

    check_grads(f, [
        ("log_neg_re", p.log_neg_re), ("im", p.im), ("c_re", p.c_re),
        ("c_im", p.c_im), ("log_dt", p.log_dt), ("d", p.d), ("x", x),
    ])


# ---------------------------------------------------------------------------
# chunked state-passing convolution

CHUNK = T.CONV_BLOCK
FIELDS = [f.name for f in fields(SsmParams)]


def reference_apply(p: SsmParams, x: Tensor) -> Tensor:
    """ssm_apply through the whole kernel and ``causal_conv``."""
    axes = (1, 0) if x.ndim == 2 else (0, 2, 1)
    taps = materialize_kernel(discretize(p), x.shape[-2])
    y = T.transpose(T.causal_conv(taps, T.transpose(x, axes)), axes)
    return T.add(y, T.mul(p.d, x))


def output_and_grads(apply, p, x, w) -> list:
    """apply(p, x) and the gradients of sum(w * out) for every field and x."""
    leaves = [getattr(p, name) for name in FIELDS] + [x]
    for t in leaves:
        t.zero_grad()
    out = apply(p, x)
    backward(T.tsum(T.mul(out, w)))
    return [out.data] + [t.grad.copy() for t in leaves]


@pytest.mark.parametrize("L", [1, 2, 33, CHUNK])
def test_ssm_apply_single_chunk_matches_reference(L):
    # The taps come from z = dt * Lambda rather than from log|a| and
    # arg a, so one chunk agrees with the reference to rounding.
    rng = Rng(800 + L)
    p = random_params(rng, 4)
    x = Tensor(rng.normal((2, L, 3)), requires_grad=True)
    w = Tensor(rng.normal((2, L, 3)))
    got = output_and_grads(ssm_apply, p, x, w)
    want = output_and_grads(reference_apply, p, x, w)
    for name, a, b in zip(["out"] + FIELDS + ["x"], got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("L", [1, 2, 33, 2048])
def test_ssm_apply_gradients_at_default_block(L):
    # Finite differences at the chunk length training runs with: one
    # tap, two, one partial chunk, eight chunks.
    rng = Rng(850 + L)
    p = random_params(rng, 3)
    x = Tensor(rng.normal((L, 1)), requires_grad=True)
    w = Tensor(rng.normal((L, 1)))
    check_grads(lambda: T.tsum(T.mul(ssm_apply(p, x), w)),
                [(name, getattr(p, name)) for name in FIELDS] + [("x", x)])


@pytest.mark.parametrize("n_state", [8, 64])
@pytest.mark.parametrize("L", [CHUNK + 1, 1000, 2048, 4096])
def test_ssm_apply_matches_scan_across_chunks(L, n_state):
    rng = Rng(900 + L + n_state)
    p = init_s4d(n_state, rng=rng)
    u = rng.normal((L,))
    with no_grad():
        got = ssm_apply(p, Tensor(u.reshape(L, 1))).data[:, 0]
    gap = float(np.max(np.abs(got - scan(discretize(p), u))))
    assert gap < 1e-8, f"gap {gap:.3e}"


@pytest.mark.parametrize("batched", [False, True], ids=["L-d", "B-L-d"])
@pytest.mark.parametrize("L", [7, 8, 9, 23, 29])
def test_ssm_apply_chunked_gradients(L, batched, monkeypatch):
    # 8-long chunks keep finite differences cheap: b - 1 (one chunk),
    # b, b + 1, 2b + 7 and four chunks with a padded tail.
    monkeypatch.setattr(T, "CONV_BLOCK", 8)
    rng = Rng(1000 + L)
    p = random_params(rng, 3)
    shape = (2, L, 3) if batched else (L, 3)
    x = Tensor(rng.normal(shape), requires_grad=True)
    w = Tensor(rng.normal(shape))
    got = output_and_grads(ssm_apply, p, x, w)
    want = output_and_grads(reference_apply, p, x, w)
    for name, a, b in zip(["out"] + FIELDS + ["x"], got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)
    check_grads(lambda: T.tsum(T.mul(ssm_apply(p, x), w)),
                [(name, getattr(p, name)) for name in FIELDS] + [("x", x)])


def test_ssm_apply_memory_stays_below_the_toeplitz_blocks():
    # One forward and backward at L = 2048 used to build all eight
    # (256, 256) Toeplitz blocks of the kernel, 4 MiB, and peaked at
    # 6.0 MiB; the chunked path only ever builds the first block.
    L, cols = 2048, 8
    rng = Rng(1100)
    p = init_s4d(16, rng=rng)
    x = Tensor(rng.normal((L, cols)), requires_grad=True)
    w = Tensor(rng.normal((L, cols)))
    peak = traced_peak(lambda: backward(T.tsum(T.mul(ssm_apply(p, x), w))))
    assert peak < (L // CHUNK) * CHUNK * CHUNK * 8, \
        f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("shapes,match", [
    ([(2,)] * 4 + [(3, 0)], "length >= 1"),
    ([(2,), (3,), (2,), (2,), (3, 8)], "one shape"),
    ([(2,), (2,), (2,), (1,), (3, 8)], "one shape"),
    ([(0,)] * 4 + [(3, 8)], "one shape"),
], ids=["L=0", "im-length", "c_im-length", "no-state"])
def test_ssm_conv_rejects_bad_input(shapes, match):
    *vectors, u = (np.zeros(s) for s in shapes)
    with pytest.raises(ValueError, match=match) as err:
        T.ssm_conv(*vectors, 0.0, 1.0, u)
    assert "\n" not in str(err.value)
