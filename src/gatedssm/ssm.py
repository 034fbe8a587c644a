"""Diagonal state-space models: parameters, discretization, kernels.

A continuous-time linear system x'(t) = diag(Lambda) x(t) + u(t),
y(t) = Re(C x(t)) + D u(t) is discretized by zero-order hold at step
dt and then applied to length-L sequences in one of three numerically
equivalent ways, which the tests set against each other: as a stepwise
recurrence (``scan``, the reference), as a causal convolution with
the impulse-response kernel that ``discretize`` and
``materialize_kernel`` build on the tape (``convolve``), or, in
``ssm_apply``, the trained path, as one ``tensor.ssm_conv`` op that
takes the parameters themselves: it builds the Vandermonde kernel
below its chunk length and the skip D, convolves densely within
chunks and carries the state across them. The two kernel routes
agree to rounding, not bit for bit. The input matrix is fixed at
B = 1 (S4D): any other constant B folds into C, so it is neither
stored nor trained.

Storage convention: state entries come in conjugate pairs, and only
the upper half-plane member of each pair is stored. With that
convention both the kernel taps and the scan readout take twice the
real part of the stored half-sum. ``DiscreteSsm.from_real`` stores
c/2, so the doubling gives a real system's c back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, Tensor
from .numerics import tensor as T

# Range of the initial step size dt, drawn log-uniformly (S4D, Gu et
# al. 2022, arXiv 2206.11893).
DT_MIN = 1e-3
DT_MAX = 1e-1


@dataclass
class SsmParams:
    """Trainable continuous-time parameters of one directional SSM.

    The real part of Lambda is parameterized as -exp(log_neg_re) so the
    system is stable for every parameter value. B is 1 and not stored.
    All buffers have length n_state, which counts stored (half-pair)
    entries.
    """

    log_neg_re: Tensor
    im: Tensor
    c_re: Tensor
    c_im: Tensor
    log_dt: Tensor
    d: Tensor

    def __post_init__(self):
        n = self.log_neg_re.shape[0]
        if n < 1:
            raise ValueError("SsmParams needs at least one state")
        for name in ("im", "c_re", "c_im"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"SsmParams field {name} must have shape ({n},)")

    @property
    def n_state(self) -> int:
        return self.log_neg_re.shape[0]


@dataclass
class DiscreteSsm:
    """Zero-order-hold discretization: recursion coefficients.

    a_bar/b_bar/c are split-complex pairs of length n_state; d is the
    scalar skip. |a_bar| < 1 whenever the parameters came from
    ``discretize`` (stability).
    """

    a_re: Tensor
    a_im: Tensor
    b_re: Tensor
    b_im: Tensor
    c_re: Tensor
    c_im: Tensor
    d: Tensor

    @property
    def n_state(self) -> int:
        return self.a_re.shape[0]

    @classmethod
    def from_real(cls, a, b, c, d: float = 0.0) -> "DiscreteSsm":
        """Build a real-coefficient system with readout y = c.x + d*u.

        c is stored halved so that the conjugate-pair doubling of the
        kernel and the scan gives it back exactly.
        """
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        c = np.atleast_1d(np.asarray(c, dtype=np.float64))
        zeros = np.zeros_like(a)
        return cls(Tensor(a), Tensor(zeros.copy()), Tensor(b),
                   Tensor(zeros.copy()), Tensor(0.5 * c), Tensor(zeros.copy()),
                   Tensor(float(d)))


def init_s4d(n_state: int, rng: Rng) -> SsmParams:
    """Diagonal-linear initialization.

    Stored (half-pair) entries are Lambda_n = -1/2 + i*pi*n for
    n = 0..n_state/2 - 1; C has unit-normal re/im components; log_dt
    is uniform in [log DT_MIN, log DT_MAX]; the skip D starts at 1.
    Every field is trainable. n_state counts full conjugate pairs and
    must be even.
    """
    if n_state % 2 != 0 or n_state < 2:
        raise ValueError(f"n_state must be even and >= 2, got {n_state}")
    half = n_state // 2
    log_neg_re = Tensor(np.full(half, np.log(0.5)), requires_grad=True)
    im = Tensor(np.pi * np.arange(half, dtype=np.float64), requires_grad=True)
    c_re = Tensor(rng.normal((half,)), requires_grad=True)
    c_im = Tensor(rng.normal((half,)), requires_grad=True)
    log_dt = Tensor(rng.uniform(None, np.log(DT_MIN), np.log(DT_MAX)),
                    requires_grad=True)
    d = Tensor(1.0, requires_grad=True)
    return SsmParams(log_neg_re, im, c_re, c_im, log_dt, d)


def discretize(p: SsmParams) -> DiscreteSsm:
    """Zero-order-hold: a_bar = exp(dt*Lambda), b_bar = (a_bar-1)/Lambda.

    b_bar is the hold of the unit input matrix B = 1. Exact for a
    diagonal system, and differentiable with respect to every field of
    the parameters.
    """
    dt = T.texp(p.log_dt)
    lam_re = T.neg(T.texp(p.log_neg_re))
    lam_im = p.im
    dt_re = T.mul(dt, lam_re)
    dt_im = T.mul(dt, lam_im)
    mag = T.texp(dt_re)
    a_re = T.mul(mag, T.tcos(dt_im))
    a_im = T.mul(mag, T.tsin(dt_im))
    # (a_bar - 1) / Lambda, complex division by conjugate.
    num_re = T.sub(a_re, 1.0)
    num_im = a_im
    den = T.add(T.mul(lam_re, lam_re), T.mul(lam_im, lam_im))
    q_re = T.div(T.add(T.mul(num_re, lam_re), T.mul(num_im, lam_im)), den)
    q_im = T.div(T.sub(T.mul(num_im, lam_re), T.mul(num_re, lam_im)), den)
    return DiscreteSsm(a_re, a_im, q_re, q_im, p.c_re, p.c_im, p.d)


def materialize_kernel(d: DiscreteSsm, length: int) -> Tensor:
    """Impulse-response taps for lags 0 .. length-1, as a (length,)
    tensor: taps[l] = 2 Re sum_n c_n b_n a_n^l.

    Powers are evaluated in the diagonal (Vandermonde) form a^l =
    exp(l log a) rather than by repeated multiplication; the principal
    branch of the complex log is exact here because l is an integer.
    The doubling is the conjugate-pair storage convention.
    """
    if length < 1:
        raise ValueError(f"kernel length must be >= 1, got {length}")
    log_mag = T.mul(0.5, T.tlog(T.add(T.mul(d.a_re, d.a_re),
                                      T.mul(d.a_im, d.a_im))))
    arg = T.atan2(d.a_im, d.a_re)
    steps = np.arange(length, dtype=np.float64).reshape(1, length)
    n = d.n_state
    m_re = T.mul(T.reshape(log_mag, (n, 1)), steps)
    m_im = T.mul(T.reshape(arg, (n, 1)), steps)
    p_mag = T.texp(m_re)
    p_re = T.mul(p_mag, T.tcos(m_im))
    p_im = T.mul(p_mag, T.tsin(m_im))
    w_re = T.sub(T.mul(d.c_re, d.b_re), T.mul(d.c_im, d.b_im))
    w_im = T.add(T.mul(d.c_re, d.b_im), T.mul(d.c_im, d.b_re))
    taps = T.sub(T.matmul(T.reshape(w_re, (1, n)), p_re),
                 T.matmul(T.reshape(w_im, (1, n)), p_im))
    return T.reshape(T.mul(2.0, taps), (length,))


def scan(d: DiscreteSsm, u: np.ndarray) -> np.ndarray:
    """Stepwise recurrence reference: x_k = a x_{k-1} + b u_k.

    Readout y_k = 2 Re(c . x_k) + d_skip * u_k with the same
    doubling convention as the kernel. Pure numpy, not differentiable;
    this is the oracle the convolution path is checked against.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("scan expects a 1-D sequence")
    a = d.a_re.data + 1j * d.a_im.data
    b = d.b_re.data + 1j * d.b_im.data
    c = d.c_re.data + 1j * d.c_im.data
    d_skip = float(d.d.data)
    x = np.zeros_like(a)
    y = np.zeros_like(u)
    for k in range(u.shape[0]):
        x = a * x + b * u[k]
        y[k] = 2.0 * np.real(np.dot(c, x)) + d_skip * u[k]
    return y


def convolve(taps, d_skip, u) -> Tensor:
    """Causal convolution with the kernel taps plus the d_skip * u
    passthrough.

    Differentiable with respect to taps, skip, and input. The kernel
    length must equal the sequence length (``causal_conv`` checks it).
    """
    u = T.as_tensor(u)
    d_skip = T.as_tensor(d_skip)
    return T.add(T.causal_conv(taps, u), T.mul(d_skip, u))


def ssm_apply(p: SsmParams, x: Tensor) -> Tensor:
    """Apply one SSM, skip included, to every feature column of a
    sequence.

    x has shape (L, d) or (B, L, d); every column is convolved with the
    same kernel (all columns share the parameterization). The whole
    application is one ``ssm_conv`` node between two transposes.
    """
    x = T.as_tensor(x)
    if x.ndim not in (2, 3):
        raise ValueError(f"ssm_apply expects (L, d) or (B, L, d), got {x.shape}")
    axes = (1, 0) if x.ndim == 2 else (0, 2, 1)
    y = T.ssm_conv(p.log_neg_re, p.im, p.c_re, p.c_im, p.log_dt, p.d,
                   T.transpose(x, axes))  # (..., d, L)
    return T.transpose(y, axes)
