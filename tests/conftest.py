"""Shared test helpers: finite-difference oracle, error metrics and a
memory probe."""

from __future__ import annotations

import tracemalloc
from typing import Callable, Sequence

import numpy as np

from gatedssm.numerics import Tensor, no_grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray,
            floor: float = 1e-6) -> float:
    """Worst-case elementwise relative error with an absolute floor.

    The floor keeps near-zero gradient entries from blowing up the
    ratio; 1e-6 sits well below any gradient magnitude the checks care
    about while staying far above central-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def finite_difference_grad(f: Callable[[], Tensor], param: Tensor,
                           h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. one tensor.

    Independent oracle for the tape: perturbs each entry of the
    parameter in place (restoring it afterwards) and re-evaluates the
    forward function, never touching backward rules.
    """
    base = param.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(f().data)
            flat[i] = keep - h
            down = float(f().data)
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
    return grad


def check_grads(f: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]],
                h: float = 1e-5, tol: float = 1e-4) -> None:
    """Backward pass vs central differences for every named parameter."""
    from gatedssm.numerics import backward

    for _, p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    for name, p in params:
        fd = finite_difference_grad(f, p, h=h)
        err = rel_err(p.grad, fd)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e}"


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_nodes(out: Tensor) -> int:
    """Tape nodes reachable from out."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if t.node is not None and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.node.inputs)
    return len(seen)


def boost_gated_weights(blk, factor: float = 25.0) -> None:
    """Scale a freshly initialized gated block's projections up to O(1).

    The default init is deliberately small, which makes the doubly
    multiplicative gate squash block outputs to around 1e-9; probe tests
    that measure influence or finite differences need healthy magnitudes.
    """
    for name in ("w_v", "w_f", "w_b", "w_u1", "w_u2", "w_u", "w_o"):
        getattr(blk, name).data[:] *= factor
