"""Shared test helpers: finite-difference oracle, error metrics, a
memory probe and the masked-LM loss as plain compositions."""

from __future__ import annotations

import tracemalloc
from typing import Callable, Sequence

import numpy as np

import gatedssm.numerics.tensor as T
from gatedssm.model import gated_block, stacked_block
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


def tape_nodes(out: Tensor) -> list:
    """Tape nodes reachable from out."""
    seen, stack, nodes = set(), [out], []
    while stack:
        t = stack.pop()
        if t.node is not None and id(t) not in seen:
            seen.add(id(t))
            nodes.append(t.node)
            stack.extend(t.node.inputs)
    return nodes


def count_nodes(out: Tensor) -> int:
    return len(tape_nodes(out))


def boost_gated_weights(blk, factor: float = 25.0) -> None:
    """Scale a freshly initialized gated block's projections up to O(1).

    The default init is deliberately small, which makes the doubly
    multiplicative gate squash block outputs to around 1e-9; probe tests
    that measure influence or finite differences need healthy magnitudes.
    """
    for name in ("w_v", "w_f", "w_b", "w_u1", "w_u2", "w_u", "w_o"):
        getattr(blk, name).data[:] *= factor


def unblocked_cross_entropy(logits, targets, g=1.0):
    """Mean softmax cross-entropy of every row against its target and
    its gradient, as one pass over whole arrays with a shifted copy and
    a separate gradient buffer: the oracle that the row-blocked
    ``T.masked_cross_entropy`` must reproduce bit for bit."""
    rows = np.arange(len(targets))
    z = logits - logits.max(axis=1, keepdims=True)
    z_tgt = z[rows, targets]
    e = np.exp(z)
    total = e.sum(axis=1)
    loss = -(z_tgt - np.log(total)).mean()
    scale = g / len(targets)
    grad = e * (scale / total)[:, None]
    grad[rows, targets] -= scale
    return loss, grad


def mlm_head(tokens, cfg, params, rows=None, *, train=False, rng=None):
    """The prediction head's output as a plain composition: embedding,
    every block on every position, a gather of the flat positions
    `rows` (all of them when None), then the head transform. The
    oracle for `forward_mlm`, which runs the last block on its labeled
    rows only."""
    emb = params.embeddings
    h = T.embedding(emb.token_table, tokens)
    if cfg.use_position_embeddings:
        h = T.add(h, T.getitem(emb.position_table,
                               slice(0, tokens.shape[-1])))
    p_drop = cfg.dropout if train else 0.0
    for blk in params.blocks:
        if cfg.arch == "gated":
            h = gated_block(h, blk, dropout_p=p_drop, rng=rng, train=train,
                            n_heads=cfg.n_heads)
        else:
            h = stacked_block(h, blk, cfg.routing, n_heads=cfg.n_heads,
                              dropout_p=p_drop, rng=rng, train=train)
    h = T.reshape(h, (-1, cfg.d_model))
    if rows is not None:
        h = T.embedding(h, rows)
    return T.layer_norm(T.gelu(T.matmul(h, emb.head_transform)),
                        emb.head_ln_gain, emb.head_ln_bias)
