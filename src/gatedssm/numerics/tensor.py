"""Reverse-mode automatic differentiation on float64 tensors.

A ``Tensor`` wraps a numpy float64 array. Operations on tensors record
``TapeNode`` entries (operation id, input references, a backward rule
closing over saved intermediates); ``backward`` walks the recorded
graph once in reverse topological order and accumulates gradients into
the ``grad`` buffers of leaf tensors created with ``requires_grad``.

Rules of the house:
  - operations never write to their inputs' data; only ``grad``
    accumulates. The optimizer owns the storage of the parameters it
    trains: it re-points their ``data`` and ``grad`` at views of its
    flat buffers and updates them in place,
  - every backward rule is written out explicitly (no numerical
    differentiation, no higher-order support),
  - recording can be suspended with ``no_grad()`` for evaluation paths,
  - a graph is used up by the ``backward`` that walks it: each result
    swaps its node for the shared ``_RELEASED`` marker as it is
    visited, so a rule's saved arrays and inputs are freed once it has
    run, and a training step holds one tape at a time. Results keep
    their ``data``; a later backward whose graph reaches a released
    result raises,
  - graphs are per-result and thread-local, so independent models can
    run on independent threads.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf as _erf

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

_tls = threading.local()


def _grad_enabled() -> bool:
    return getattr(_tls, "grad_enabled", True)


@contextmanager
def no_grad():
    """Suspend tape recording inside the context."""
    prev = _grad_enabled()
    _tls.grad_enabled = False
    try:
        yield
    finally:
        _tls.grad_enabled = prev


class TapeNode:
    """One recorded operation: id, inputs, and its backward rule."""

    __slots__ = ("op", "inputs", "backward_rule")

    def __init__(self, op: str, inputs: tuple, backward_rule: Callable):
        self.op = op
        self.inputs = inputs
        self.backward_rule = backward_rule


_SPENT = ("backward already ran through this graph, which it used up; "
          "run the forward again")


def _spent_rule(g):
    raise RuntimeError(_SPENT)


# The node of every result backward has run through.
_RELEASED = TapeNode("released", (), _spent_rule)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.node: TapeNode | None = None

    @classmethod
    def _result(cls, data: np.ndarray, node: TapeNode) -> "Tensor":
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = True
        t.node = node
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x) -> Tensor:
    """Wrap numbers/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _record(op: str, data: np.ndarray, inputs: Sequence[Tensor],
            backward_rule: Callable) -> Tensor:
    if _grad_enabled() and any(t.requires_grad for t in inputs):
        return Tensor._result(data, TapeNode(op, tuple(inputs), backward_rule))
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Populate grads of all reachable leaf tensors with d(loss)/d(leaf).

    The loss must be scalar (size 1). Each recorded node is visited
    exactly once; leaves that do not appear on the tape keep whatever
    is already in their grad buffer (zeros after ``zero_grad``).

    The walk uses the graph up: each result drops its node for
    ``_RELEASED`` as it is visited, so a rule's saved arrays are freed
    once it has run and nothing of the graph outlives the call. The
    results keep their ``data``. A graph that reaches a released
    result, such as the same loss a second time or a new op on an
    intermediate of a walked graph, raises a RuntimeError before any
    rule runs or any grad changes.
    """
    if loss.data.size != 1:
        raise ValueError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    if loss.node is None:
        if loss.requires_grad:
            loss.grad += np.ones_like(loss.data)
        return

    # Iterative post-order DFS over tensors that carry tape nodes.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, processed = stack.pop()
        if processed:
            topo.append(t)
            continue
        if t.node is None or id(t) in visited:
            continue
        if t.node is _RELEASED:
            raise RuntimeError(_SPENT)
        visited.add(id(t))
        stack.append((t, True))
        for inp in t.node.inputs:
            if inp.node is not None and id(inp) not in visited:
                stack.append((inp, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while topo:
        t = topo.pop()
        node, t.node = t.node, _RELEASED
        g = flowing.pop(id(t), None)
        if g is None:
            continue
        grads = node.backward_rule(g)
        for inp, gi in zip(node.inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            if inp.node is None:
                if inp.grad is None:
                    inp.grad = np.zeros_like(inp.data)
                inp.grad += gi
            else:
                acc = flowing.get(id(inp))
                flowing[id(inp)] = gi if acc is None else acc + gi


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def rule(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record("add", data, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def rule(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record("sub", data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def rule(g):
        return (_unbroadcast(g * b.data, a.data.shape)
                if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape)
                if b.requires_grad else None)

    return _record("mul", data, (a, b), rule)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def rule(g):
        return (_unbroadcast(g / b.data, a.data.shape)
                if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                if b.requires_grad else None)

    return _record("div", data, (a, b), rule)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _record("neg", -a.data, (a,), lambda g: (-g,))


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant (non-differentiated) exponent."""
    a = as_tensor(a)
    p = float(p)
    data = a.data ** p

    def rule(g):
        return (g * p * a.data ** (p - 1.0),)

    return _record("power", data, (a,), rule)


def texp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    return _record("exp", data, (a,), lambda g: (g * data,))


def tlog(a) -> Tensor:
    a = as_tensor(a)
    return _record("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def tsqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)
    return _record("sqrt", data, (a,), lambda g: (g * 0.5 / data,))


def tsin(a) -> Tensor:
    a = as_tensor(a)
    return _record("sin", np.sin(a.data), (a,), lambda g: (g * np.cos(a.data),))


def tcos(a) -> Tensor:
    a = as_tensor(a)
    return _record("cos", np.cos(a.data), (a,),
                   lambda g: (-g * np.sin(a.data),))


def atan2(y, x) -> Tensor:
    y, x = as_tensor(y), as_tensor(x)
    data = np.arctan2(y.data, x.data)

    def rule(g):
        denom = x.data * x.data + y.data * y.data
        return (_unbroadcast(g * x.data / denom, y.data.shape),
                _unbroadcast(-g * y.data / denom, x.data.shape))

    return _record("atan2", data, (y, x), rule)


GELU_BLOCK = 1 << 14
"""Elements per block of ``gelu``'s forward. A block's input, output,
Phi and four scratch arrays (896 KiB) stay in a core's 2 MiB of L2
through the forward's 27 passes. On (2, 2048, 192) inputs, the powers of two from 2^13 to 2^16 timed within
one another's spread on a 2-vCPU Xeon with 2 MiB of L2 per core; 2^12
paid more in call overhead and 2^17 left L2."""

GELU_SCIPY_BELOW = 3 << 12
"""Inputs of fewer elements take Phi from one whole-array call of
scipy's erf, not the blocked rational: its fixed cost of about 27
numpy calls per block outweighs its speed on small arrays. On the
2-vCPU Xeon, with std-0.7, 1 and 2 normal inputs and the tape kept,
one scipy call took 0.43x the blocked path's time at 2560 elements
(toy's head on its labeled rows), 0.75x at 6144, 0.8x at 8192 and
0.87-0.97x at 12288; from 14336 to 16384 the two were within 5% of
each other, and at 2^14 and above, toy's and extend's whole-sequence
shapes, the blocked path was up to 15% faster. Both give scipy's
bits."""

# cephes' erf on |y| <= 1 is y * T(y^2) / U(y^2), with T evaluated by
# polevl and U by p1evl (leading coefficient 1). scipy.special.erf runs
# exactly these operations, so the rational gives its bits.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)


def _erf_into(y: np.ndarray, out: np.ndarray, z: np.ndarray,
              t: np.ndarray, u: np.ndarray) -> None:
    """``out = scipy.special.erf(y)`` bit for bit, using scratch z, t, u.

    Every entry takes cephes' rational branch in whole-array passes, in
    cephes' operation order. Entries past its branch point (y*y > 1),
    and nan, are then overwritten by scipy's erf itself.
    """
    np.multiply(y, y, out=z)
    np.multiply(z, _ERF_T[0], out=t)
    t += _ERF_T[1]
    for c in _ERF_T[2:]:
        t *= z
        t += c
    np.add(z, _ERF_U[0], out=u)
    for c in _ERF_U[1:]:
        u *= z
        u += c
    np.multiply(y, t, out=out)
    out /= u
    tail = np.flatnonzero(~(z <= 1.0))
    if tail.size:
        out[tail] = _erf(y[tail])


def gelu(a) -> Tensor:
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF.

    The erf form is the model that the stored reference losses pin. The
    tanh approximation differs from it by up to 4.7e-4, so switching
    would change the model, not just its speed; both forms have exact
    closed-form derivatives, so finite-difference checks hold for either.

    Phi = 0.5 * (1 + erf(x / sqrt 2)) is formed in blocks of
    ``GELU_BLOCK`` elements. An input of fewer than
    ``GELU_SCIPY_BELOW`` elements is one block, and its erf is one call
    of scipy's. Otherwise, for |x| <= sqrt 2, scipy's erf is cephes'
    rational y * T(y^2) / U(y^2) with y = x / sqrt 2. ``_erf_into``
    runs it as whole-array numpy passes in cephes' operation order, so
    it gives scipy's bits at numpy speed; only the entries beyond, and
    inf and nan, go to scipy's erf, whose other branch is not
    transcribed. When a node is recorded, Phi is kept whole for the
    backward, g * (Phi + x * exp(-x * x / 2) / sqrt(2 pi)); otherwise it
    lives in one block-sized scratch, so nothing of the input's size is
    kept. Every operation is elementwise and in the order of the plain
    formulas, so the bits do not depend on the block size.
    """
    a = as_tensor(a)
    x = a.data.reshape(-1)
    n = x.size
    data = np.empty(a.data.shape)
    out = data.reshape(-1)
    keep = _grad_enabled() and a.requires_grad
    cdf = np.empty(a.data.shape if keep else min(n, GELU_BLOCK))
    phi = cdf.reshape(-1)
    whole = n < GELU_SCIPY_BELOW
    y, z, t, u = np.empty((4, min(n, GELU_BLOCK)))
    # The rational overflows or divides inf by inf only on entries that
    # scipy's erf then overwrites, so those warnings say nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n, GELU_BLOCK):
            j = min(i + GELU_BLOCK, n)
            xb, yb = x[i:j], y[:j - i]
            cb = phi[i:j] if keep else phi[:j - i]
            np.divide(xb, _SQRT2, out=yb)
            if whole:
                _erf(yb, out=cb)
            else:
                _erf_into(yb, cb, z[:j - i], t[:j - i], u[:j - i])
            cb += 1.0
            cb *= 0.5
            np.multiply(xb, cb, out=out[i:j])

    def rule(g):
        # g * (cdf + x * pdf), pdf = exp(-x * x / 2) / sqrt(2 pi), built
        # in one buffer. Walked in blocks, it timed slower on toy shapes.
        grad = a.data * -0.5
        grad *= a.data
        np.exp(grad, out=grad)
        grad *= _INV_SQRT_2PI
        grad *= a.data
        grad += cdf
        grad *= g
        return (grad,)

    return _record("gelu", data, (a,), rule)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return ((g - inner) * s,)

    return _record("softmax", s, (a,), rule)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    d = x.data.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def rule(g):
        gg = g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gg - m1 - xhat * m2)
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return _record("layer_norm", data, (x, gain, bias), rule)


# ---------------------------------------------------------------------------
# shape and indexing


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)
    return _record("reshape", data, (a,),
                   lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def rule(g):
        return (np.transpose(g, inv),)

    return _record("transpose", data, (a,), rule)


def flip(a, axis: int) -> Tensor:
    """Reverse a tensor along one axis (the sequence-reversal primitive)."""
    a = as_tensor(a)
    data = np.flip(a.data, axis=axis)
    return _record("flip", data, (a,), lambda g: (np.flip(g, axis=axis),))


def getitem(a, key) -> Tensor:
    """Differentiable ``a[key]`` for any numpy key.

    The backward rule accumulates with ``np.add.at``, so an entry picked
    more than once by an integer-array key gets every contribution.
    Row lookups by id are faster through embedding().
    """
    a = as_tensor(a)
    data = a.data[key]

    def rule(g):
        gx = np.zeros_like(a.data)
        np.add.at(gx, key, g)
        return (gx,)

    return _record("getitem", data, (a,), rule)


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = table[ids[...], :], differentiable in table."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("embedding ids must be integers")
    n_rows = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise ValueError(
            f"embedding id out of range [0, {n_rows}): "
            f"min {int(ids.min())}, max {int(ids.max())}"
        )
    data = table.data[ids]

    def rule(g):
        # One weighted count over flat (row, column) slots adds the rows
        # of g in id order, as np.add.at would, in one pass. (With no
        # ids, bincount returns integer zeros.)
        d = table.data.shape[1]
        slots = ids.reshape(-1, 1).astype(np.intp) * d + np.arange(d)
        gt = np.bincount(slots.reshape(-1), weights=g.reshape(-1),
                         minlength=table.data.size)
        return (gt.astype(np.float64, copy=False).reshape(table.data.shape),)

    return _record("embedding", data, (table,), rule)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _record("sum", data, (a,), rule)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / max(data.size, 1)

    def rule(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return _record("mean", data, (a,), rule)


# ---------------------------------------------------------------------------
# contractions


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batching semantics (both operands >= 2-D)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul needs >= 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}"
        )
    data = np.matmul(a.data, b.data)

    def rule(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.data.shape),
                _unbroadcast(gb, b.data.shape))

    return _record("matmul", data, (a, b), rule)


# ---------------------------------------------------------------------------
# attention


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., L, d) as the (..., heads, L, d / heads) view whose head h
    holds features h * d / heads onward."""
    *lead, length, d = x.shape
    return x.reshape((*lead, length, n_heads, d // n_heads)).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of ``_heads``: (..., heads, L, d_head) to (..., L, d)."""
    *lead, n_heads, length, d_head = x.shape
    return x.swapaxes(-3, -2).reshape((*lead, length, n_heads * d_head))


def attention_probs(q: np.ndarray, k: np.ndarray, n_heads: int) -> np.ndarray:
    """Attention weights of queries q and keys k, both (..., L, d):
    softmax_j(q_i . k_j / sqrt(d_head)) per head, shape (..., heads, L,
    L). Heads split the feature axis into n_heads equal slices.

    The scores are scaled after the product, then shifted by their row
    maximum, exponentiated and normalized in place, so the weights are
    the only (L, L) array per head that is allocated.
    """
    if n_heads < 1:
        raise ValueError(f"attention needs n_heads >= 1, got {n_heads}")
    if q.shape != k.shape or q.ndim < 2 or 0 in q.shape[-2:]:
        raise ValueError("attention needs queries and keys of one shape "
                         f"(..., L, d) with L, d >= 1, got {q.shape} and "
                         f"{k.shape}")
    d = q.shape[-1]
    if d % n_heads:
        raise ValueError(f"feature width {d} is not divisible by n_heads "
                         f"{n_heads}")
    probs = np.matmul(_heads(q, n_heads), _heads(k, n_heads).swapaxes(-1, -2))
    probs *= 1.0 / math.sqrt(d // n_heads)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def attention(q, k, v, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of q, k, v (..., L, d)
    as one tape op: the heads' contexts P V with P = ``attention_probs``
    (q, k), merged back to (..., L, d).

    Only P stays on the tape besides the inputs. With G the output
    gradient per head, backward forms dV = P^T G, dP = G V^T, the
    softmax and scale adjoint dS = (dP - rowsum(dP * P)) * P * scale,
    dQ = dS K and dK = (Q^T dS)^T. These are the operations, in the
    same order, of the chain of reshape, transpose, matmul, mul and
    softmax ops that the tests keep as the oracle, so values and
    gradients equal the chain's bit for bit.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if v.shape != q.shape:
        raise ValueError(f"attention needs values shaped like the queries "
                         f"{q.shape}, got {v.shape}")
    probs = attention_probs(q.data, k.data, n_heads)
    data = _merge_heads(np.matmul(probs, _heads(v.data, n_heads)))

    def rule(g):
        g = _heads(g, n_heads)
        gv = np.matmul(probs.swapaxes(-1, -2), g)
        gs = np.matmul(g, _heads(v.data, n_heads).swapaxes(-1, -2))
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= 1.0 / math.sqrt(q.shape[-1] // n_heads)
        gq = np.matmul(gs, _heads(k.data, n_heads))
        gk = np.matmul(_heads(q.data, n_heads).swapaxes(-1, -2), gs)
        return (_merge_heads(gq), _merge_heads(gk.swapaxes(-1, -2)),
                _merge_heads(gv))

    return _record("attention", data, (q, k, v), rule)


# ---------------------------------------------------------------------------
# sequence convolution

# Chunk length of ``ssm_conv``.
CONV_BLOCK = 256


def _windows(x: np.ndarray, count: int, width: int, step: int) -> np.ndarray:
    """Read-only view of count windows of width entries of the 1-D x,
    window i starting at entry i * step; they must lie inside x.

    The view is built directly rather than by ``sliding_window_view``,
    whose checks cost more than a small convolution's GEMMs.
    """
    if (count - 1) * step + width > x.shape[0]:
        raise ValueError(f"{count} windows of {width} at step {step} do not "
                         f"fit in {x.shape[0]} entries")
    s = x.strides[0]
    return as_strided(x, (count, width), (step * s, s), writeable=False)


def _toeplitz(taps: np.ndarray) -> np.ndarray:
    """The (b, b) upper-triangular Toeplitz matrix of the b taps.

    M[p, q] = taps[q - p] for q >= p and 0 below the diagonal, so a row
    vector u gives (u @ M)[q] = sum_l taps[l] u[q - l]. Row p of M is
    the length-b window of [0] * (b - 1) + taps that starts b - 1 - p
    entries in.
    """
    b = taps.shape[0]
    padded = np.concatenate((np.zeros(b - 1), taps))
    return np.ascontiguousarray(_windows(padded, b, b, 1)[::-1])


def _lag_sums(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Tap gradient of u @ M for u and output gradient g, both (rows,
    b): entry l sums superdiagonal l of P = u.T @ g.

    P fills the first b columns of rows of 2b - 1 entries, zeros after.
    The window of b entries starting at flat offset 2b * p begins at
    P[p, p] and holds the superdiagonals of row p in order (the entries
    past column b - 1 fall in the zeros), so summing the b windows sums
    every superdiagonal.
    """
    b = u.shape[1]
    prod = np.zeros((b, 2 * b - 1))
    np.matmul(u.T, g, out=prod[:, :b])
    return _windows(prod.ravel(), b, b, 2 * b).sum(axis=0)


def _to_blocks(x: np.ndarray, nb: int, b: int) -> np.ndarray:
    """x (..., L) as a contiguous block-major (nb * rows, b) array.

    Row k*rows + r holds entries k*b .. k*b + b - 1 of row r, with the
    tail past L zero-filled.
    """
    lead, L = x.shape[:-1], x.shape[-1]
    if nb * b > L:
        x = np.concatenate((x, np.zeros(lead + (nb * b - L,))), axis=-1)
    n = len(lead)
    blocks = x.reshape(lead + (nb, b)).transpose((n, *range(n), n + 1))
    return np.ascontiguousarray(blocks).reshape(-1, b)


def _from_blocks(y: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of ``_to_blocks``: (nb * rows, b) back to ``shape``."""
    lead, L = shape[:-1], shape[-1]
    n, b = len(lead), y.shape[-1]
    rows = y.reshape((-1,) + lead + (b,))
    rows = rows.transpose((*range(1, n + 1), 0, n + 1))
    return rows.reshape(lead + (-1,))[..., :L]


def causal_conv(taps, u) -> Tensor:
    """Differentiable causal convolution of u (..., L) with taps (L,).

    out[..., k] = sum_{l=0..k} taps[l] * u[..., k-l]. Every row of u
    shares the taps, so the convolution is one product with the (L, L)
    upper-triangular Toeplitz matrix M of the taps: out = U @ M, the
    input gradient is G @ M.T and the tap gradient the superdiagonal
    sums of U.T @ G. M holds L^2 floats and is rebuilt in backward
    instead of being kept on the tape. This is the whole-kernel oracle;
    ``ssm_conv`` is the op that trains.
    """
    taps, u = as_tensor(taps), as_tensor(u)
    if taps.ndim != 1:
        raise ValueError(f"taps must be 1-D, got shape {taps.data.shape}")
    L = taps.data.shape[0]
    if u.data.shape[-1] != L:
        raise ValueError(
            f"kernel length {L} does not match sequence length "
            f"{u.data.shape[-1]}"
        )
    shape = u.data.shape
    data = (u.data.reshape(-1, L) @ _toeplitz(taps.data)).reshape(shape)

    def rule(g):
        g = g.reshape(-1, L)
        # M goes before the tap gradient allocates its buffer, so the
        # two never coexist.
        gu = (g @ _toeplitz(taps.data).T).reshape(shape)
        return _lag_sums(u.data.reshape(-1, L), g), gu

    return _record("causal_conv", data, (taps, u), rule)


def _as_real(c: np.ndarray) -> np.ndarray:
    """Complex (..., n) as real (..., 2n): re and im interleaved.

    A product with the real view of an (m, n) complex matrix is one real
    GEMM whose output is again the interleaved view of a complex array,
    which ``.view(np.complex128)`` reads back.
    """
    return np.ascontiguousarray(c).view(np.float64)


def ssm_conv(log_neg_re, im, c_re, c_im, log_dt, d, u) -> Tensor:
    """Causal convolution of u (..., L) with one diagonal SSM, skip
    included, as one tape op over the SSM's parameters.

    With dt = exp(log_dt), Lambda = -exp(log_neg_re) + i im, c = c_re +
    i c_im and the zero-order hold of B = 1, the states have z = dt
    Lambda, a = exp(z) and readout weights w = c (a - 1) / Lambda. The
    output is y = (K + d delta) * u with the Vandermonde kernel K[l] =
    2 Re sum_n w_n exp(l z_n) of S4D (Gu et al. 2022, arXiv 2206.11893),
    its powers taken straight from z.

    Within each chunk of b = min(L, CONV_BLOCK) entries the output is
    the dense (b, b) Toeplitz product of ``causal_conv`` with the taps
    K[0 .. b-1] + d delta. Across chunks every lag factors as
    K[(k-j)b + q - p] = 2 Re sum_n w_n a^(q+1) a^((k-j-1)b) a^(b-1-p),
    so chunk k receives the states S_k = sum_(j<k) a^((k-1-j)b) h_j
    carried over the earlier chunks' states h_j = U_j V, V[p] =
    a^(b-1-p): S_k = a^b S_(k-1) + h_(k-1), then Y_k += Re(S_k W) with
    W[n, q] = 2 w_n a_n^(q+1). Only non-negative powers of a appear.
    This is the chunked form of the state-space duality (Dao & Gu 2024,
    arXiv 2405.21060).

    Backward runs the input gradient through the same structure
    anti-causally and reaches z and w through d a^m / dz = m a^m, so no
    tap gradient is formed beyond lag b; the chain rule from (z, w) to
    the six fields runs on n complex scalars.
    """
    fields = tuple(as_tensor(t) for t in
                   (log_neg_re, im, c_re, c_im, log_dt, d))
    log_neg_re, im, c_re, c_im, log_dt, d = fields
    u = as_tensor(u)
    n = log_neg_re.shape[0] if log_neg_re.ndim == 1 else 0
    if n < 1 or any(t.shape != (n,) for t in (im, c_re, c_im)):
        raise ValueError("ssm_conv needs log_neg_re, im, c_re and c_im of "
                         "one shape (n,) with n >= 1, got "
                         f"{[t.shape for t in fields[:4]]}")
    if log_dt.size != 1 or d.size != 1:
        raise ValueError("ssm_conv needs scalar log_dt and d, got shapes "
                         f"{log_dt.shape} and {d.shape}")
    shape = u.data.shape
    L = shape[-1] if shape else 0
    if L < 1:
        raise ValueError(f"ssm_conv needs a sequence of length >= 1, got "
                         f"shape {shape}")
    b = min(L, CONV_BLOCK)
    nb = -(-L // b)
    dt = float(np.exp(log_dt.data))
    neg_re = np.exp(log_neg_re.data)
    lam = -neg_re + 1j * im.data
    c = c_re.data + 1j * c_im.data
    z = dt * lam
    steps = np.arange(b + 1, dtype=np.float64)[:, None]
    powers = np.exp(steps * z)                      # a^0 .. a^b
    q = (powers[1] - 1.0) / lam
    w = c * q
    taps = 2.0 * (powers[:b] @ w).real
    taps[0] += float(d.data)
    ub = _to_blocks(u.data, nb, b)
    rows = ub.shape[0] // nb
    out = np.matmul(ub, _toeplitz(taps))
    if nb > 1:
        decay = powers[b]
        w2 = 2.0 * w
        v = powers[b - 1::-1]                       # V[p] = a^(b-1-p)
        # states[k] is S_(k+1): the carry into chunk k + 1.
        states = (ub[:-rows] @ _as_real(v)).view(np.complex128)
        states = states.reshape(nb - 1, rows, n)
        for k in range(1, nb - 1):
            states[k] += decay * states[k - 1]
        out[rows:] += (_as_real(states).reshape(-1, 2 * n)
                       @ _as_real(np.conj(w2 * powers[1:])).T)
    data = _from_blocks(out, shape)

    def rule(g):
        gb = _to_blocks(g, nb, b)
        gu = np.matmul(gb, _toeplitz(taps).T)
        ub = _to_blocks(u.data, nb, b)
        gtaps = _lag_sums(ub, gb)
        # The taps' share: F = gtaps V and F' = (m gtaps) V, V[m] = a^m.
        f, f_ramp = np.stack((gtaps, steps[:b, 0] * gtaps)) @ powers[:b]
        if nb > 1:
            # E_k = G_k A1 and E'_k = G_k (m A1) with A1[q] = a^(q+1),
            # m = q+1: the readout side of every cross-chunk lag, plain
            # and weighted.
            ramp = np.concatenate((powers[1:], steps[1:] * powers[1:]),
                                  axis=1)
            e_all = (gb[rows:] @ _as_real(ramp)).view(np.complex128)
            e, e_ramp = e_all[:, :n], e_all[:, n:]
            # Input gradient: T_j = sum_(k>j) a^((k-1-j)b) w2 E_k, the
            # carry run backward over chunks, read out through V.
            back = (w2 * e).reshape(nb - 1, rows, n)
            for k in range(nb - 3, -1, -1):
                back[k] += decay * back[k + 1]
            gu[:-rows] += (_as_real(back).reshape(-1, 2 * n)
                           @ _as_real(np.conj(v)).T)
            del back
            # The state side weighted by its age m: S'_k = sum_(j<k)
            # sum_p u_j[p] m a^m with m = (k-1-j)b + b-1-p, carried as
            # S'_k = a^b (S'_(k-1) + b S_(k-1)) + h'_(k-1), h'_j =
            # U_j (m V).
            aged = (ub[:-rows] @ _as_real(steps[b - 1::-1] * v))
            aged = aged.view(np.complex128).reshape(nb - 1, rows, n)
            for k in range(1, nb - 1):
                aged[k] += decay * (aged[k - 1] + b * states[k - 1])
            flat = states.reshape(-1, n)
            f = f + (e * flat).sum(axis=0)
            f_ramp = f_ramp + (e_ramp * flat
                               + e * aged.reshape(-1, n)).sum(axis=0)
        # d loss = Re sum_n (aw_n dw_n + az_n dz_n) with aw = 2F and, at
        # fixed w, az = 2 w F'. Back through w = c q, q = (a - 1) /
        # Lambda and z = dt Lambda; a real field r gets Re(ax dx/dr).
        aw = 2.0 * f
        aq = aw * c
        ac = aw * q
        az = 2.0 * w * f_ramp + aq * powers[1] / lam
        alam = dt * az - aq * q / lam
        gdt = dt * float(np.sum(az * lam).real)
        grads = (-neg_re * alam.real, -alam.imag, ac.real, -ac.imag, gdt,
                 gtaps[0])
        return tuple(np.reshape(gr, t.shape) for gr, t in
                     zip(grads, fields)) + (_from_blocks(gu, shape),)

    return _record("ssm_conv", data, fields + (u,), rule)


# ---------------------------------------------------------------------------
# loss


CE_BLOCK = 1 << 17
"""Elements per sub-block of ``masked_cross_entropy``'s shift, pick,
exponential and row-sum passes. A sub-block (1 MiB) stays in a core's
2 MiB of L2 through all four. On (154, 30522) and (4096, 96) logits,
the powers of two from 2^13 to 2^21 timed within one another's spread
on a 2-vCPU Xeon with 2 MiB of L2 per core. Rows wider than a block go
one at a time."""

HEAD_BLOCK = 1 << 21
"""Elements per row block of ``masked_cross_entropy``'s tied-head GEMM:
68 rows (16 MiB) at BERT's 30522 classes. Each block's GEMM reads the
whole table, so small blocks stream it many times. On (154, 64) heads
against a (30522, 64) table (2-vCPU Xeon, OpenBLAS 0.3.31 on 2
threads, median of 7 calls) the op took 52.6 ms under ``no_grad`` at
2^17 elements (4 rows, 39 table reads), 20.2 at 2^19, 17.7 at 2^20,
15.3 at 2^21, 15.8 at 2^22 and 17.6 at 2^23."""


def labeled_rows(labels: np.ndarray) -> np.ndarray:
    """Flat indices of the labeled entries of an integer label array.

    A label is a class id >= 0, or -1 for an entry that does not count.
    Any other negative value and non-integer labels raise, so every
    caller that counts labeled positions counts the same ones.
    """
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and labels.min() < -1:
        raise ValueError(
            f"labels must be class ids or -1 (unlabeled), got "
            f"{int(labels.min())}"
        )
    return np.flatnonzero(labels >= 0)


def masked_cross_entropy(head, targets: np.ndarray, table) -> Tensor:
    """Mean cross-entropy of the tied-head logits ``head @ table.T``.

    head: (n, d) rows, one per scored position; targets: (n,) class
    ids, each in [0, n_classes); table: (n_classes, d), the token
    table. Every row counts. The loss and the head and table gradients
    are those of ``matmul(head, transpose(table))`` followed by the
    softmax cross-entropy of each row against its target, averaged.

    The rows go in blocks of ``HEAD_BLOCK`` elements. Each block's
    logits come from one GEMM; then ``CE_BLOCK``-sized sub-blocks are
    shifted by their row maxima, their targets are picked, and they are
    exponentiated and summed while they are in cache. When a tape node
    is recorded, the blocks are slices of one (n, n_classes) buffer of
    shifted exponentials, which the backward rule scales into the
    logits' gradient G in place before returning d_head = G table and
    d_table = (head^T G)^T; the rule can therefore run once, which
    ``backward`` ensures by using the graph up. When no node is
    recorded (``no_grad``, or inputs that need no gradient), every
    block reuses one block-sized scratch, so nothing of the logits'
    size is allocated. Both run the same GEMMs and row-local passes in
    the same order, so the recorded and unrecorded losses are the same
    bits.
    """
    head, table = as_tensor(head), as_tensor(table)
    targets = np.asarray(targets)
    if (head.ndim != 2 or table.ndim != 2
            or head.data.shape[1] != table.data.shape[1]):
        raise ValueError(
            f"head {head.data.shape} and table {table.data.shape} differ "
            f"in width"
        )
    n, n_classes = head.data.shape[0], table.data.shape[0]
    if targets.shape != (n,):
        raise ValueError(
            f"targets shape {targets.shape} does not match head rows {n}"
        )
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(
            f"targets must be integers, got dtype {targets.dtype}"
        )
    if n == 0:
        raise ValueError("masked_cross_entropy: no rows to score")
    lo, hi = targets.min(), targets.max()
    if lo < 0 or hi >= n_classes:
        raise ValueError(f"targets must be class ids in [0, {n_classes}), "
                         f"got {int(lo if lo < 0 else hi)}")
    keep = _grad_enabled() and (head.requires_grad or table.requires_grad)
    step = max(1, HEAD_BLOCK // n_classes)
    sub = max(1, CE_BLOCK // n_classes)
    e = np.empty((n if keep else min(n, step), n_classes))
    z_tgt = np.empty(n)
    total = np.empty(n)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        block = e[r0:r1] if keep else e[:r1 - r0]
        np.matmul(head.data[r0:r1], table.data.T, out=block)
        for s0 in range(r0, r1, sub):
            s1 = min(s0 + sub, r1)
            z = block[s0 - r0:s1 - r0]
            np.subtract(z, z.max(axis=1, keepdims=True), out=z)
            z_tgt[s0:s1] = z[np.arange(s1 - s0), targets[s0:s1]]
            np.exp(z, out=z)
            np.sum(z, axis=1, out=total[s0:s1])
    data = np.array(-(z_tgt - np.log(total)).mean())

    def rule(g):
        scale = float(g) / n
        np.multiply(e, (scale / total)[:, None], out=e)
        e[np.arange(n), targets] -= scale
        # matmul's two products; transpose's rule turns the second back.
        return np.matmul(e, table.data), np.matmul(head.data.T, e).T

    return _record("masked_cross_entropy", data, (head, table), rule)
