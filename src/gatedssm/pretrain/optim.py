"""AdamW with decoupled weight decay, plus learning-rate schedules."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..numerics import Tensor

BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-6
WEIGHT_DECAY = 0.01

BLOCK = 1 << 15
"""Elements per block of the update walk. A block of each of the four
buffers plus the two scratch blocks is 6 x 256 KiB, small enough to
stay in cache between the passes over it. Of the powers of two from
2^12 to 2^18, 2^15 gave the fastest step on the bert-attn-l128-v30k
parameter set (2.06M elements) on a 2-vCPU Xeon with 2 MiB of L2 per
core."""


class AdamW:
    """Bias-corrected Adam with decoupled weight decay (Loshchilov &
    Hutter), without gradient clipping.

    Weight decay of WEIGHT_DECAY, the rate BERT used, applies only to
    matrices (ndim >= 2); LayerNorm gains and shifts and the SSM
    parameters are exempt, following the usual no-decay-on-norms
    convention. The moment decay rates and eps are the constants BETA1,
    BETA2, EPS. The optimizer takes no options.

    The optimizer owns the storage of the tensors it trains. It keeps
    four flat float64 buffers, for the parameters, the gradients and the
    two moments, with the decayed parameters laid out first so that
    weight decay covers one prefix. At construction each tensor's `data`
    and `grad` are copied into their slices, one tensor at a time, and
    re-pointed at reshaped views of them; `m[name]` and `v[name]` are
    views too. `step` then walks the buffers in blocks of BLOCK elements
    and updates them in place through two preallocated scratch blocks,
    with the same floating-point operations in the same order as a
    per-tensor update, so the results are the same bits. A tensor whose
    `data` or `grad` has since been replaced, or adopted by another
    AdamW, makes `step` raise rather than update a stale copy.
    """

    def __init__(self, params: Iterable[Tuple[str, Tensor]]):
        self.params: List[Tuple[str, Tensor]] = [
            (name, p) for name, p in params if p.requires_grad
        ]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        if (len({name for name, _ in self.params}) != len(self.params)
                or len({id(p) for _, p in self.params}) != len(self.params)):
            raise ValueError("optimizer parameters need distinct names and "
                             "distinct tensors")
        self.step_count = 0
        # Decayed tensors first; sorted() is stable, so each group keeps
        # the order of self.params.
        offsets: Dict[str, int] = {}
        size = 0
        for name, p in sorted(self.params, key=lambda e: e[1].ndim < 2):
            offsets[name] = size
            size += p.size
        self._decayed_size = sum(p.size for _, p in self.params
                                 if p.ndim >= 2)
        self._x = np.empty(size)
        self._g = np.zeros(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = (np.empty(min(size, BLOCK)),
                         np.empty(min(size, BLOCK)))
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        for name, p in self.params:
            span = slice(offsets[name], offsets[name] + p.size)
            x = self._x[span].reshape(p.shape)
            x[...] = p.data
            g = self._g[span].reshape(p.shape)
            if p.grad is not None:
                g[...] = p.grad
            p.data, p.grad = x, g
            self.m[name] = self._m[span].reshape(p.shape)
            self.v[name] = self._v[span].reshape(p.shape)

    def zero_grad(self) -> None:
        self._g.fill(0.0)

    def step(self, lr: float) -> None:
        for name, p in self.params:
            if (p.data.base is not self._x
                    or getattr(p.grad, "base", None) is not self._g):
                raise RuntimeError(
                    f"parameter {name!r} no longer lives in this "
                    f"optimizer's buffers (its data or grad was replaced, "
                    f"or another AdamW adopted it)")
        if not np.isfinite(self._g).all():
            name = next(name for name, p in self.params
                        if not np.isfinite(p.grad).all())
            raise RuntimeError(f"non-finite gradient in parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        decay = lr * WEIGHT_DECAY
        decayed = self._decayed_size
        size = self._x.size
        for start in range(0, size, BLOCK):
            span = slice(start, min(start + BLOCK, size))
            x, g, m, v = (self._x[span], self._g[span],
                          self._m[span], self._v[span])
            tmp, upd = (s[:x.size] for s in self._scratch)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=tmp)
            m += tmp
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            np.divide(m, bc1, out=upd)
            upd /= tmp
            upd *= lr
            x -= upd
            if start < decayed:
                x = x[:decayed - start]
                tmp = tmp[:x.size]
                np.multiply(x, decay, out=tmp)
                x -= tmp

    def state_entries(self) -> Iterable[Tuple[str, np.ndarray]]:
        """Moment buffers as named arrays, views of the flat buffers:
        a checkpoint saves them and `checkpoint.load_into` fills them."""
        for name, _ in self.params:
            yield f"adam_m.{name}", self.m[name]
        for name, _ in self.params:
            yield f"adam_v.{name}", self.v[name]


def cosine_warmup_lr(step: int, total_steps: int, warmup_frac: float,
                     peak_lr: float) -> float:
    """Linear 0 to peak over the warmup span, cosine back down to 0."""
    if not 0.0 < warmup_frac < 1.0:
        raise ValueError("warmup_frac must lie strictly between 0 and 1")
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    warmup = warmup_frac * total_steps
    if step >= total_steps:
        return 0.0
    if step < warmup:
        return peak_lr * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def constant_lr(step: int, total_steps: int, warmup_frac: float,
                peak_lr: float) -> float:
    """Flat schedule; used for continued pretraining at a fixed rate."""
    return peak_lr


SCHEDULES = {
    "cosine": cosine_warmup_lr,
    "constant": constant_lr,
}
