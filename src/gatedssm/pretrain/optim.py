"""AdamW with decoupled weight decay, plus learning-rate schedules."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..numerics import Tensor

BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-6


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Weight decay applies only to matrices (ndim >= 2); gains, biases and
    the per-kernel state-space scalars are exempt, following the usual
    no-decay-on-norms convention. Gradient clipping is off unless
    `clip_norm` is set positive, and enabling it is an explicit choice.
    The moment decay rates and eps are the constants BETA1, BETA2, EPS.
    """

    def __init__(self, params: Iterable[Tuple[str, Tensor]],
                 weight_decay: float = 0.0, clip_norm: float = 0.0):
        self.params: List[Tuple[str, Tensor]] = [
            (name, p) for name, p in params if p.requires_grad
        ]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m: Dict[str, np.ndarray] = {
            name: np.zeros_like(p.data) for name, p in self.params
        }
        self.v: Dict[str, np.ndarray] = {
            name: np.zeros_like(p.data) for name, p in self.params
        }

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def _decayed(self, tensor: Tensor) -> bool:
        return tensor.data.ndim >= 2

    def step(self, lr: float) -> None:
        for name, p in self.params:
            if p.grad is None or not np.all(np.isfinite(p.grad)):
                raise RuntimeError(
                    f"non-finite gradient in parameter {name!r}"
                )
        if self.clip_norm > 0.0:
            total = math.sqrt(sum(float(np.sum(p.grad ** 2))
                                  for _, p in self.params))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                for _, p in self.params:
                    p.grad *= scale
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params:
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data -= lr * update
            if self.weight_decay and self._decayed(p):
                p.data -= lr * self.weight_decay * p.data

    def state_entries(self) -> Iterable[Tuple[str, np.ndarray]]:
        """Moment buffers as named arrays for checkpointing."""
        for name, _ in self.params:
            yield f"adam_m.{name}", self.m[name]
        for name, _ in self.params:
            yield f"adam_v.{name}", self.v[name]

    def load_state(self, entries: Dict[str, np.ndarray],
                   step_count: int) -> None:
        for name, _ in self.params:
            self.m[name][...] = entries[f"adam_m.{name}"]
            self.v[name][...] = entries[f"adam_v.{name}"]
        self.step_count = step_count


def _warmup(step: int, total_steps: int, warmup_frac: float,
            peak_lr: float) -> Tuple[Optional[float], float]:
    """The part the warm-up schedules share: check the arguments and
    return (lr, warmup span in steps), with lr None once the step has
    left the linear warm-up but not yet reached total_steps."""
    if not 0.0 < warmup_frac < 1.0:
        raise ValueError("warmup_frac must lie strictly between 0 and 1")
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    warmup = warmup_frac * total_steps
    if step >= total_steps:
        return 0.0, warmup
    if step < warmup:
        return peak_lr * step / warmup, warmup
    return None, warmup


def cosine_warmup_lr(step: int, total_steps: int, warmup_frac: float,
                     peak_lr: float) -> float:
    """Linear 0 to peak over the warmup span, cosine back down to 0."""
    lr, warmup = _warmup(step, total_steps, warmup_frac, peak_lr)
    if lr is not None:
        return lr
    progress = (step - warmup) / (total_steps - warmup)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def linear_warmup_lr(step: int, total_steps: int, warmup_frac: float,
                     peak_lr: float) -> float:
    """Linear 0 to peak over the warmup span, linear back down to 0."""
    lr, warmup = _warmup(step, total_steps, warmup_frac, peak_lr)
    if lr is not None:
        return lr
    return peak_lr * (total_steps - step) / (total_steps - warmup)


def constant_lr(step: int, total_steps: int, warmup_frac: float,
                peak_lr: float) -> float:
    """Flat schedule; used for continued pretraining at a fixed rate."""
    return peak_lr


SCHEDULES = {
    "cosine": cosine_warmup_lr,
    "linear": linear_warmup_lr,
    "constant": constant_lr,
}
