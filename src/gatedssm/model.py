"""Sequence model variants for masked-language-model pretraining.

Two block families share the same embedding and prediction head:

* gated blocks: a single entry LayerNorm feeds three gated branches; the
  forward and backward halves of the sequence are routed through shared
  one-dimensional kernels (or attention) and recombined multiplicatively
  before a residual add.
* stacked blocks: the familiar post-norm transformer layer, where the
  mixing sublayer is either multi-head attention or a pair of sequential
  directional state-space maps.

Either family accepts `routing` of "ssm" or "attention", giving four
variants in total. Dropout is driven by an explicit Rng so training runs
are replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import ssm as S
from .numerics import Rng, Tensor
from .numerics import tensor as T

INIT_STD = 0.02

ARCHS = ("gated", "stacked")
ROUTINGS = ("ssm", "attention")


def check_integer_fields(values: dict, minimums: dict) -> None:
    """Each key named in `minimums` must hold a Python or numpy
    integer, not a bool, and be no smaller than its minimum, if any."""
    for name, low in minimums.items():
        value = values[name]
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


def check_real_fields(values: dict, names) -> None:
    """Each key in `names` must hold a Python or numpy integer or
    float, not a bool."""
    for name in names:
        value = values[name]
        if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass
class ModelConfig:
    """Hyperparameters for one model instance.

    `n_layers` may be left None to pick the conventional depth for the
    chosen architecture: 23 layers for gated, 24 for stacked. Two more
    settings follow from the variant and are read-only properties: the
    inner width (`intermediate`) and whether the model has a position
    table (`use_position_embeddings`).
    """

    arch: str = "gated"
    routing: str = "ssm"
    n_layers: Optional[int] = None
    d_model: int = 1024
    n_state: int = 64
    max_len: int = 128
    vocab_size: int = 30522
    n_heads: int = 16
    dropout: float = 0.1

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"arch must be one of {ARCHS}, got {self.arch!r}")
        if self.routing not in ROUTINGS:
            raise ValueError(
                f"routing must be one of {ROUTINGS}, got {self.routing!r}"
            )
        if self.n_layers is None:
            self.n_layers = 23 if self.arch == "gated" else 24
        check_integer_fields(vars(self), {
            "n_layers": 1, "d_model": 1, "max_len": 1, "vocab_size": 1,
            "n_state": None, "n_heads": None})
        check_real_fields(vars(self), ["dropout"])
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.routing == "attention":
            if self.n_heads < 1 or self.d_model % self.n_heads:
                raise ValueError(
                    "d_model must be divisible by n_heads for attention"
                )
        if self.routing == "ssm" and self.n_state % 2:
            raise ValueError("n_state must be even")

    @property
    def intermediate(self) -> int:
        """Inner width: 3x the model width for gated blocks, 4x for
        stacked ones."""
        return (3 if self.arch == "gated" else 4) * self.d_model

    @property
    def use_position_embeddings(self) -> bool:
        """Only attention routing needs a position table; state-space
        kernels already encode position."""
        return self.routing == "attention"


@dataclass
class AttentionParams:
    """Projections for one self-attention sublayer.

    `w_out` is None when the surrounding block supplies its own output
    projection (the gated block's post-routing matrices play that role).
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_out: Optional[Tensor] = None


@dataclass
class GatedBlockParams:
    """One gated block: entry norm, three gated branches, recombination."""

    ln_gain: Tensor
    ln_bias: Tensor
    w_v: Tensor            # d x intermediate, value branch
    w_f: Tensor            # d x d, forward routing branch
    w_b: Tensor            # d x d, backward routing branch
    w_u1: Tensor           # d x d, after forward routing
    w_u2: Tensor           # d x d, after backward routing
    w_u: Tensor            # d x intermediate, recombination
    w_o: Tensor            # intermediate x d, output
    ssm_fwd: Optional[S.SsmParams] = None
    ssm_bwd: Optional[S.SsmParams] = None
    attn_fwd: Optional[AttentionParams] = None
    attn_bwd: Optional[AttentionParams] = None


@dataclass
class StackedBlockParams:
    """One post-norm transformer layer with a pluggable mixing sublayer."""

    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    w_ffn1: Tensor         # d x intermediate
    w_ffn2: Tensor         # intermediate x d
    attn: Optional[AttentionParams] = None
    ssm_fwd: Optional[S.SsmParams] = None
    ssm_bwd: Optional[S.SsmParams] = None
    proj_fwd: Optional[Tensor] = None
    proj_bwd: Optional[Tensor] = None


@dataclass
class EmbeddingParams:
    """Token table, optional position table, and the tied prediction head.

    The output projection of the head reuses `token_table` itself, so the
    tied weights are one storage object, not a copy. The field order is
    the order of checkpoint entries and optimizer state.
    """

    token_table: Tensor
    position_table: Optional[Tensor] = None
    head_transform: Tensor = None
    head_ln_gain: Tensor = None
    head_ln_bias: Tensor = None


@dataclass
class ModelParams:
    config: ModelConfig
    embeddings: EmbeddingParams
    blocks: List[object] = field(default_factory=list)

    def named_parameters(self) -> Iterator[Tuple[str, Tensor]]:
        """All parameter tensors in a stable order, tied weights once."""
        for name, t in _named_block_params(self.embeddings):
            yield "embeddings." + name, t
        for i, blk in enumerate(self.blocks):
            prefix = f"blocks.{i}."
            for name, t in _named_block_params(blk):
                yield prefix + name, t

    def trainable_parameters(self) -> Iterator[Tuple[str, Tensor]]:
        for name, t in self.named_parameters():
            if t.requires_grad:
                yield name, t


def _named_block_params(blk) -> Iterator[Tuple[str, Tensor]]:
    """Tensor fields of a parameter dataclass in declaration order, None
    skipped, then those of its nested dataclass fields, recursively."""
    values = [(f.name, getattr(blk, f.name)) for f in fields(blk)]
    for name, value in values:
        if isinstance(value, Tensor):
            yield name, value
    for name, value in values:
        if is_dataclass(value):
            for sub, t in _named_block_params(value):
                yield f"{name}.{sub}", t


# ---------------------------------------------------------------------------
# initialization


def _weight(rng: Rng, n_in: int, n_out: int) -> Tensor:
    return Tensor(rng.normal((n_in, n_out), std=INIT_STD),
                  requires_grad=True)


def _zeros(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def _ones(n: int) -> Tensor:
    return Tensor(np.ones(n), requires_grad=True)


def _init_attention(cfg: ModelConfig, rng: Rng,
                    with_out: bool) -> AttentionParams:
    d = cfg.d_model
    return AttentionParams(
        w_q=_weight(rng, d, d), w_k=_weight(rng, d, d),
        w_v=_weight(rng, d, d),
        w_out=_weight(rng, d, d) if with_out else None,
    )


def _init_ssm(cfg: ModelConfig, rng: Rng) -> S.SsmParams:
    return S.init_s4d(cfg.n_state, rng)


def _init_gated_block(cfg: ModelConfig, rng: Rng) -> GatedBlockParams:
    d, inner = cfg.d_model, cfg.intermediate
    blk = GatedBlockParams(
        ln_gain=_ones(d), ln_bias=_zeros(d),
        w_v=_weight(rng, d, inner),
        w_f=_weight(rng, d, d), w_b=_weight(rng, d, d),
        w_u1=_weight(rng, d, d), w_u2=_weight(rng, d, d),
        w_u=_weight(rng, d, inner), w_o=_weight(rng, inner, d),
    )
    if cfg.routing == "ssm":
        blk.ssm_fwd = _init_ssm(cfg, rng)
        blk.ssm_bwd = _init_ssm(cfg, rng)
    else:
        blk.attn_fwd = _init_attention(cfg, rng, with_out=False)
        blk.attn_bwd = _init_attention(cfg, rng, with_out=False)
    return blk


def _init_stacked_block(cfg: ModelConfig, rng: Rng) -> StackedBlockParams:
    d, inner = cfg.d_model, cfg.intermediate
    blk = StackedBlockParams(
        ln1_gain=_ones(d), ln1_bias=_zeros(d),
        ln2_gain=_ones(d), ln2_bias=_zeros(d),
        w_ffn1=_weight(rng, d, inner), w_ffn2=_weight(rng, inner, d),
    )
    if cfg.routing == "attention":
        blk.attn = _init_attention(cfg, rng, with_out=True)
    else:
        blk.ssm_fwd = _init_ssm(cfg, rng)
        blk.ssm_bwd = _init_ssm(cfg, rng)
        blk.proj_fwd = _weight(rng, d, d)
        blk.proj_bwd = _weight(rng, d, d)
    return blk


def init_model(cfg: ModelConfig, rng: Rng) -> ModelParams:
    """Fresh parameters for `cfg`, drawn from `rng`."""
    d = cfg.d_model
    emb = EmbeddingParams(
        token_table=Tensor(rng.normal((cfg.vocab_size, d), std=INIT_STD),
                           requires_grad=True),
        position_table=(
            Tensor(rng.normal((cfg.max_len, d), std=INIT_STD),
                   requires_grad=True)
            if cfg.use_position_embeddings else None),
        head_transform=_weight(rng, d, d),
        head_ln_gain=_ones(d), head_ln_bias=_zeros(d),
    )
    init_block = (_init_gated_block if cfg.arch == "gated"
                  else _init_stacked_block)
    blocks = [init_block(cfg, rng) for _ in range(cfg.n_layers)]
    return ModelParams(config=cfg, embeddings=emb, blocks=blocks)


# ---------------------------------------------------------------------------
# forward pieces


def flip(x, axis: int = -2) -> Tensor:
    """Reverse the sequence axis (rows by default)."""
    return T.flip(x, axis)


def dropout(x, p: float, rng: Optional[Rng], train: bool, *,
            rows: Optional[np.ndarray] = None,
            shape: Optional[tuple] = None) -> Tensor:
    """Inverted dropout; identity in eval mode or at p == 0.

    With `rows`, x holds those rows of the flattened (-1, d) positions
    of activations of `shape`. The mask is still drawn at `shape` and
    then gathered, so the Rng stream and each position's mask are those
    of the call on the whole activations.
    """
    if not train or p == 0.0:
        return T.as_tensor(x)
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    x = T.as_tensor(x)
    shape = x.shape if shape is None else shape
    keep = (rng.uniform(shape) >= p) / (1.0 - p)
    if rows is not None:
        keep = keep.reshape(-1, shape[-1])[rows]
    return T.mul(x, Tensor(keep))


def _pick_rows(x, rows: Optional[np.ndarray]) -> Tensor:
    """Rows `rows` of x's flattened (-1, d) positions; x itself when
    `rows` is None."""
    x = T.as_tensor(x)
    if rows is None:
        return x
    return T.embedding(T.reshape(x, (-1, x.shape[-1])), rows)


def multihead_attention(x, p: AttentionParams, n_heads: int) -> Tensor:
    """Scaled dot-product self-attention over the row axis.

    Accepts (L, d) or (batch, L, d); heads split the feature axis. The
    projections are matmuls and the attention core is one
    ``attention`` tape op.
    """
    x = T.as_tensor(x)
    ctx = T.attention(T.matmul(x, p.w_q), T.matmul(x, p.w_k),
                      T.matmul(x, p.w_v), n_heads)
    if p.w_out is not None:
        ctx = T.matmul(ctx, p.w_out)
    return ctx


def _route_gated(branch, ssm_p, attn_p, n_heads: int) -> Tensor:
    if ssm_p is not None:
        return S.ssm_apply(ssm_p, branch)
    return multihead_attention(branch, attn_p, n_heads)


def gated_block(x, p: GatedBlockParams, *, dropout_p: float = 0.0,
                rng: Optional[Rng] = None, train: bool = False,
                n_heads: int = 1,
                rows: Optional[np.ndarray] = None) -> Tensor:
    """One gated block over (L, d) or (batch, L, d) activations.

    With `rows`, integer indices into the flattened (batch * L)
    positions, the result is (len(rows), d): row i is position rows[i]
    of the whole block's output, bit for bit. The entry LayerNorm, the
    w_f and w_b branches and both routings run on every position; the
    per-position rest (w_v, w_u1, w_u2, w_u, both GELUs after routing,
    w_o, dropout and the residual) runs on those rows alone.
    """
    x = T.as_tensor(x)
    d = p.w_f.shape[0]
    if x.shape[-1] != d:
        raise ValueError(
            f"input width {x.shape[-1]} does not match block width {d}"
        )
    h = T.layer_norm(x, p.ln_gain, p.ln_bias)
    value = T.gelu(T.matmul(_pick_rows(h, rows), p.w_v))
    fwd = T.gelu(T.matmul(h, p.w_f))
    bwd = T.gelu(T.matmul(flip(h), p.w_b))
    fwd = _route_gated(fwd, p.ssm_fwd, p.attn_fwd, n_heads)
    bwd = flip(_route_gated(bwd, p.ssm_bwd, p.attn_bwd, n_heads))
    u1 = T.matmul(_pick_rows(fwd, rows), p.w_u1)
    u2 = T.matmul(_pick_rows(bwd, rows), p.w_u2)
    u = T.gelu(T.matmul(T.mul(u1, u2), p.w_u))
    out = T.matmul(T.mul(u, value), p.w_o)
    out = dropout(out, dropout_p, rng, train, rows=rows, shape=x.shape)
    return T.add(out, _pick_rows(x, rows))


def stacked_route(x, p: StackedBlockParams, routing: str,
                  n_heads: int = 1) -> Tensor:
    """The mixing sublayer of a stacked block, without norm or residual.

    Attention routing is one multi-head self-attention; ssm routing runs
    a forward directional map, then a reversed one on its output, each
    followed by a square projection.
    """
    if routing == "attention":
        return multihead_attention(x, p.attn, n_heads)
    if routing == "ssm":
        stage1 = T.matmul(S.ssm_apply(p.ssm_fwd, x), p.proj_fwd)
        return T.matmul(flip(S.ssm_apply(p.ssm_bwd, flip(stage1))),
                        p.proj_bwd)
    raise ValueError(f"unknown routing {routing!r}")


def stacked_block(x, p: StackedBlockParams, routing: str, *,
                  n_heads: int = 1, dropout_p: float = 0.0,
                  rng: Optional[Rng] = None, train: bool = False,
                  rows: Optional[np.ndarray] = None) -> Tensor:
    """One post-norm transformer layer with attention or ssm mixing.

    With `rows`, integer indices into the flattened (batch * L)
    positions, the result is (len(rows), d): row i is position rows[i]
    of the whole block's output, bit for bit. The mixing sublayer runs
    on every position; dropout, the residuals, both LayerNorms and the
    FFN run on those rows alone.
    """
    x = T.as_tensor(x)
    d = p.w_ffn1.shape[0]
    if x.shape[-1] != d:
        raise ValueError(
            f"input width {x.shape[-1]} does not match block width {d}"
        )
    mixed = dropout(_pick_rows(stacked_route(x, p, routing, n_heads), rows),
                    dropout_p, rng, train, rows=rows, shape=x.shape)
    sub1 = T.layer_norm(T.add(_pick_rows(x, rows), mixed),
                        p.ln1_gain, p.ln1_bias)
    ffn = T.matmul(T.gelu(T.matmul(sub1, p.w_ffn1)), p.w_ffn2)
    ffn = dropout(ffn, dropout_p, rng, train, rows=rows, shape=x.shape)
    return T.layer_norm(T.add(sub1, ffn), p.ln2_gain, p.ln2_bias)


def forward_mlm(tokens: np.ndarray, labels: np.ndarray, cfg: ModelConfig,
                params: ModelParams, *, train: bool = False,
                rng: Optional[Rng] = None) -> Tensor:
    """The masked-LM loss of token ids (L,) or (batch, L).

    `labels` are integer ids shaped like `tokens`, -1 where a position
    is not scored; the result is the scalar mean cross-entropy over the
    labeled positions (`T.labeled_rows`). Only those rows reach the
    prediction head and the last block's per-position part after its
    sequence mixing; every earlier block runs on all positions. Masked-
    LM training labels about 15% of positions, so this skips most of
    the vocabulary-wide output projection and, in a gated block, 85% of
    the GEMM multiply-adds and 75% of the GELU elements of the last
    block. `T.masked_cross_entropy` forms the rows' tied-head logits
    itself, so no logits tensor is kept.

    Dropout fires only with train=True, drawing masks from `rng` in a
    fixed order so a given (parameters, rng state) pair is replayable.
    The last block draws its masks at the full shape and gathers them,
    so the draws are those of a forward over every position. README
    gives the measured effect.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim not in (1, 2):
        raise ValueError("tokens must be a 1-D or 2-D integer array")
    labels = np.asarray(labels)
    if labels.shape != tokens.shape:
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"tokens {tokens.shape}")
    labels = labels.reshape(-1)
    rows = T.labeled_rows(labels)
    if rows.size == 0:
        raise ValueError("forward_mlm: no labeled positions")
    length = tokens.shape[-1]
    emb = params.embeddings
    h = T.embedding(emb.token_table, tokens)
    if cfg.use_position_embeddings:
        if length > cfg.max_len:
            raise ValueError(
                f"sequence length {length} exceeds position table "
                f"size {cfg.max_len}"
            )
        h = T.add(h, T.getitem(emb.position_table, slice(0, length)))
    p_drop = cfg.dropout if train else 0.0
    last = len(params.blocks) - 1
    for i, blk in enumerate(params.blocks):
        picked = rows if i == last else None
        if cfg.arch == "gated":
            h = gated_block(h, blk, dropout_p=p_drop, rng=rng, train=train,
                            n_heads=cfg.n_heads, rows=picked)
        else:
            h = stacked_block(h, blk, cfg.routing, n_heads=cfg.n_heads,
                              dropout_p=p_drop, rng=rng, train=train,
                              rows=picked)
    head = T.layer_norm(T.gelu(T.matmul(h, emb.head_transform)),
                        emb.head_ln_gain, emb.head_ln_bias)
    return T.masked_cross_entropy(head, labels[rows], emb.token_table)


# ---------------------------------------------------------------------------
# parameter accounting


def _ssm_param_count(n_state: int) -> int:
    # Four per stored conjugate pair plus the step size and skip scalars.
    return 4 * (n_state // 2) + 2


def param_count(cfg: ModelConfig) -> dict:
    """Analytic parameter counts, itemized; allocates nothing.

    `block_weights` covers every dense weight matrix in one block
    (including attention projections when routing is attention);
    `block_ssm` covers the state-space parameters. Projections carry no
    bias.
    """
    d, inner, n = cfg.d_model, cfg.intermediate, cfg.n_state
    if cfg.arch == "gated":
        weights = 3 * d * inner + 4 * d * d
        norm = 2 * d
        if cfg.routing == "ssm":
            ssm = 2 * _ssm_param_count(n)
        else:
            ssm = 0
            weights += 2 * 3 * d * d
    else:
        weights = 2 * d * inner
        norm = 4 * d
        if cfg.routing == "attention":
            ssm = 0
            weights += 4 * d * d
        else:
            ssm = 2 * _ssm_param_count(n)
            weights += 2 * d * d
    per_block = weights + norm + ssm
    embeddings = cfg.vocab_size * d
    if cfg.use_position_embeddings:
        embeddings += cfg.max_len * d
    head = d * d + 2 * d
    counts = {
        "block_weights": weights,
        "block_layer_norm": norm,
        "block_ssm": ssm,
        "block_total": per_block,
        "blocks_total": cfg.n_layers * per_block,
        "embeddings": embeddings,
        "head": head,
    }
    counts["total"] = counts["blocks_total"] + embeddings + head
    return counts
