"""MLM pretraining: shard preparation, the training loop, evaluation,
and continued pretraining at a longer sequence length.

Determinism contract: given (seed, config, corpus), shard bytes, batch
order, dropout masks, and therefore every loss value are reproducible.
Batch order and dropout are pure functions of (seed, step), so resuming
from a checkpoint at step k replays exactly the run that never stopped.
"""

from __future__ import annotations

import ctypes
import os
import re
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..checkpoint import load_checkpoint, load_into, save_checkpoint
from ..model import (
    ModelConfig,
    ModelParams,
    check_integer_fields,
    check_real_fields,
    forward_mlm,
    init_model,
)
from ..numerics import Rng, backward, derive_seed, no_grad
from ..numerics import tensor as T
from .masking import IGNORE_LABEL, mask_tokens
from .optim import SCHEDULES, WEIGHT_DECAY, AdamW
from .shards import read_shard, write_shard
from .vocab import (MASK, N_SPECIAL, PAD, TokenizedCorpus, Vocab,
                    build_vocab)

LOSS_CSV_NAME = "loss.csv"
FINAL_CHECKPOINT = "checkpoint"


@dataclass
class TrainConfig:
    """One training run; the optimizer recipe is fixed (see AdamW).
    `schedule` is "cosine" for pretraining and "constant" for length
    extension."""

    steps: int
    batch_size: int = 16
    peak_lr: float = 1e-3
    schedule: str = "cosine"
    warmup_frac: float = 0.01
    seed: int = 0
    checkpoint_every: int = 0   # 0 keeps only the final checkpoint

    def __post_init__(self):
        check_integer_fields(vars(self), {"steps": 1, "batch_size": 1,
                                          "seed": None,
                                          "checkpoint_every": 0})
        check_real_fields(vars(self), ["peak_lr", "warmup_frac"])
        if not self.peak_lr > 0.0:
            raise ValueError(f"peak_lr must be positive, got "
                             f"{self.peak_lr!r}")
        if self.schedule not in sorted(SCHEDULES):
            raise ValueError(
                f"schedule must be one of {sorted(SCHEDULES)}"
            )
        if not 0.0 < self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie strictly between 0 and 1")


# ---------------------------------------------------------------------------
# shard preparation


def chunk_corpus(corpus: TokenizedCorpus, vocab: Vocab,
                 seq_len: int) -> np.ndarray:
    """Encode documents and cut each into fixed-length rows, PAD on the
    tail of a document's last chunk. Returns (n_chunks, seq_len) ids."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    ids = np.array(vocab.encode(corpus.types), dtype=np.int64)[corpus.ids]
    lengths = corpus.lengths
    doc_rows = -(-lengths // seq_len)
    if not doc_rows.sum():
        raise ValueError("corpus produced no token chunks")
    rows = np.full((int(doc_rows.sum()), seq_len), PAD, dtype=np.int64)
    # Token t of a document whose first row is r goes to flat index
    # r * seq_len + t.
    first_flat = (np.cumsum(doc_rows) - doc_rows) * seq_len
    first_token = np.cumsum(lengths) - lengths
    rows.reshape(-1)[np.arange(len(ids))
                     + np.repeat(first_flat - first_token, lengths)] = ids
    return rows


def masking_stats(input_ids: np.ndarray, labels: np.ndarray) -> dict:
    """Observed selection fraction and replacement split of a shard.

    The random-replacement count is inferred from the visible ids, so a
    random draw that happens to equal the original token is tallied as
    kept; with a realistic vocabulary that bias is far below the
    binomial noise.
    """
    selected = labels != IGNORE_LABEL
    # Unselected non-special positions keep an id >= N_SPECIAL, so the
    # union below recovers the maskable set from a masked shard alone.
    n_maskable = int(np.sum((input_ids >= N_SPECIAL) | selected))
    n_selected = int(selected.sum())
    masked = int(np.sum(selected & (input_ids == MASK)))
    kept = int(np.sum(selected & (input_ids == labels)))
    randomized = n_selected - masked - kept
    return {
        "maskable_positions": n_maskable,
        "selected": n_selected,
        "selected_fraction": n_selected / max(n_maskable, 1),
        "masked": masked,
        "randomized": randomized,
        "kept": kept,
    }


def prepare_shards(corpus_path: str, out_dir: str, *, vocab_size: int,
                   seq_len: int, mask_rate: float = 0.15, seed: int = 0,
                   holdout_fraction: float = 0.1) -> dict:
    """Corpus file -> vocab file + masked train/heldout shard files.

    Chunks are masked offline. The heldout split takes chunk i whenever
    floor(i * holdout_fraction) steps up, so it holds the asked fraction
    of the chunks to within one, spread evenly over the corpus; the
    rest go to one train shard, `train-0000.bin`. Shard contents are a
    pure function of (corpus bytes, seed, sizes), and `stats` is
    `masking_stats` of both shards together. Bad options, an empty
    corpus or one without tokens raise before `out_dir` is created.
    """
    options = dict(vocab_size=vocab_size, seq_len=seq_len, seed=seed,
                   mask_rate=mask_rate, holdout_fraction=holdout_fraction)
    check_integer_fields(options, {"vocab_size": None, "seq_len": 1,
                                   "seed": None})
    check_real_fields(options, ["mask_rate", "holdout_fraction"])
    if not 0.0 <= holdout_fraction <= 0.5:
        raise ValueError(
            f"holdout_fraction must lie in [0, 0.5], got {holdout_fraction}")
    if not 0.0 < mask_rate < 1.0:
        raise ValueError(
            f"mask_rate must lie strictly between 0 and 1, got {mask_rate}")
    if vocab_size <= N_SPECIAL:
        raise ValueError(f"vocab_size must exceed the {N_SPECIAL} special "
                         f"tokens, got {vocab_size}")
    with open(corpus_path, "r", encoding="utf-8") as f:
        corpus = TokenizedCorpus(f)
    vocab = build_vocab(corpus, vocab_size)
    chunks = chunk_corpus(corpus, vocab, seq_len)
    os.makedirs(out_dir, exist_ok=True)
    vocab.save(os.path.join(out_dir, "vocab.txt"))

    i = np.arange(len(chunks))
    held_sel = (np.floor(i * holdout_fraction)
                != np.floor((i - 1) * holdout_fraction))
    splits = {"heldout": chunks[held_sel], "train": chunks[~held_sel]}

    paths: Dict[str, List[str]] = {"train": [], "heldout": []}
    masked = []
    for split, rows in splits.items():
        if not len(rows):
            continue
        rng = Rng(derive_seed(seed, split, 0))
        ids, labels = mask_tokens(rows, mask_rate, rng, len(vocab))
        name = "train-0000.bin" if split == "train" else "heldout.bin"
        path = os.path.join(out_dir, name)
        write_shard(path, ids, labels)
        paths[split].append(path)
        masked.append((ids, labels))

    all_ids, all_labels = zip(*masked)
    return {
        "vocab_path": os.path.join(out_dir, "vocab.txt"),
        "vocab_size": len(vocab),
        "n_chunks": int(len(chunks)),
        "train_paths": paths["train"],
        "heldout_paths": paths["heldout"],
        "stats": masking_stats(np.concatenate(all_ids),
                               np.concatenate(all_labels)),
    }


def load_split(paths: List[str]) -> Tuple[np.ndarray, np.ndarray]:
    ids, labels = [], []
    for p in paths:
        a, b = read_shard(p)
        ids.append(a)
        labels.append(b)
    return np.concatenate(ids), np.concatenate(labels)


# ---------------------------------------------------------------------------
# training

# mallopt(3) parameter numbers in glibc's malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# glibc's own ceiling for its dynamic mmap threshold on 64-bit builds.
_MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_freed_memory() -> None:
    """Keep the pages of freed arrays in the process for the next step.

    glibc's default malloc gives back to the kernel every freed block
    above its mmap threshold and trims the heap top above its trim
    threshold, so a step's multi-MB activations, gradients and
    temporaries fault fresh zeroed pages in again on the next step. This
    maps only blocks of 32 MiB or more, which still go back at free, and
    never trims (a trim threshold of -1). The setting is process-wide,
    repeating it is harmless, no computed value changes, and on a C
    library other than glibc it does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version   # present in glibc only
        mallopt = libc.mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, -1)


@lru_cache(maxsize=2)
def _epoch_order(seed: int, epoch: int, count: int) -> np.ndarray:
    """The shuffled order of one epoch; read-only, since it is cached."""
    order = Rng(derive_seed(seed, "order", epoch)).permutation(count)
    order.flags.writeable = False
    return order


def _batch_indices(seed: int, step: int, batch_size: int,
                   count: int) -> np.ndarray:
    """Deterministic epoch-shuffled indices for one step.

    The run reads one stream of positions: position p is entry
    p % count of the order of epoch p // count, and step s takes
    positions s * batch_size up to (s + 1) * batch_size, a slice of
    each epoch they fall in.
    """
    start, stop = step * batch_size, (step + 1) * batch_size
    return np.concatenate([
        _epoch_order(seed, epoch, count)[max(start - epoch * count, 0):
                                         stop - epoch * count]
        for epoch in range(start // count, (stop - 1) // count + 1)])


def _checkpoint_entries(params: ModelParams, optimizer: AdamW):
    """A run's state as (name, array) pairs: the parameters, then the
    optimizer's moments. Saving writes these arrays and loading fills
    them in place."""
    for name, t in params.named_parameters():
        yield name, t.data
    yield from optimizer.state_entries()


def save_run_checkpoint(directory: str, params: ModelParams,
                        optimizer: AdamW, step: int,
                        train_cfg: TrainConfig) -> None:
    meta = {
        "step": step,
        "optimizer_steps": optimizer.step_count,
        "model_config": asdict(params.config),
        "train_config": asdict(train_cfg),
    }
    save_checkpoint(directory, _checkpoint_entries(params, optimizer),
                    meta=meta)


class _ZeroDraws:
    """Stands in for an Rng where only the shapes of the draws matter:
    every draw is zeros, so no random numbers are generated."""

    def normal(self, shape=None, *_, **__) -> np.ndarray:
        return np.zeros(() if shape is None else shape)

    uniform = normal


# Entries of checkpoints written while SsmParams still stored the input
# matrix B, which is fixed at 1 + 0i.
_STORED_B = re.compile(r"\.ssm_(?:fwd|bwd)\.b_(?:re|im)$")


def _drop_stored_b(entries: Dict[str, np.ndarray]) -> None:
    """Remove stored B entries in place; they must hold exactly 1 and 0."""
    for name in [k for k in entries if _STORED_B.search(k)]:
        want = 1.0 if name.endswith("re") else 0.0
        if not np.all(entries.pop(name) == want):
            raise ValueError(f"checkpoint entry {name!r} must hold {want:g} "
                             f"everywhere: B is fixed at 1 + 0i")


# Keys that ModelConfig no longer has, each mapped to the value it now
# takes for a given config. dt_min and dt_max only shaped
# initialization, so any stored value loads (None).
_RETIRED_KEYS = {
    "dt_min": None,
    "dt_max": None,
    "use_bias": lambda cfg: False,
    "intermediate": lambda cfg: cfg.intermediate,
    "use_position_embeddings": lambda cfg: cfg.use_position_embeddings,
}
# Keys that TrainConfig no longer has, each with the one value it takes.
_RETIRED_TRAIN_KEYS = {"weight_decay": WEIGHT_DECAY, "clip_norm": 0.0}


def _model_config_from_meta(model_config: dict) -> ModelConfig:
    """The ModelConfig a checkpoint stores. Retired keys are dropped
    from `model_config` in place; one whose stored value differs from
    the value it now takes is refused, and so is any other key
    ModelConfig lacks."""
    retired = {key: model_config.pop(key) for key in list(model_config)
               if key in _RETIRED_KEYS}
    known = {f.name for f in fields(ModelConfig)}
    for key in model_config:
        if key not in known:
            raise ValueError(f"checkpoint model_config has unknown key "
                             f"{key!r}")
    cfg = ModelConfig(**model_config)
    for key, value in retired.items():
        derive = _RETIRED_KEYS[key]
        if derive is not None and value != derive(cfg):
            raise ValueError(f"checkpoint model_config key {key!r} is "
                             f"{value!r}; this model takes {derive(cfg)!r}")
    return cfg


def load_run_checkpoint(directory: str):
    """Rebuild (params, optimizer, meta) from a saved run checkpoint."""
    entries, meta = load_checkpoint(directory)
    _drop_stored_b(entries)
    cfg = _model_config_from_meta(meta["model_config"])
    # Drop the keys TrainConfig no longer has. Any other value than the
    # one every run now takes would resume another recipe.
    tc = meta.get("train_config", {})
    for key, want in _RETIRED_TRAIN_KEYS.items():
        value = tc.pop(key, want)
        if value != want:
            raise ValueError(f"checkpoint train_config key {key!r} is "
                             f"{value!r}; training now takes {want!r}")
    # The optimizer takes over the parameters' storage, so one load
    # writes every parameter and moment straight into its buffers.
    params = init_model(cfg, _ZeroDraws())
    optimizer = AdamW(params.trainable_parameters())
    load_into(_checkpoint_entries(params, optimizer), entries)
    steps = {"optimizer_steps": meta.get("optimizer_steps")}
    check_integer_fields(steps, {"optimizer_steps": 0})
    optimizer.step_count = steps["optimizer_steps"]
    return params, optimizer, meta


def _open_loss_csv(path: str, start_step: int):
    """Open `loss.csv` for rows from `start_step` on.

    A fresh run starts the file with its header. A resumed run keeps the
    header and the complete rows before `start_step` and cuts the rest,
    so the steps a stopped run got past its checkpoint are not logged
    twice.
    """
    if not (start_step and os.path.exists(path)):
        csv = open(path, "w", encoding="utf-8")
        csv.write("step,lr,loss\n")
        return csv
    keep = 0
    with open(path, "rb") as f:
        for i, line in enumerate(f):
            if i and (not line.endswith(b"\n")
                      or int(line.split(b",", 1)[0]) >= start_step):
                break
            keep += len(line)
    csv = open(path, "r+", encoding="utf-8")
    csv.truncate(keep)
    csv.seek(0, os.SEEK_END)
    return csv


def train_mlm(model_cfg: ModelConfig, train_cfg: TrainConfig,
              input_ids: np.ndarray, labels: np.ndarray, out_dir: str,
              *, params: Optional[ModelParams] = None,
              optimizer: Optional[AdamW] = None,
              start_step: int = 0) -> List[Tuple[int, float, float]]:
    """Run the MLM loop; returns [(step, lr, loss)] and writes artifacts.

    Writes `loss.csv` plus a final checkpoint directory (and periodic
    ones when configured). A non-finite loss aborts with the last
    written checkpoint left intact; the error names the step, its lr
    and the first parameter holding a non-finite value, if any.
    """
    _keep_freed_memory()
    os.makedirs(out_dir, exist_ok=True)
    if params is None:
        params = init_model(model_cfg,
                            Rng(derive_seed(train_cfg.seed, "init")))
    if optimizer is None:
        optimizer = AdamW(params.trainable_parameters())
    schedule = SCHEDULES[train_cfg.schedule]
    count = len(input_ids)
    if count < 1:
        raise ValueError("no training sequences")
    history: List[Tuple[int, float, float]] = []
    with _open_loss_csv(os.path.join(out_dir, LOSS_CSV_NAME),
                        start_step) as csv:
        for step in range(start_step, train_cfg.steps):
            idx = _batch_indices(train_cfg.seed, step,
                                 train_cfg.batch_size, count)
            lr = schedule(step, train_cfg.steps, train_cfg.warmup_frac,
                          train_cfg.peak_lr)
            drop_rng = Rng(derive_seed(train_cfg.seed, "dropout", step))
            loss = forward_mlm(input_ids[idx], labels[idx], model_cfg,
                               params, train=True, rng=drop_rng)
            value = float(loss.data)
            if not np.isfinite(value):
                bad = next((name for name, t in params.named_parameters()
                            if not np.isfinite(t.data).all()), None)
                where = ("every parameter is finite" if bad is None else
                         f"parameter {bad} holds a non-finite value")
                raise RuntimeError(
                    f"non-finite loss at step {step} (lr {lr!r}); {where}; "
                    f"the most recent checkpoint is retained"
                )
            optimizer.zero_grad()
            backward(loss)
            optimizer.step(lr)
            history.append((step, lr, value))
            csv.write(f"{step},{lr!r},{value!r}\n")
            csv.flush()
            done = step + 1
            if (train_cfg.checkpoint_every
                    and done % train_cfg.checkpoint_every == 0
                    and done < train_cfg.steps):
                save_run_checkpoint(
                    os.path.join(out_dir, f"checkpoint-step-{done}"),
                    params, optimizer, done, train_cfg)
    save_run_checkpoint(os.path.join(out_dir, FINAL_CHECKPOINT),
                        params, optimizer, train_cfg.steps, train_cfg)
    return history


def eval_mlm(model_cfg: ModelConfig, params: ModelParams,
             input_ids: np.ndarray, labels: np.ndarray,
             batch_size: int = 16) -> Tuple[float, float]:
    """Mean cross-entropy per labeled position and its exp (perplexity)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    _keep_freed_memory()
    total, weight = 0.0, 0
    with no_grad():
        for start in range(0, len(input_ids), batch_size):
            ids = input_ids[start:start + batch_size]
            lab = labels[start:start + batch_size]
            n = T.labeled_rows(lab).size
            if n == 0:
                continue
            loss = forward_mlm(ids, lab, model_cfg, params)
            total += float(loss.data) * n
            weight += n
    if weight == 0:
        raise ValueError("evaluation data has no labeled positions")
    mean = total / weight
    return mean, float(np.exp(mean))


def load_extension(checkpoint_dir: str, new_len: int,
                   input_ids: np.ndarray, steps: int, lr: float,
                   *, seed: Optional[int] = None,
                   batch_size: Optional[int] = None):
    """Reload a checkpoint for length extension and check it against
    the new length and data, writing nothing.

    Returns the parameters with max_len lifted to new_len and the
    TrainConfig of the continued run; ``continue_pretrain`` trains them.
    """
    params, _, meta = load_run_checkpoint(checkpoint_dir)
    cfg = params.config
    if new_len <= cfg.max_len:
        raise ValueError(
            f"new length {new_len} must exceed current max_len "
            f"{cfg.max_len}"
        )
    if cfg.use_position_embeddings:
        raise ValueError(
            "length extension needs kernel-based routing; this model "
            "uses a fixed-size position table"
        )
    if input_ids.shape[1] != new_len:
        raise ValueError(
            f"extension data has length {input_ids.shape[1]}, "
            f"expected {new_len}"
        )
    params.config = replace(cfg, max_len=new_len)
    old_tc = meta.get("train_config", {})
    tc = TrainConfig(
        steps=steps,
        batch_size=(old_tc.get("batch_size", 16) if batch_size is None
                    else batch_size),
        peak_lr=lr,
        schedule="constant",
        warmup_frac=old_tc.get("warmup_frac", 0.01),
        seed=seed if seed is not None else old_tc.get("seed", 0) + 1,
    )
    return params, tc


def continue_pretrain(checkpoint_dir: str, new_len: int,
                      input_ids: np.ndarray, labels: np.ndarray,
                      steps: int, lr: float, out_dir: str,
                      *, seed: Optional[int] = None,
                      batch_size: Optional[int] = None):
    """Length extension: reload, lift max_len, keep training.

    The state-space kernels simply materialize at the longer length, so
    no parameters are added or approximated. Optimizer moments restart
    (the run is a new phase at a fixed learning rate).
    """
    params, tc = load_extension(checkpoint_dir, new_len, input_ids, steps,
                                lr, seed=seed, batch_size=batch_size)
    history = train_mlm(params.config, tc, input_ids, labels, out_dir,
                        params=params)
    return history, params.config
