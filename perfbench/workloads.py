"""The benchmark's workloads: generated corpus, set-up and one trial.

A workload is one generated corpus plus a model and training config.
Every input comes from `generate_corpus` under the run's seed, so the
program under test only ever sees generated data. A trial trains from
the same initial state for a fixed number of steps, reloads the final
checkpoint and evaluates on held-out rows; every trial of one run must
therefore produce the same losses bit for bit.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import List, Optional

import numpy as np

import gatedssm.pretrain as pretrain
import gatedssm.pretrain.trainer as trainer
from gatedssm.model import ModelConfig, ModelParams, init_model
from gatedssm.numerics import Rng, Tensor, derive_seed, no_grad
from gatedssm.ssm import convolve, discretize, materialize_kernel, scan, \
    ssm_apply

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
# A run's inputs come from one of this many input sets, the run's seed
# modulo INPUT_SETS; the losses of every set are stored in the
# reference, so every run is checked against an exact reference.
INPUT_SETS = 32
# Losses must match the reference to this relative tolerance; it admits
# a changed summation order (about 1e-14 here), not a changed result.
REFERENCE_RTOL = 1e-6
# Largest gap allowed between the convolution paths and the scan
# recurrence; float64 rounding at L=2048 is about 1e-14.
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    routing: str
    n_docs: int
    doc_len: int
    n_words: int
    vocab_size: int
    seq_len: int
    batch_size: int
    steps: int
    peak_lr: float
    eval_rows: int
    eval_batch: int
    warmup_frac: float = 0.05
    n_state: int = 16
    n_heads: int = 8
    checkpoint_every: int = 0
    # Nonzero: set-up saves a fresh model at this max_len, and each
    # trial extends it to seq_len with continue_pretrain.
    base_len: int = 0

    @property
    def train_tokens(self) -> int:
        return self.batch_size * self.seq_len * self.steps

    @property
    def corpus_tokens(self) -> int:
        return self.n_docs * self.doc_len


WORKLOADS = {w.name: w for w in (
    # The shape of the toy acceptance test (Markov corpus, n_words=91).
    Workload("toy-gated-l32", "gated", "ssm", n_docs=200, doc_len=128,
             n_words=91, vocab_size=96, seq_len=32, batch_size=8,
             steps=20, peak_lr=2e-3, eval_rows=80, eval_batch=16),
    # Length extension of a short gated checkpoint to L=2048.
    Workload("extend-gated-l2048", "gated", "ssm", n_docs=20,
             doc_len=2048, n_words=91, vocab_size=96, seq_len=2048,
             batch_size=2, steps=2, peak_lr=1e-3, eval_rows=2,
             eval_batch=2, base_len=128),
    # BERT-size vocabulary: the corpus needs >= 30517 word types.
    Workload("bert-attn-l128-v30k", "stacked", "attention", n_docs=2000,
             doc_len=256, n_words=34000, vocab_size=30522, seq_len=128,
             batch_size=8, steps=4, peak_lr=1e-3, eval_rows=16,
             eval_batch=8, warmup_frac=0.25, checkpoint_every=2),
)}

# The same workloads at a size that runs in about a second each.
SMOKE = {
    "toy-gated-l32": replace(WORKLOADS["toy-gated-l32"], n_docs=60,
                             doc_len=64, steps=3, eval_rows=8),
    "extend-gated-l2048": replace(WORKLOADS["extend-gated-l2048"],
                                  n_docs=20, doc_len=256, seq_len=256,
                                  base_len=32, eval_rows=1, eval_batch=1),
    "bert-attn-l128-v30k": replace(WORKLOADS["bert-attn-l128-v30k"],
                                   n_docs=40, doc_len=64, n_words=200,
                                   vocab_size=128, seq_len=32, steps=2,
                                   eval_rows=8, checkpoint_every=1),
}


@dataclass
class Prepared:
    """What set-up hands to the trials."""

    cfg: ModelConfig
    params: ModelParams
    ids: np.ndarray
    labels: np.ndarray
    held_ids: np.ndarray
    held_labels: np.ndarray
    base_checkpoint: Optional[str]


@dataclass
class Trial:
    losses: List[float]
    heldout_loss: float
    train_s: float
    eval_s: float
    saves: int
    loads: int
    eval_batches: int
    # None when the trial has no trained parameters in memory to compare
    # (an extension trains inside continue_pretrain).
    roundtrip_ok: Optional[bool]


def setup(w: Workload, seed: int, work: str) -> Prepared:
    """Generate the corpus, prepare shards, load them, init the model
    (and, for an extension workload, save the starting checkpoint)."""
    os.makedirs(work)
    corpus = os.path.join(work, "corpus.txt")
    pretrain.generate_corpus(corpus, n_docs=w.n_docs, doc_len=w.doc_len,
                             n_words=w.n_words, seed=seed)
    info = trainer.prepare_shards(corpus, os.path.join(work, "data"),
                                  vocab_size=w.vocab_size,
                                  seq_len=w.seq_len, seed=seed)
    if info["vocab_size"] != w.vocab_size:
        raise ValueError(f"corpus gave a vocabulary of {info['vocab_size']}"
                         f", the workload needs {w.vocab_size}")
    ids, labels = trainer.load_split(info["train_paths"])
    held_ids, held_labels = trainer.load_split(info["heldout_paths"])
    if len(held_ids) < w.eval_rows:
        raise ValueError(f"only {len(held_ids)} held-out rows")
    cfg = ModelConfig(arch=w.arch, routing=w.routing, n_layers=2,
                      d_model=64, n_state=w.n_state, n_heads=w.n_heads,
                      max_len=w.base_len or w.seq_len,
                      vocab_size=w.vocab_size, dropout=0.1)
    params = init_model(cfg, Rng(derive_seed(seed, "init")))
    base = None
    if w.base_len:
        base = os.path.join(work, "base")
        trainer.save_run_checkpoint(
            base, params, pretrain.AdamW(params.trainable_parameters()), 0,
            pretrain.TrainConfig(steps=1, batch_size=w.batch_size,
                                 seed=seed))
    return Prepared(cfg, params, ids, labels, held_ids[:w.eval_rows],
                    held_labels[:w.eval_rows], base)


def same_inputs(a: Prepared, b: Prepared) -> bool:
    return all(np.array_equal(x, y) for x, y in (
        (a.ids, b.ids), (a.labels, b.labels), (a.held_ids, b.held_ids),
        (a.held_labels, b.held_labels)))


def run_trial(w: Workload, prep: Prepared, seed: int, out: str,
              tracer) -> Trial:
    """Train for the workload's fixed steps, reload, evaluate."""
    loads = 1
    with tracer.train():
        start = perf_counter()
        if prep.base_checkpoint:
            history, _ = trainer.continue_pretrain(
                prep.base_checkpoint, w.seq_len, prep.ids, prep.labels,
                w.steps, w.peak_lr, out, seed=seed,
                batch_size=w.batch_size)
            params = None
            loads += 1
        else:
            params = copy.deepcopy(prep.params)
            tc = pretrain.TrainConfig(
                steps=w.steps, batch_size=w.batch_size, peak_lr=w.peak_lr,
                warmup_frac=w.warmup_frac, seed=seed,
                checkpoint_every=w.checkpoint_every)
            history = trainer.train_mlm(prep.cfg, tc, prep.ids,
                                        prep.labels, out, params=params)
        train_s = perf_counter() - start
    loaded, _, _ = trainer.load_run_checkpoint(
        os.path.join(out, pretrain.FINAL_CHECKPOINT))
    roundtrip_ok = None if params is None else all(
        np.array_equal(a.data, b.data) for (_, a), (_, b) in
        zip(params.named_parameters(), loaded.named_parameters()))
    params = params or loaded
    with tracer.group("eval"), tracer.span("eval_mlm"):
        start = perf_counter()
        heldout, _ = trainer.eval_mlm(params.config, params, prep.held_ids,
                                      prep.held_labels,
                                      batch_size=w.eval_batch)
        eval_s = perf_counter() - start
    saves = sum(name.startswith(pretrain.FINAL_CHECKPOINT)
                for name in os.listdir(out))
    return Trial([loss for _, _, loss in history], heldout, train_s,
                 eval_s, saves, loads,
                 math.ceil(len(prep.held_ids) / w.eval_batch),
                 roundtrip_ok)


def oracle_error(w: Workload, prep: Prepared, seed: int) -> float:
    """Largest gap between the trained convolution paths (`convolve`,
    `ssm_apply`) and the `scan` recurrence at the workload's length."""
    p = prep.params.blocks[0].ssm_fwd
    system = discretize(p)
    kern = materialize_kernel(system, w.seq_len)
    u = Rng(derive_seed(seed, "oracle")).normal((w.seq_len,))
    want = scan(system, u)
    with no_grad():
        conv = convolve(kern, system.d, u).data
        applied = ssm_apply(p, Tensor(u.reshape(-1, 1))).data[:, 0]
    return float(max(np.max(np.abs(conv - want)),
                     np.max(np.abs(applied - want))))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def reference_gap(refs: dict, seed: int, values: List[float]) -> str:
    """Empty when `values` (losses, then the held-out loss) match the
    stored reference of input set `seed` to REFERENCE_RTOL; otherwise
    what differs."""
    stored = refs.get(str(seed))
    if stored is None:
        return f"no reference stored for input set {seed}"
    if len(stored) != len(values):
        return f"{len(values)} values, reference has {len(stored)}"
    for i, (got, want) in enumerate(zip(values, stored)):
        if abs(got - want) > REFERENCE_RTOL * abs(want):
            return f"value {i}: {got!r} != reference {want!r}"
    return ""
