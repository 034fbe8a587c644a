"""Pretraining pipeline: corpus, vocab, masking, shards, optimizer,
training loop, and length extension."""

from .corpus import generate_corpus, generate_documents
from .masking import IGNORE_LABEL, mask_tokens
from .optim import SCHEDULES, AdamW, constant_lr, cosine_warmup_lr
from .shards import read_shard, write_shard
from .trainer import (
    FINAL_CHECKPOINT,
    LOSS_CSV_NAME,
    TrainConfig,
    chunk_corpus,
    continue_pretrain,
    eval_mlm,
    load_extension,
    load_run_checkpoint,
    load_split,
    masking_stats,
    prepare_shards,
    save_run_checkpoint,
    train_mlm,
)
from .vocab import (
    CLS,
    MASK,
    N_SPECIAL,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    Vocab,
    build_vocab,
)

__all__ = [
    "AdamW", "CLS", "FINAL_CHECKPOINT", "IGNORE_LABEL", "LOSS_CSV_NAME",
    "MASK", "N_SPECIAL",
    "PAD", "SCHEDULES", "SEP", "SPECIAL_TOKENS", "TrainConfig", "UNK",
    "Vocab", "build_vocab", "chunk_corpus", "constant_lr",
    "continue_pretrain", "cosine_warmup_lr", "eval_mlm",
    "generate_corpus", "generate_documents", "load_extension",
    "load_run_checkpoint", "load_split", "mask_tokens", "masking_stats",
    "prepare_shards", "read_shard", "save_run_checkpoint", "train_mlm",
    "write_shard",
]
