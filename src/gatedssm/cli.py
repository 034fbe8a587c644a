"""Command-line entry point.

One binary, six subcommands covering the full workflow:

  prepare       corpus file -> vocab + masked shards + stats
  train         prepared shards -> checkpoints + loss curve (+ eval)
  extend        continue a checkpoint at a longer sequence length
  eval          perplexity of a checkpoint on a held-out shard
  dump-kernels  export per-layer kernels from a checkpoint as CSV
  flops         analytic cost table for the two reference configs

Shared flags: --config JSON file, --seed, --out directory, and
repeatable --set section.key=value overrides (values parse as JSON when
possible). Every run writes the fully resolved configuration to
<out>/config.json so artifacts are reproducible from the snapshot
alone. The snapshot is written once the command has checked its
inputs, so a command that fails on bad arguments leaves no output
directory behind. Errors exit nonzero with a one-line message on
stderr.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .analysis import (
    dump_kernels,
    flop_estimate,
    full_table_configs,
    write_flop_csv,
    write_kernel_csv,
)
from .model import ModelConfig
from .pretrain import (
    FINAL_CHECKPOINT,
    TrainConfig,
    Vocab,
    eval_mlm,
    load_extension,
    load_run_checkpoint,
    load_split,
    prepare_shards,
    train_mlm,
)

DEFAULT_LENGTHS = (128, 512, 1024, 4096)
# The CLI's own sizes; every other `prepare` key takes prepare_shards'
# default.
DEFAULT_PREPARE = {"vocab_size": 512, "seq_len": 32}
# The `train` keys `extend` reads; the rest come from the checkpoint.
EXTEND_TRAIN_KEYS = ("steps", "peak_lr", "batch_size")


# ---------------------------------------------------------------------------
# configuration plumbing


def _merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _merge(dst[key], value)
        else:
            dst[key] = value


def _apply_override(cfg: dict, item: str) -> None:
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ValueError(f"--set expects key=value, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ValueError(f"--set path {key!r} crosses a non-section key")
        node = nxt
    node[parts[-1]] = value


def _resolve(args: argparse.Namespace) -> dict:
    cfg: dict = {"seed": 0, "model": {}, "train": {}, "prepare": {}}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        _merge(cfg, loaded)
    for item in args.set:
        _apply_override(cfg, item)
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg["seed"] = int(cfg["seed"])
    return cfg


def _start_output(args: argparse.Namespace, cfg: dict) -> None:
    """Create --out and write the config snapshot into it.

    Each command calls this after checking its inputs and before it
    writes anything else.
    """
    os.makedirs(args.out, exist_ok=True)
    snapshot = dict(cfg)
    snapshot["command"] = args.command
    snapshot["out"] = args.out
    snapshot["inputs"] = {key: getattr(args, key)
                          for key in ("corpus", "data", "checkpoint")
                          if hasattr(args, key)}
    path = os.path.join(args.out, "config.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_prepared(data_dir: str, *, need_train: bool,
                   need_heldout: bool):
    vocab_path = os.path.join(data_dir, "vocab.txt")
    if not os.path.exists(vocab_path):
        raise FileNotFoundError(f"no vocab.txt in {data_dir}; run prepare")
    vocab = Vocab.load(vocab_path)
    train = heldout = None
    train_paths = sorted(glob.glob(os.path.join(data_dir, "train-*.bin")))
    if need_train:
        if not train_paths:
            raise FileNotFoundError(f"no train shards in {data_dir}")
        train = load_split(train_paths)
    heldout_path = os.path.join(data_dir, "heldout.bin")
    if os.path.exists(heldout_path):
        heldout = load_split([heldout_path])
    elif need_heldout:
        raise FileNotFoundError(f"no heldout.bin in {data_dir}")
    return vocab, train, heldout


def _model_config(cfg: dict, vocab_len: int, seq_len: int) -> ModelConfig:
    fields = dict(cfg["model"])
    fields.setdefault("vocab_size", vocab_len)
    fields.setdefault("max_len", seq_len)
    return ModelConfig(**fields)


def _train_config(cfg: dict) -> TrainConfig:
    fields = dict(cfg["train"])
    if "seed" in fields:
        raise ValueError("train.seed is not read; set the seed with --seed "
                         "or the top-level \"seed\" key")
    fields["seed"] = cfg["seed"]
    fields.setdefault("steps", 100)
    return TrainConfig(**fields)


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args, cfg) -> None:
    opts = dict(DEFAULT_PREPARE)
    opts.update(cfg["prepare"])
    info = prepare_shards(args.corpus, args.out, seed=cfg["seed"], **opts)
    _start_output(args, cfg)
    stats = dict(info["stats"])
    stats["vocab_size"] = info["vocab_size"]
    stats["n_chunks"] = info["n_chunks"]
    with open(os.path.join(args.out, "stats.json"), "w",
              encoding="utf-8") as f:
        json.dump(stats, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(info['train_paths'])} train shard(s), "
          f"{len(info['heldout_paths'])} heldout shard(s), "
          f"vocab of {info['vocab_size']} to {args.out}")
    print(f"selected fraction {stats['selected_fraction']:.4f} over "
          f"{stats['maskable_positions']} maskable positions")


def cmd_train(args, cfg) -> None:
    vocab, train, heldout = _load_prepared(args.data, need_train=True,
                                           need_heldout=False)
    ids, labels = train
    model_cfg = _model_config(cfg, len(vocab), ids.shape[1])
    train_cfg = _train_config(cfg)
    _start_output(args, cfg)
    history = train_mlm(model_cfg, train_cfg, ids, labels, args.out)
    print(f"trained {len(history)} steps; first loss {history[0][2]:.4f}, "
          f"last loss {history[-1][2]:.4f}")
    ckpt = os.path.join(args.out, FINAL_CHECKPOINT)
    print(f"final checkpoint: {ckpt}")
    if heldout is not None:
        params, _, _ = load_run_checkpoint(ckpt)
        loss, ppl = eval_mlm(model_cfg, params, *heldout,
                             batch_size=train_cfg.batch_size)
        _write_eval(args.out, loss, ppl, len(heldout[0]))
        print(f"heldout loss {loss:.4f}, perplexity {ppl:.2f}")


def cmd_extend(args, cfg) -> None:
    opts = cfg["train"]
    for key in opts:
        if key not in EXTEND_TRAIN_KEYS:
            raise ValueError(f"extend does not read train.{key}; it reads "
                             f"only {', '.join(EXTEND_TRAIN_KEYS)}")
    _, train, _ = _load_prepared(args.data, need_train=True,
                                 need_heldout=False)
    ids, labels = train
    params, train_cfg = load_extension(
        args.checkpoint, ids.shape[1], ids,
        steps=opts.get("steps", 100),
        lr=float(opts.get("peak_lr", 1e-4)),
        seed=cfg["seed"],
        batch_size=opts.get("batch_size"),
    )
    _start_output(args, cfg)
    history = train_mlm(params.config, train_cfg, ids, labels, args.out,
                        params=params)
    print(f"extended to length {params.config.max_len}; "
          f"{len(history)} steps, last loss {history[-1][2]:.4f}")
    print(f"final checkpoint: {os.path.join(args.out, FINAL_CHECKPOINT)}")


def _write_eval(out_dir: str, loss: float, ppl: float, n_rows: int) -> None:
    with open(os.path.join(out_dir, "eval.json"), "w",
              encoding="utf-8") as f:
        json.dump({"loss": loss, "perplexity": ppl, "sequences": n_rows},
                  f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_eval(args, cfg) -> None:
    _, _, heldout = _load_prepared(args.data, need_train=False,
                                   need_heldout=True)
    params, _, _ = load_run_checkpoint(args.checkpoint)
    loss, ppl = eval_mlm(params.config, params, *heldout)
    _start_output(args, cfg)
    _write_eval(args.out, loss, ppl, len(heldout[0]))
    print(f"heldout loss {loss:.4f}, perplexity {ppl:.2f} "
          f"over {len(heldout[0])} sequences")


def cmd_dump_kernels(args, cfg) -> None:
    params, _, _ = load_run_checkpoint(args.checkpoint)
    dump = dump_kernels(params)
    _start_output(args, cfg)
    path = os.path.join(args.out, "kernels.csv")
    sidecar = write_kernel_csv(dump, path)
    print(f"wrote {len(dump.kernels)} kernels "
          f"({dump.n_layers} layers x 2 directions) to {path}")
    print(f"header sidecar: {sidecar}")


def _lengths(cfg: dict) -> List[int]:
    raw = cfg.get("lengths", list(DEFAULT_LENGTHS))
    if isinstance(raw, str):
        raw = [int(part) if part.strip().isdecimal() else part
               for part in raw.split(",") if part]
    elif not isinstance(raw, list):
        raw = [raw]
    if not raw or not all(type(v) is int and v >= 1 for v in raw):
        raise ValueError(f"lengths must be one or more positive integers, "
                         f"got {cfg['lengths']!r}")
    return raw


def cmd_flops(args, cfg) -> None:
    gated, stacked = full_table_configs()
    lengths = _lengths(cfg)
    reports = []
    rows = []
    for length in lengths:
        g = flop_estimate(gated, length)
        s = flop_estimate(stacked, length)
        reports.extend((g, s))
        rows.append((length, g.total, s.total, g.total / s.total))
    _start_output(args, cfg)
    path = os.path.join(args.out, "flops.csv")
    write_flop_csv(reports, path)
    print(f"{'length':>8} {'kernel-routed':>15} {'attention':>15} "
          f"{'ratio':>7}")
    for length, g, s, ratio in rows:
        print(f"{length:>8} {g:>15.3e} {s:>15.3e} {ratio:>7.2f}")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config file)")
    shared.add_argument("--out", default=".",
                        help="output directory (default: current)")
    shared.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry, e.g. "
                             "--set model.d_model=64 (repeatable)")
    parser = argparse.ArgumentParser(
        prog="gatedssm",
        description="Bidirectional gated state-space models: data "
                    "preparation, MLM pretraining, and analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", parents=[shared],
                       help="build vocab and masked shards from a corpus")
    p.add_argument("corpus", help="one document per line")

    p = sub.add_parser("train", parents=[shared],
                       help="pretrain on prepared shards")
    p.add_argument("data", help="directory produced by prepare")

    p = sub.add_parser("extend", parents=[shared],
                       help="continue a checkpoint at a longer length")
    p.add_argument("checkpoint", help="checkpoint directory")
    p.add_argument("data", help="prepared directory at the new length")

    p = sub.add_parser("eval", parents=[shared],
                       help="perplexity on a held-out shard")
    p.add_argument("checkpoint", help="checkpoint directory")
    p.add_argument("data", help="prepared directory with heldout.bin")

    p = sub.add_parser("dump-kernels", parents=[shared],
                       help="export layer kernels from a checkpoint")
    p.add_argument("checkpoint", help="checkpoint directory")

    sub.add_parser("flops", parents=[shared],
                   help="analytic cost table for the reference configs")
    return parser


HANDLERS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "extend": cmd_extend,
    "eval": cmd_eval,
    "dump-kernels": cmd_dump_kernels,
    "flops": cmd_flops,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        HANDLERS[args.command](args, _resolve(args))
    except Exception as exc:  # surface as exit status, not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
