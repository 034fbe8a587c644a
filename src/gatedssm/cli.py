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
possible). `SETTINGS` names the settings each command reads. Any other
key is an error, unless a --config file holds it for another command;
then it is left out. Every run writes the settings the command read to
<out>/config.json, so artifacts are reproducible from the snapshot
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
from dataclasses import fields
from inspect import signature
from typing import List, Optional

from .analysis import (
    dump_kernels,
    flop_estimate,
    full_table_configs,
    write_flop_csv,
    write_kernel_csv,
)
from .model import ModelConfig, param_count
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

_PREPARE_KEYS = [f"prepare.{name}" for name, p
                 in signature(prepare_shards).parameters.items()
                 if p.kind is p.KEYWORD_ONLY and name != "seed"]
_MODEL_KEYS = [f"model.{f.name}" for f in fields(ModelConfig)]
_TRAIN_KEYS = [f"train.{f.name}" for f in fields(TrainConfig)
               if f.name != "seed"]

# The settings each command reads, as `name` or `section.name`. Each
# maps to the CLI's own default, or to None where the command leaves it
# to the callee, the data (train's model.vocab_size and max_len) or the
# checkpoint (extend's batch_size, and its seed, the checkpoint's + 1).
SETTINGS = {
    "prepare": {"seed": 0, **dict.fromkeys(_PREPARE_KEYS),
                "prepare.vocab_size": 512, "prepare.seq_len": 32},
    "train": {"seed": 0, **dict.fromkeys(_MODEL_KEYS + _TRAIN_KEYS),
              "train.steps": 100},
    "extend": {"seed": None, "train.steps": 100, "train.peak_lr": 1e-4,
               "train.batch_size": None},
    "eval": {},
    "dump-kernels": {},
    "flops": {"lengths": [128, 512, 1024, 4096]},
}


# ---------------------------------------------------------------------------
# configuration plumbing


def _flatten(loaded: dict) -> dict:
    """A config file's keys, leaving out the command, out and inputs
    that a config.json snapshot records about its run."""
    flat = {}
    for key, value in loaded.items():
        if key not in ("command", "out", "inputs"):
            flat.update({f"{key}.{name}": v for name, v in value.items()}
                        if isinstance(value, dict) else {key: value})
    return flat


def _nest(flat: dict) -> dict:
    nested: dict = {}
    for key, value in flat.items():
        section, _, name = key.rpartition(".")
        (nested.setdefault(section, {}) if section else nested)[name] = value
    return nested


def _resolve(args: argparse.Namespace) -> dict:
    """The command's settings: its defaults, then the --config file,
    then --set, then --seed. A key the command does not read is an
    error, except in a config file, where keys other commands read are
    left out."""
    reads = SETTINGS[args.command]
    listed = ", ".join("seed (--seed)" if key == "seed" else key
                       for key in reads) or "no settings"
    cfg = {key: value for key, value in reads.items() if value is not None}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in _flatten(loaded).items():
            if key in reads:
                cfg[key] = value
            elif not any(key in other for other in SETTINGS.values()):
                raise ValueError(f"no command reads {key}; "
                                 f"{args.command} reads {listed}")
    # --seed N is one more --set seed=N, applied last.
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    for item in args.set + seed:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {item!r}")
        if key not in reads:
            raise ValueError(f"{args.command} does not read {key}; "
                             f"it reads {listed}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    return _nest(cfg)


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


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args, cfg) -> None:
    info = prepare_shards(args.corpus, args.out, seed=cfg["seed"],
                          **cfg["prepare"])
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


# float64 arrays of each parameter's size that training keeps: the
# parameter, its gradient and AdamW's two moments.
_STATE_ARRAYS = 4


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_state_fits(cfg: ModelConfig) -> None:
    """Refuse a model whose parameter state alone exceeds physical
    memory, which the OOM killer would otherwise end without a word."""
    memory = _physical_memory()
    if memory is None:
        return
    count = param_count(cfg)["total"]
    need = count * _STATE_ARRAYS * 8
    if need > memory:
        raise ValueError(
            f"a model of {count:,} parameters needs {need / 1e9:.2f} GB "
            f"for its parameters, gradients and AdamW moments alone, more "
            f"than this machine's {memory / 1e9:.2f} GB of memory; set "
            f"smaller model.* values")


def cmd_train(args, cfg) -> None:
    vocab, train, heldout = _load_prepared(args.data, need_train=True,
                                           need_heldout=False)
    ids, labels = train
    model_cfg = ModelConfig(**{"vocab_size": len(vocab),
                               "max_len": ids.shape[1],
                               **cfg.get("model", {})})
    train_cfg = TrainConfig(**cfg["train"], seed=cfg["seed"])
    _check_state_fits(model_cfg)
    _start_output(args, cfg)
    history = train_mlm(model_cfg, train_cfg, ids, labels, args.out)
    print(f"trained {len(history)} steps; first loss {history[0][2]:.4f}, "
          f"last loss {history[-1][2]:.4f}")
    ckpt = os.path.join(args.out, FINAL_CHECKPOINT)
    print(f"final checkpoint: {ckpt}")
    if heldout is not None:
        params, _, _ = load_run_checkpoint(ckpt)
        loss, ppl = eval_mlm(model_cfg, params, *heldout)
        _write_eval(args.out, loss, ppl, len(heldout[0]))
        print(f"heldout loss {loss:.4f}, perplexity {ppl:.2f}")


def cmd_extend(args, cfg) -> None:
    opts = cfg["train"]
    _, train, _ = _load_prepared(args.data, need_train=True,
                                 need_heldout=False)
    ids, labels = train
    params, train_cfg = load_extension(
        args.checkpoint, ids.shape[1], ids, opts["steps"], opts["peak_lr"],
        seed=cfg.get("seed"), batch_size=opts.get("batch_size"))
    cfg["seed"] = train_cfg.seed
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


def cmd_flops(args, cfg) -> None:
    gated, stacked = full_table_configs()
    raw = cfg["lengths"]
    lengths = raw if isinstance(raw, list) else [raw]
    if not lengths or not all(type(v) is int and v >= 1 for v in lengths):
        raise ValueError(f"lengths must be one or more positive integers, "
                         f"got {raw!r}")
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
