"""End-to-end runs of every subcommand through the argparse entry."""

import json
import os

import numpy as np
import pytest

from gatedssm import cli
from gatedssm.cli import main
from gatedssm.model import ModelConfig, param_count
from gatedssm.pretrain import (
    Vocab,
    continue_pretrain,
    generate_corpus,
    load_split,
    read_shard,
    write_shard,
)

MODEL_FLAGS = [
    "--set", "model.d_model=16", "--set", "model.n_state=4",
    "--set", "model.n_layers=1", "--set", "model.dropout=0.0",
]
TRAIN_FLAGS = ["--set", "train.steps=3", "--set", "train.batch_size=4"]


@pytest.fixture()
def corpus(tmp_path):
    path = str(tmp_path / "corpus.txt")
    generate_corpus(path, n_docs=20, doc_len=96, n_words=40, seed=3)
    return path


def prepared_dir(tmp_path, corpus, name="data", seq_len=32, seed=4):
    out = str(tmp_path / name)
    code = main(["prepare", corpus, "--out", out, "--seed", str(seed),
                 "--set", "prepare.vocab_size=64",
                 "--set", f"prepare.seq_len={seq_len}"])
    assert code == 0
    return out


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_prepare_writes_artifacts_and_stats(tmp_path, corpus, capsys):
    out = prepared_dir(tmp_path, corpus)
    for name in ("vocab.txt", "train-0000.bin", "heldout.bin",
                 "stats.json", "config.json"):
        assert os.path.exists(os.path.join(out, name)), name
    stats = json.load(open(os.path.join(out, "stats.json")))
    assert 0.12 <= stats["selected_fraction"] <= 0.18
    assert stats["masked"] > stats["randomized"]
    snapshot = json.load(open(os.path.join(out, "config.json")))
    assert snapshot["command"] == "prepare"
    assert snapshot["seed"] == 4
    assert snapshot["prepare"]["vocab_size"] == 64
    assert "wrote" in capsys.readouterr().out


def test_prepare_is_idempotent(tmp_path, corpus):
    a = prepared_dir(tmp_path, corpus, "a")
    b = prepared_dir(tmp_path, corpus, "b")
    for name in sorted(os.listdir(a)):
        if name == "config.json":
            continue  # snapshot embeds the (differing) output path
        raw_a = open(os.path.join(a, name), "rb").read()
        raw_b = open(os.path.join(b, name), "rb").read()
        assert raw_a == raw_b, name


def test_prepare_round_trips_tokens(tmp_path):
    corpus = str(tmp_path / "tiny.txt")
    with open(corpus, "w") as f:
        f.write("red green blue red\ngreen blue\nred red green\n")
    out = str(tmp_path / "data")
    assert main(["prepare", corpus, "--out", out,
                 "--set", "prepare.seq_len=4",
                 "--set", "prepare.vocab_size=16",
                 "--set", "prepare.holdout_fraction=0"]) == 0
    vocab = Vocab.load(os.path.join(out, "vocab.txt"))
    ids, labels = read_shard(os.path.join(out, "train-0000.bin"))
    untouched = (labels == -1) & (ids >= 5)
    words = vocab.decode(ids[untouched].tolist())
    assert set(words) <= {"red", "green", "blue"}
    assert vocab.encode(words) == ids[untouched].tolist()


def test_train_reads_every_train_shard(tmp_path, corpus):
    # prepare writes one train shard; directories from before that held
    # several, and train still reads them all, in name order.
    data = prepared_dir(tmp_path, corpus)
    ids, labels = read_shard(os.path.join(data, "train-0000.bin"))
    split = tmp_path / "split"
    split.mkdir()
    for name in ("vocab.txt", "heldout.bin"):
        (split / name).write_bytes(open(os.path.join(data, name),
                                        "rb").read())
    half = len(ids) // 2
    write_shard(str(split / "train-0000.bin"), ids[:half], labels[:half])
    write_shard(str(split / "train-0001.bin"), ids[half:], labels[half:])
    losses = []
    for src in (data, str(split)):
        run = str(tmp_path / ("run-" + os.path.basename(src)))
        assert main(["train", src, "--out", run, *MODEL_FLAGS,
                     *TRAIN_FLAGS]) == 0
        losses.append(open(os.path.join(run, "loss.csv"), "rb").read())
    assert losses[0] == losses[1]


def test_prepare_missing_corpus_fails(tmp_path, capsys):
    assert main(["prepare", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "d")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A prepared length-32 directory, a checkpoint trained on it, and a
    prepared length-64 directory to extend it on."""
    tmp = tmp_path_factory.mktemp("short_run")
    corpus = str(tmp / "corpus.txt")
    generate_corpus(corpus, n_docs=20, doc_len=96, n_words=40, seed=3)
    data = prepared_dir(tmp, corpus)
    run = str(tmp / "run")
    assert main(["train", data, "--out", run, *MODEL_FLAGS,
                 *TRAIN_FLAGS]) == 0
    data64 = prepared_dir(tmp, corpus, "data64", seq_len=64)
    return data, os.path.join(run, "checkpoint"), data64


@pytest.mark.parametrize("argv", [
    ["prepare", "{corpus}", "--set", "prepare.n_shards=0"],
    ["prepare", "{tmp}/missing.txt"],
    ["train", "{tmp}/missing"],
    ["eval", "{tmp}/nockpt", "{tmp}/missing"],
    ["flops", "--set", "novalue"],
    ["prepare", "{corpus}", "--set", "prepare.seq_len=0"],
    ["prepare", "{corpus}", "--set", "prepare.seq_len=-4"],
    ["prepare", "{corpus}", "--set", "prepare.mask_rate=1.5"],
    ["prepare", "{corpus}", "--set", "prepare.vocab_size=3"],
    ["prepare", "{tmp}/empty.txt"],
    ["extend", "{tmp}/nockpt", "{data}"],
    ["extend", "{ckpt}", "{data}"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.warmup_frac=1.5"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "model.use_bias=true"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "model.intermediate=48"],
    ["train", "{data}", *MODEL_FLAGS,
     "--set", "model.use_position_embeddings=false"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "model.dt_min=0.01"],
    ["prepare", "{corpus}", "--set", "prepare.vocab_sz=20"],
    ["extend", "{ckpt}", "{data64}", "--set", "train.weight_decay=5.0"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.seed=5"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.steps=2.5"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "model.d_model=8.5"],
    ["flops", "--set", "lengths=[]"],
    ["flops", "--set", "lengths=128.9"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.checkpoint_every=-1"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.peak_lr=-1"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.weight_decay=0.01"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.clip_norm=1.0"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.schedule=linear"],
    ["extend", "{ckpt}", "{data64}", "--set", "train.steps=2.5"],
    ["extend", "{ckpt}", "{data64}", "--set", "train.batch_size=0"],
    ["eval", "{ckpt}", "{data}", "--set", "model.d_model=999"],
    ["dump-kernels", "{ckpt}", "--set", "train.steps=7"],
    ["flops", "--set", "model.d_model=3"],
    ["flops", "--set", "nosuch.key=1"],
    ["prepare", "{corpus}", "--set", "model.arch=nope"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "prepare.seq_len=999"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "lengths=[5]"],
    ["extend", "{ckpt}", "{data64}", "--set", "model.d_model=3"],
    ["eval", "{ckpt}", "{data}", "--seed", "3"],
    ["flops", "--set", "seed=2.5"],
    ["flops", "--set", "seed=true"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "train.peak_lr=true"],
    ["extend", "{ckpt}", "{data64}", "--set", "train.peak_lr=true"],
    ["train", "{data}", *MODEL_FLAGS, "--set", "model.dropout=false"],
    ["prepare", "{corpus}", "--set", "prepare.holdout_fraction=false"],
], ids=["prepare-zero-shards", "prepare-no-corpus", "train-no-data",
        "eval-no-checkpoint", "flops-bad-set", "prepare-zero-seq-len",
        "prepare-negative-seq-len", "prepare-mask-rate-above-1",
        "prepare-tiny-vocab", "prepare-empty-corpus",
        "extend-no-checkpoint", "extend-same-length",
        "train-warmup-frac-above-1", "train-use-bias",
        "train-intermediate", "train-use-position-embeddings",
        "train-dt-min", "prepare-misspelled-key",
        "extend-unread-train-key", "train-seed-key",
        "train-fractional-steps", "train-fractional-d-model",
        "flops-empty-lengths", "flops-fractional-length",
        "train-negative-checkpoint-every", "train-negative-peak-lr",
        "train-weight-decay", "train-clip-norm", "train-linear-schedule",
        "extend-fractional-steps", "extend-zero-batch-size",
        "eval-model-key", "dump-kernels-train-key", "flops-model-key",
        "flops-unknown-section", "prepare-model-key", "train-prepare-key",
        "train-lengths-key", "extend-model-key", "eval-seed-flag",
        "flops-fractional-seed", "flops-bool-seed", "train-bool-peak-lr",
        "extend-bool-peak-lr", "train-bool-dropout",
        "prepare-bool-holdout"])
def test_failed_command_leaves_no_output_dir(tmp_path, corpus, short_run,
                                             argv, capsys):
    (tmp_path / "empty.txt").write_text("\n \n")
    out = tmp_path / "out"
    data, ckpt, data64 = short_run
    argv = [a.format(corpus=corpus, tmp=tmp_path, data=data, ckpt=ckpt,
                     data64=data64)
            for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_train_eval_extend_dump_pipeline(tmp_path, corpus, capsys):
    data = prepared_dir(tmp_path, corpus, "data", seq_len=32)
    run = str(tmp_path / "run")
    assert main(["train", data, "--out", run, "--seed", "5",
                 *MODEL_FLAGS, *TRAIN_FLAGS]) == 0
    assert os.path.exists(os.path.join(run, "loss.csv"))
    assert os.path.exists(os.path.join(run, "eval.json"))
    ckpt = os.path.join(run, "checkpoint")
    assert os.path.isdir(ckpt)
    out = capsys.readouterr().out
    assert "trained 3 steps" in out
    assert "perplexity" in out

    eval_dir = str(tmp_path / "ev")
    assert main(["eval", ckpt, data, "--out", eval_dir]) == 0
    report = json.load(open(os.path.join(eval_dir, "eval.json")))
    assert report["perplexity"] == pytest.approx(np.exp(report["loss"]))
    assert report["sequences"] > 0

    long_data = prepared_dir(tmp_path, corpus, "data64", seq_len=64)
    ext = str(tmp_path / "ext")
    assert main(["extend", ckpt, long_data, "--out", ext, "--seed", "6",
                 "--set", "train.steps=2",
                 "--set", "train.peak_lr=1e-4"]) == 0
    assert "extended to length 64" in capsys.readouterr().out
    assert os.path.isdir(os.path.join(ext, "checkpoint"))

    dump_dir = str(tmp_path / "dump")
    assert main(["dump-kernels", os.path.join(ext, "checkpoint"),
                 "--out", dump_dir]) == 0
    lines = open(os.path.join(dump_dir, "kernels.csv")).read().splitlines()
    assert lines[0] == "layer,direction,relative_position,tap,normalized_tap"
    assert len(lines) == 1 + 1 * 2 * 21
    assert json.load(open(os.path.join(dump_dir, "kernels.json")))[
        "length"] == 64


def test_train_and_eval_report_the_same_heldout_bits(tmp_path, short_run):
    # The batch size sets the order of the loss sums, so train evaluates
    # its final checkpoint in eval's batches, not in its training ones.
    # At seed 5 the two orders round the mean differently.
    data = short_run[0]
    run, ev = tmp_path / "run", tmp_path / "ev"
    assert main(["train", data, "--out", str(run), "--seed", "5",
                 *MODEL_FLAGS, *TRAIN_FLAGS]) == 0
    assert main(["eval", str(run / "checkpoint"), data,
                 "--out", str(ev)]) == 0
    trained = json.load(open(run / "eval.json"))
    evaluated = json.load(open(ev / "eval.json"))
    assert trained["sequences"] > 4  # more than one training batch
    assert trained == evaluated


def test_config_snapshot_replays_the_run(tmp_path, short_run):
    # A run is reproducible from its config.json alone.
    data = short_run[0]
    run, replay = tmp_path / "run", tmp_path / "replay"
    assert main(["train", data, "--out", str(run), "--seed", "3",
                 *MODEL_FLAGS, *TRAIN_FLAGS]) == 0
    assert main(["train", data, "--config", str(run / "config.json"),
                 "--out", str(replay)]) == 0
    for name in ("loss.csv", "eval.json", "checkpoint/params.bin",
                 "checkpoint/manifest.json"):
        assert (run / name).read_bytes() == (replay / name).read_bytes(), \
            name


def test_prepare_config_snapshot_replays_the_run(tmp_path, corpus):
    run, replay = tmp_path / "run", tmp_path / "replay"
    assert main(["prepare", corpus, "--out", str(run), "--seed", "8",
                 "--set", "prepare.vocab_size=48",
                 "--set", "prepare.holdout_fraction=0.2"]) == 0
    assert main(["prepare", corpus, "--config", str(run / "config.json"),
                 "--out", str(replay)]) == 0
    for name in ("vocab.txt", "train-0000.bin", "heldout.bin"):
        assert (run / name).read_bytes() == (replay / name).read_bytes(), \
            name


def test_extend_config_snapshot_replays_the_run(tmp_path, short_run):
    _, ckpt, data64 = short_run
    run, replay = tmp_path / "run", tmp_path / "replay"
    assert main(["extend", ckpt, data64, "--out", str(run), "--seed", "6",
                 "--set", "train.steps=2", "--set", "train.batch_size=2",
                 "--set", "train.peak_lr=3e-4"]) == 0
    assert main(["extend", ckpt, data64, "--config",
                 str(run / "config.json"), "--out", str(replay)]) == 0
    for name in ("loss.csv", "checkpoint/params.bin"):
        assert (run / name).read_bytes() == (replay / name).read_bytes(), \
            name


EXTEND_FLAGS = ["--set", "train.steps=2", "--set", "train.batch_size=2"]


def test_unseeded_extend_trains_the_api_default_run(tmp_path, short_run):
    # Without --seed the CLI leaves the seed to load_extension, the
    # checkpoint's seed (0 here) + 1, and records the seed it used.
    _, ckpt, data64 = short_run
    cli_run, api_run = tmp_path / "cli", tmp_path / "api"
    assert main(["extend", ckpt, data64, "--out", str(cli_run),
                 *EXTEND_FLAGS]) == 0
    ids, labels = load_split([os.path.join(data64, "train-0000.bin")])
    continue_pretrain(ckpt, 64, ids, labels, 2, 1e-4, str(api_run),
                      batch_size=2)
    assert ((cli_run / "loss.csv").read_bytes()
            == (api_run / "loss.csv").read_bytes())
    assert json.loads((cli_run / "config.json").read_text())["seed"] == 1


def test_unseeded_extend_config_snapshot_replays_the_run(tmp_path,
                                                         short_run):
    _, ckpt, data64 = short_run
    run, replay = tmp_path / "run", tmp_path / "replay"
    assert main(["extend", ckpt, data64, "--out", str(run),
                 *EXTEND_FLAGS]) == 0
    assert main(["extend", ckpt, data64, "--config",
                 str(run / "config.json"), "--out", str(replay)]) == 0
    for name in ("loss.csv", "checkpoint/params.bin"):
        assert (run / name).read_bytes() == (replay / name).read_bytes(), \
            name


def shared_config(train_section):
    return {"seed": 5,
            "prepare": {"vocab_size": 64, "seq_len": 64},
            "model": {"d_model": 16, "n_state": 4, "n_layers": 1,
                      "dropout": 0.0},
            "train": train_section,
            "lengths": [256]}


def shared_config_commands(corpus, short_run):
    data, ckpt, data64 = short_run
    return {"prepare": ["prepare", corpus],
            "train": ["train", data],
            "extend": ["extend", ckpt, data64],
            "eval": ["eval", ckpt, data],
            "dump-kernels": ["dump-kernels", ckpt],
            "flops": ["flops"]}


def test_one_config_file_serves_every_command(tmp_path, corpus, short_run):
    # Each command takes the settings it reads from a shared file and
    # records those alone.
    cfg_path = tmp_path / "shared.json"
    cfg_path.write_text(json.dumps(shared_config(
        {"steps": 2, "batch_size": 4, "peak_lr": 1e-3,
         "warmup_frac": 0.05})))
    model = shared_config({})["model"]
    expected = {
        "prepare": {"seed": 5,
                    "prepare": {"vocab_size": 64, "seq_len": 64}},
        "train": {"seed": 5, "model": model,
                  "train": {"steps": 2, "batch_size": 4, "peak_lr": 1e-3,
                            "warmup_frac": 0.05}},
        "extend": {"seed": 5,
                   "train": {"steps": 2, "batch_size": 4, "peak_lr": 1e-3}},
        "eval": {},
        "dump-kernels": {},
        "flops": {"lengths": [256]},
    }
    for command, argv in shared_config_commands(corpus, short_run).items():
        out = tmp_path / command
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(out)]) == 0, command
        snapshot = json.loads((out / "config.json").read_text())
        for key in ("command", "out", "inputs"):
            del snapshot[key]
        assert snapshot == expected[command], command


def test_misspelled_key_in_shared_config_is_refused(tmp_path, corpus,
                                                     short_run, capsys):
    cfg_path = tmp_path / "shared.json"
    cfg_path.write_text(json.dumps(shared_config(
        {"stpes": 2, "batch_size": 4})))
    for command, argv in shared_config_commands(corpus, short_run).items():
        out = tmp_path / command
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(out)]) == 1, command
        assert not out.exists(), command
        err = capsys.readouterr().err
        assert "train.stpes" in err and err.count("\n") == 1, err


def test_train_missing_data_fails(tmp_path, capsys):
    assert main(["train", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "run")]) == 1
    assert "vocab.txt" in capsys.readouterr().err


def test_train_refuses_a_model_whose_state_cannot_fit(tmp_path, short_run,
                                                     monkeypatch, capsys):
    data = short_run[0]
    argv = ["train", data, *MODEL_FLAGS, *TRAIN_FLAGS]
    vocab_size = len(Vocab.load(os.path.join(data, "vocab.txt")))

    def state_bytes(**model):
        # 4 float64 arrays per parameter: the parameter, its gradient
        # and AdamW's two moments.
        cfg = ModelConfig(vocab_size=vocab_size, max_len=32, **model)
        return 32 * param_count(cfg)["total"]

    need = state_bytes(d_model=16, n_state=4, n_layers=1, dropout=0.0)
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    out = tmp_path / "too-big"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{need / 1e9:.2f} GB" in err, err
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert main(argv + ["--out", str(tmp_path / "fits")]) == 0
    # The paper's default model, 315M parameters at this vocabulary.
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 << 30)
    assert main(["train", data, "--out", str(out)]) == 1
    assert not out.exists()
    assert f"needs {state_bytes() / 1e9:.2f} GB" in capsys.readouterr().err


def test_state_check_is_skipped_without_a_memory_figure(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(cli.os, "sysconf", unknown)
    assert cli._physical_memory() is None
    cli._check_state_fits(ModelConfig())


def test_eval_missing_checkpoint_fails(tmp_path, corpus, capsys):
    data = prepared_dir(tmp_path, corpus)
    assert main(["eval", str(tmp_path / "nockpt"), data,
                 "--out", str(tmp_path / "e")]) == 1
    assert "error:" in capsys.readouterr().err


def test_dump_kernels_rejects_attention_checkpoint(tmp_path, corpus,
                                                   capsys):
    data = prepared_dir(tmp_path, corpus)
    run = str(tmp_path / "attn")
    assert main(["train", data, "--out", run,
                 "--set", "model.arch=stacked",
                 "--set", "model.routing=attention",
                 "--set", "model.n_heads=4",
                 *MODEL_FLAGS[:2], "--set", "model.n_layers=1",
                 "--set", "model.dropout=0.0", *TRAIN_FLAGS]) == 0
    assert main(["dump-kernels", os.path.join(run, "checkpoint"),
                 "--out", str(tmp_path / "d")]) == 1
    assert "no kernels" in capsys.readouterr().err


def test_flops_totals_table(tmp_path, capsys):
    out = str(tmp_path / "flops")
    assert main(["flops", "--out", out]) == 0
    lines = open(os.path.join(out, "flops.csv")).read().splitlines()
    totals = [line for line in lines[1:] if ",total," in line]
    assert len(totals) == 8
    printed = capsys.readouterr().out
    assert printed.count("\n") >= 5
    assert "ratio" in printed

    short = str(tmp_path / "short")
    assert main(["flops", "--out", short, "--set", "lengths=256"]) == 0
    lines = open(os.path.join(short, "flops.csv")).read().splitlines()
    assert len([line for line in lines if ",total," in line]) == 2


def test_config_file_and_override_precedence(tmp_path, corpus):
    cfg_path = str(tmp_path / "cfg.json")
    json.dump({"seed": 9, "prepare": {"vocab_size": 32, "seq_len": 16}},
              open(cfg_path, "w"))
    out = str(tmp_path / "data")
    assert main(["prepare", corpus, "--out", out, "--config", cfg_path,
                 "--set", "prepare.vocab_size=48"]) == 0
    snapshot = json.load(open(os.path.join(out, "config.json")))
    assert snapshot["seed"] == 9
    assert snapshot["prepare"]["vocab_size"] == 48
    assert snapshot["prepare"]["seq_len"] == 16
    assert len(Vocab.load(os.path.join(out, "vocab.txt"))) <= 48

    out2 = str(tmp_path / "data2")
    assert main(["prepare", corpus, "--out", out2, "--config", cfg_path,
                 "--seed", "77"]) == 0
    assert json.load(open(os.path.join(out2, "config.json")))["seed"] == 77


def test_bad_set_syntax_fails(tmp_path, capsys):
    assert main(["flops", "--out", str(tmp_path / "f"),
                 "--set", "novalue"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_bad_config_file_fails(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    open(cfg_path, "w").write("[1, 2]")
    assert main(["flops", "--out", str(tmp_path / "f"),
                 "--config", cfg_path]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_train_seed_in_config_file_is_refused(tmp_path, short_run, capsys):
    # The run's seed is the top-level one; a train.seed would be recorded
    # in config.json without shaping the run.
    data = short_run[0]
    cfg_path = str(tmp_path / "cfg.json")
    json.dump({"train": {"seed": 5}}, open(cfg_path, "w"))
    out = tmp_path / "out"
    assert main(["train", data, "--out", str(out), "--config", cfg_path,
                 *MODEL_FLAGS]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--seed" in err and err.count("\n") == 1, err
