"""Training loop behavior: determinism, resume, artifacts, evaluation."""

import os
import platform
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    mlm_head,
    tape_nodes,
    traced_peak,
    unblocked_cross_entropy,
)

import gatedssm.numerics.tensor as T
import gatedssm.pretrain.trainer as trainer
from gatedssm.checkpoint import STATE_NAME, load_checkpoint, save_checkpoint
from gatedssm.model import ModelConfig, forward_mlm, init_model
from gatedssm.numerics import Rng, backward, derive_seed, no_grad
from gatedssm.pretrain import (
    FINAL_CHECKPOINT,
    LOSS_CSV_NAME,
    N_SPECIAL,
    PAD,
    TrainConfig,
    Vocab,
    build_vocab,
    chunk_corpus,
    continue_pretrain,
    eval_mlm,
    generate_corpus,
    load_run_checkpoint,
    load_split,
    mask_tokens,
    masking_stats,
    prepare_shards,
    train_mlm,
)
from gatedssm.pretrain.optim import AdamW
from gatedssm.pretrain.trainer import _batch_indices
from gatedssm.pretrain.vocab import TokenizedCorpus

VOCAB = 60


def toy_cfg(**kw) -> ModelConfig:
    base = dict(arch="gated", routing="ssm", n_layers=2, d_model=32,
                n_state=8, max_len=16, vocab_size=VOCAB, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def toy_data(n_rows: int, seq_len: int = 16, seed: int = 0):
    ids = Rng(derive_seed(seed, "data")).integers(
        N_SPECIAL, VOCAB, (n_rows, seq_len))
    return mask_tokens(ids, 0.15, Rng(derive_seed(seed, "mask")), VOCAB)


# ---------------------------------------------------------------------------
# corpus chunking and shard preparation


def test_chunk_corpus_pads_tail():
    corpus = TokenizedCorpus(["a b c d e f g h i j"])
    v = build_vocab(corpus, max_size=32)
    rows = chunk_corpus(corpus, v, seq_len=4)
    assert rows.shape == (3, 4)
    assert np.all(rows[:2] >= N_SPECIAL)
    assert list(rows[2, 2:]) == [0, 0]


def test_chunk_corpus_does_not_mix_documents():
    corpus = TokenizedCorpus(["a b c", "d e"])
    v = build_vocab(corpus, max_size=32)
    rows = chunk_corpus(corpus, v, seq_len=4)
    assert rows.shape == (2, 4)
    assert rows[0, 3] == 0 and np.all(rows[1, 2:] == 0)


def _reference_chunks(lines, vocab, seq_len):
    """chunk_corpus written as one Python step per token: the oracle."""
    rows = []
    for line in lines:
        ids = vocab.encode(line.split())
        for start in range(0, len(ids), seq_len):
            piece = ids[start:start + seq_len]
            rows.append(piece + [PAD] * (seq_len - len(piece)))
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("lines,seq_len", [
    (["a b c d", "", "e f g h i j k l", "  ", "m"], 4),
    (["a b zz c", "yy a", "b b b b b b"], 3),
    (["a b c d e f", "g h"], 2),
    (["a", "b c", "d e f"], 1),
    (["a b c", "d"], 16),
], ids=["empty-lines", "unknown-words", "exact-multiples", "seq-len-1",
        "longer-than-docs"])
def test_chunk_corpus_matches_per_token_oracle(lines, seq_len):
    # The vocabulary leaves out some words, which encode to UNK.
    vocab = build_vocab(TokenizedCorpus(["a a b b c d e f g h i j k l m"]),
                        max_size=9)
    got = chunk_corpus(TokenizedCorpus(lines), vocab, seq_len)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_chunks(lines, vocab, seq_len))


def test_chunk_corpus_matches_oracle_on_generated_corpus(tmp_path):
    path = str(tmp_path / "c.txt")
    generate_corpus(path, n_docs=30, doc_len=100, n_words=300, seed=2)
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f]
    corpus = TokenizedCorpus(lines)
    vocab = build_vocab(corpus, 200)
    for seq_len in (7, 50, 100, 128):
        assert np.array_equal(chunk_corpus(corpus, vocab, seq_len),
                              _reference_chunks(lines, vocab, seq_len))


def test_chunk_corpus_rejects_bad_input():
    vocab = build_vocab(TokenizedCorpus(["a b"]), max_size=8)
    with pytest.raises(ValueError, match="seq_len"):
        chunk_corpus(TokenizedCorpus(["a b"]), vocab, 0)
    with pytest.raises(ValueError, match="no token chunks"):
        chunk_corpus(TokenizedCorpus(["", " "]), vocab, 4)


def test_masking_stats_hand_example():
    ids = np.array([[0, 4, 7, 8, 9, 10]])
    labels = np.array([[-1, -1, 7, 12, -1, 13]])
    # position 2: [MASK]=4 would be id 4; here ids show 7==label: kept.
    # position 3: visible 8 != label 12: randomized.
    # position 5: visible 10 != 13: randomized.
    s = masking_stats(ids, labels)
    assert s["maskable_positions"] == 4
    assert s["selected"] == 3
    assert s["kept"] == 1
    assert s["randomized"] == 2
    assert s["masked"] == 0
    assert s["selected_fraction"] == pytest.approx(0.75)


def test_prepare_shards_outputs_and_determinism(tmp_path):
    corpus = str(tmp_path / "corpus.txt")
    generate_corpus(corpus, n_docs=30, doc_len=120, n_words=48, seed=9)

    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        info = prepare_shards(corpus, out, vocab_size=64, seq_len=16,
                              seed=5)
        outs.append((out, info))
    info = outs[0][1]
    assert [os.path.basename(p) for p in info["train_paths"]] == [
        "train-0000.bin"]
    assert len(info["heldout_paths"]) == 1
    assert info["vocab_size"] <= 64
    assert 0.13 <= info["stats"]["selected_fraction"] <= 0.17
    for name in sorted(os.listdir(outs[0][0])):
        a = open(os.path.join(outs[0][0], name), "rb").read()
        b = open(os.path.join(outs[1][0], name), "rb").read()
        assert a == b, name

    ids, labels = load_split(info["train_paths"])
    h_ids, _ = load_split(info["heldout_paths"])
    assert ids.shape[1] == 16
    assert len(ids) + len(h_ids) == info["n_chunks"]
    # Holdout takes every 10th chunk by default.
    assert len(h_ids) == pytest.approx(info["n_chunks"] / 10, abs=1)
    assert labels.max() >= N_SPECIAL


def test_prepare_shards_stats_are_masking_stats_of_both_shards(tmp_path):
    corpus = str(tmp_path / "corpus.txt")
    generate_corpus(corpus, n_docs=30, doc_len=120, n_words=48, seed=9)
    info = prepare_shards(corpus, str(tmp_path / "out"), vocab_size=64,
                          seq_len=16, seed=5, holdout_fraction=0.3)
    ids, labels = load_split(info["train_paths"] + info["heldout_paths"])
    assert info["stats"] == masking_stats(ids, labels)


def test_prepare_shards_different_seed_differs(tmp_path):
    corpus = str(tmp_path / "c.txt")
    generate_corpus(corpus, n_docs=5, doc_len=100, n_words=32, seed=1)
    a = prepare_shards(corpus, str(tmp_path / "a"), vocab_size=40,
                       seq_len=8, seed=1)
    b = prepare_shards(corpus, str(tmp_path / "b"), vocab_size=40,
                       seq_len=8, seed=2)
    raw_a = open(a["train_paths"][0], "rb").read()
    raw_b = open(b["train_paths"][0], "rb").read()
    assert raw_a != raw_b


@pytest.mark.parametrize("fraction", [0.15, 0.3, 0.4, 0.45])
def test_prepare_shards_realizes_holdout_fraction(tmp_path, fraction):
    corpus = str(tmp_path / "c.txt")
    generate_corpus(corpus, n_docs=30, doc_len=120, n_words=48, seed=9)
    info = prepare_shards(corpus, str(tmp_path / "out"), vocab_size=64,
                          seq_len=8, holdout_fraction=fraction)
    h_ids, _ = load_split(info["heldout_paths"])
    assert abs(len(h_ids) - fraction * info["n_chunks"]) <= 1


@pytest.mark.parametrize("key,value", [
    ("holdout_fraction", 0.7),
    ("holdout_fraction", 1.0), ("holdout_fraction", -0.1),
    ("seq_len", 0), ("seq_len", -4), ("mask_rate", 1.5), ("mask_rate", 0.0),
    ("vocab_size", 3), ("seq_len", 8.5), ("seq_len", True),
    ("vocab_size", 40.5), ("seed", 2.5), ("mask_rate", "0.15"),
    ("holdout_fraction", False),
])
def test_prepare_shards_rejects_bad_split(tmp_path, key, value):
    corpus = str(tmp_path / "c.txt")
    generate_corpus(corpus, n_docs=5, doc_len=100, n_words=32, seed=1)
    out = str(tmp_path / "out")
    options = dict(vocab_size=40, seq_len=8)
    options[key] = value
    with pytest.raises(ValueError, match=key):
        prepare_shards(corpus, out, **options)
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# batch order


def test_batch_indices_cover_each_epoch():
    seen = [int(i) for s in range(5)
            for i in _batch_indices(3, s, 2, 10)]
    assert sorted(seen) == list(range(10))
    again = [int(i) for s in range(5)
             for i in _batch_indices(3, s, 2, 10)]
    assert seen == again
    # Second epoch reshuffles.
    epoch2 = [int(i) for s in range(5, 10)
              for i in _batch_indices(3, s, 2, 10)]
    assert sorted(epoch2) == list(range(10))
    assert epoch2 != seen


def per_element_batch_indices(seed, step, batch_size, count):
    """The original per-element loop, kept as the batch-order oracle."""
    perm_cache = {}
    out = np.empty(batch_size, dtype=np.int64)
    for i in range(batch_size):
        pos = step * batch_size + i
        epoch = pos // count
        perm = perm_cache.get(epoch)
        if perm is None:
            perm = Rng(derive_seed(seed, "order", epoch)).permutation(count)
            perm_cache[epoch] = perm
        out[i] = perm[pos % count]
    return out


@pytest.mark.parametrize("seed,batch_size,count", [
    (3, 2, 10), (0, 7, 10), (4, 3, 97),
    # batch_size > count: one step spans three or more epochs.
    (5, 16, 5), (9, 25, 3), (1, 4, 1),
])
def test_batch_indices_match_per_element_loop(seed, batch_size, count):
    for step in (0, 1, 2, 3, 7, 40):
        got = _batch_indices(seed, step, batch_size, count)
        want = per_element_batch_indices(seed, step, batch_size, count)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# the loop itself


def test_initial_loss_near_uniform_and_decreases(tmp_path):
    ids, labels = toy_data(64, seed=2)
    cfg = toy_cfg()
    tc = TrainConfig(steps=60, batch_size=8, peak_lr=3e-3,
                     warmup_frac=0.1, seed=11)
    history = train_mlm(cfg, tc, ids, labels, str(tmp_path / "run"))
    assert len(history) == 60
    first = history[0][2]
    assert first == pytest.approx(np.log(VOCAB), rel=0.05)
    early = np.mean([h[2] for h in history[:10]])
    late = np.mean([h[2] for h in history[-10:]])
    assert late < early


def test_loss_csv_matches_history(tmp_path):
    ids, labels = toy_data(16, seed=3)
    out = str(tmp_path / "run")
    tc = TrainConfig(steps=4, batch_size=4, peak_lr=1e-3, seed=1)
    history = train_mlm(toy_cfg(), tc, ids, labels, out)
    lines = open(os.path.join(out, LOSS_CSV_NAME)).read().splitlines()
    assert lines[0] == "step,lr,loss"
    assert len(lines) == 5
    for (step, lr, loss), line in zip(history, lines[1:]):
        s, l, v = line.split(",")
        assert int(s) == step
        assert float(l) == lr
        assert float(v) == loss  # repr round-trips exactly


def test_final_checkpoint_reproduces_eval(tmp_path):
    ids, labels = toy_data(24, seed=4)
    out = str(tmp_path / "run")
    tc = TrainConfig(steps=5, batch_size=6, peak_lr=1e-3, seed=2)
    cfg = toy_cfg()
    train_mlm(cfg, tc, ids, labels, out)
    params, _, meta = load_run_checkpoint(
        os.path.join(out, FINAL_CHECKPOINT))
    assert meta["step"] == 5
    assert params.config == cfg
    held_ids, held_labels = toy_data(8, seed=5)
    loss1, ppl1 = eval_mlm(cfg, params, held_ids, held_labels)
    params2, _, _ = load_run_checkpoint(os.path.join(out, FINAL_CHECKPOINT))
    loss2, ppl2 = eval_mlm(cfg, params2, held_ids, held_labels)
    assert loss1 == loss2
    assert ppl1 == pytest.approx(np.exp(loss1))


def store_config_key(ckpt: str, config: str, key: str, value) -> None:
    """Rewrite a run checkpoint's `meta[config]` with `key` set to
    `value`."""
    entries, meta = load_checkpoint(ckpt)
    meta[config][key] = value
    save_checkpoint(ckpt, entries.items(), meta=meta)


def test_resume_is_bit_exact(tmp_path):
    # Train 10 steps, resume from the step-5 checkpoint, and compare the
    # two runs.
    ids, labels = toy_data(32, seed=6)
    cfg = toy_cfg()
    tc = TrainConfig(steps=10, batch_size=4, peak_lr=2e-3, seed=7,
                     checkpoint_every=5)
    full_dir = str(tmp_path / "full")
    full = train_mlm(cfg, tc, ids, labels, full_dir)
    mid = os.path.join(full_dir, "checkpoint-step-5")
    assert os.path.isdir(mid)
    assert not os.path.isdir(os.path.join(full_dir, "checkpoint-step-10"))

    params, optimizer, meta = load_run_checkpoint(mid)
    resumed_dir = str(tmp_path / "resumed")
    resumed = train_mlm(ModelConfig(**meta["model_config"]),
                        TrainConfig(**meta["train_config"]),
                        ids, labels, resumed_dir,
                        params=params, optimizer=optimizer,
                        start_step=meta["step"])
    assert resumed == full[5:]
    a = open(os.path.join(full_dir, FINAL_CHECKPOINT, STATE_NAME),
             "rb").read()
    b = open(os.path.join(resumed_dir, FINAL_CHECKPOINT, STATE_NAME),
             "rb").read()
    assert a == b


@pytest.mark.parametrize("key,value", [("clip_norm", 1.0),
                                       ("weight_decay", 0.05)])
def test_load_run_checkpoint_refuses_another_optimizer_recipe(tmp_path, key,
                                                              value):
    # TrainConfig had these fields while AdamW took options.
    ckpt = checkpointed_toy_run(tmp_path)
    store_config_key(ckpt, "train_config", key, value)
    with pytest.raises(ValueError, match=(
            rf"^checkpoint train_config has unknown key '{key}'$")) as err:
        load_run_checkpoint(ckpt)
    assert "\n" not in str(err.value)


# The first three keys are fields that ModelConfig once had.
@pytest.mark.parametrize("key,value", [
    ("use_bias", True), ("intermediate", 64),
    ("use_position_embeddings", True), ("bogus", 1),
], ids=["use-bias-true", "intermediate-mismatch",
        "ssm-with-position-embeddings", "unknown-key"])
def test_load_run_checkpoint_refuses_model_config_key(tmp_path, key, value):
    ckpt = checkpointed_toy_run(tmp_path)
    store_config_key(ckpt, "model_config", key, value)
    with pytest.raises(ValueError, match=(
            rf"^checkpoint model_config has unknown key '{key}'$")) as err:
        load_run_checkpoint(ckpt)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("config,key,message", [
    ("train_config", None,
     "{ckpt} is not a run checkpoint: its meta has no train_config"),
    ("model_config", "d_model", "checkpoint model_config lacks 'd_model'"),
    ("train_config", "seed", "checkpoint train_config lacks 'seed'"),
])
def test_load_run_checkpoint_refuses_an_incomplete_run_meta(tmp_path, config,
                                                            key, message):
    ckpt = checkpointed_toy_run(tmp_path)
    entries, meta = load_checkpoint(ckpt)
    if key is None:
        del meta[config]
    else:
        del meta[config][key]
    save_checkpoint(ckpt, entries.items(), meta=meta)
    with pytest.raises(ValueError, match=re.escape(message.format(ckpt=ckpt))
                       + "$"):
        load_run_checkpoint(ckpt)


def test_resume_into_same_dir_keeps_loss_csv_identical(tmp_path):
    # A run that got past its checkpoint before it stopped resumes into
    # its own out dir; no step may be logged twice.
    ids, labels = toy_data(32, seed=6)
    cfg = toy_cfg()
    tc = TrainConfig(steps=10, batch_size=4, peak_lr=2e-3, seed=7,
                     checkpoint_every=5)
    out = str(tmp_path / "run")
    train_mlm(cfg, tc, ids, labels, out)
    csv_path = os.path.join(out, LOSS_CSV_NAME)
    full = open(csv_path, "rb").read()

    params, optimizer, meta = load_run_checkpoint(
        os.path.join(out, "checkpoint-step-5"))
    train_mlm(cfg, tc, ids, labels, out, params=params,
              optimizer=optimizer, start_step=meta["step"])
    assert open(csv_path, "rb").read() == full


def abort_after_poisoning(tmp_path, poison, culprit):
    """Train 3 steps, set token-table row 0 of the step-1 checkpoint to
    poison, resume, and check the one-line abort names the step, its lr
    and culprit, and that the checkpoint survives."""
    ids, labels = toy_data(16, seed=8)
    cfg = toy_cfg(dropout=0.0)
    out = str(tmp_path / "run")
    tc = TrainConfig(steps=3, batch_size=4, seed=3, checkpoint_every=1)
    lr = train_mlm(cfg, tc, ids, labels, out)[1][1]
    kept = os.path.join(out, "checkpoint-step-1")
    assert os.path.isdir(kept)

    params, optimizer, _ = load_run_checkpoint(kept)
    params.embeddings.token_table.data[0] = poison
    want = re.escape(f"non-finite loss at step 1 (lr {lr!r}); {culprit};")
    with pytest.raises(RuntimeError, match=want) as err:
        train_mlm(cfg, tc, ids, labels, out, params=params,
                  optimizer=optimizer, start_step=1)
    assert "\n" not in str(err.value)
    assert os.path.isdir(kept)
    reload_params, _, _ = load_run_checkpoint(kept)
    assert np.isfinite(reload_params.embeddings.token_table.data).all()


def test_nonfinite_loss_aborts_and_keeps_checkpoint(tmp_path):
    abort_after_poisoning(
        tmp_path, np.nan,
        "parameter embeddings.token_table holds a non-finite value")


def test_nonfinite_loss_from_finite_parameters_says_so(tmp_path):
    # Weights this large are finite, but the logits overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        abort_after_poisoning(tmp_path, 1e308, "every parameter is finite")


@pytest.mark.parametrize("arch,routing", [("gated", "ssm"),
                                          ("stacked", "attention")])
def test_load_run_checkpoint_restores_saved_state_exactly(tmp_path, arch,
                                                          routing):
    ids, labels = toy_data(16, seed=12)
    cfg = toy_cfg(arch=arch, routing=routing)
    params = init_model(cfg, Rng(21))
    optimizer = AdamW(params.trainable_parameters())
    out = str(tmp_path / "run")
    train_mlm(cfg, TrainConfig(steps=2, batch_size=4, seed=5),
              ids, labels, out, params=params, optimizer=optimizer)
    loaded, loaded_opt, _ = load_run_checkpoint(
        os.path.join(out, FINAL_CHECKPOINT))
    saved = list(params.named_parameters())
    got = list(loaded.named_parameters())
    assert [n for n, _ in got] == [n for n, _ in saved]
    for (name, a), (_, b) in zip(saved, got):
        assert b.data.shape == a.data.shape, name
        assert b.data.tobytes() == a.data.tobytes(), name
        assert b.requires_grad == a.requires_grad, name
    saved_state = list(optimizer.state_entries())
    got_state = list(loaded_opt.state_entries())
    assert [n for n, _ in got_state] == [n for n, _ in saved_state]
    for (name, a), (_, b) in zip(saved_state, got_state):
        assert b.tobytes() == a.tobytes(), name
    assert loaded_opt.step_count == optimizer.step_count == 2


def test_load_run_checkpoint_rejects_a_misshapen_moment(tmp_path):
    ckpt = checkpointed_toy_run(tmp_path)
    entries, meta = load_checkpoint(ckpt)
    name = next(k for k in entries if k.startswith("adam_m."))
    entries[name] = np.full(1, 5.0)
    edited = str(tmp_path / "edited")
    save_checkpoint(edited, entries.items(), meta=meta)
    with pytest.raises(ValueError, match=re.escape(
            f"shape mismatch for {name!r}: checkpoint (1,)")):
        load_run_checkpoint(edited)


def test_load_run_checkpoint_refuses_a_checkpoint_without_moments(
        tmp_path):
    ckpt = checkpointed_toy_run(tmp_path)
    entries, meta = load_checkpoint(ckpt)
    edited = str(tmp_path / "edited")
    save_checkpoint(edited, [(k, a) for k, a in entries.items()
                             if not k.startswith("adam_")], meta=meta)
    with pytest.raises(ValueError, match="checkpoint is missing entry "
                                         "'adam_m.embeddings.token_table'"
                       ) as err:
        load_run_checkpoint(edited)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("value,message", [
    (-1, "optimizer_steps must be at least 0, got -1"),
    (2.5, "optimizer_steps must be an integer, got 2.5"),
    (True, "optimizer_steps must be an integer, got True"),
    (None, "optimizer_steps must be an integer, got None"),
], ids=["negative", "float", "bool", "missing"])
def test_load_run_checkpoint_refuses_bad_optimizer_steps(tmp_path, value,
                                                         message):
    ckpt = checkpointed_toy_run(tmp_path)
    entries, meta = load_checkpoint(ckpt)
    if value is None:
        del meta["optimizer_steps"]
    else:
        meta["optimizer_steps"] = value
    save_checkpoint(ckpt, entries.items(), meta=meta)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_run_checkpoint(ckpt)


def test_load_run_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    ckpt = checkpointed_toy_run(tmp_path)
    calls = []
    for method in ("normal", "uniform"):
        def counted(self, *args, _real=getattr(Rng, method), **kwargs):
            calls.append(_real.__name__)
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(Rng, method, counted)
    load_run_checkpoint(ckpt)
    assert calls == []
    # The counter does see the draws of a fresh initialization.
    init_model(toy_cfg(), Rng(0))
    assert {"normal", "uniform"} <= set(calls)


def test_eval_uniform_baseline_and_validation():
    cfg = toy_cfg(dropout=0.0)
    params = init_model(cfg, Rng(20))
    ids, labels = toy_data(32, seed=9)
    loss, ppl = eval_mlm(cfg, params, ids, labels)
    assert ppl == pytest.approx(VOCAB, rel=0.10)
    with pytest.raises(ValueError, match="no labeled"):
        eval_mlm(cfg, params, ids, np.full_like(labels, -1))


@pytest.mark.parametrize("bad", [-2, -5])
def test_eval_and_training_reject_labels_below_minus_one(bad):
    # eval_mlm weights each batch by its labeled count and the loss
    # averages over the same positions; another negative label would
    # have counted in one and not the other.
    cfg = toy_cfg(dropout=0.0)
    params = init_model(cfg, Rng(20))
    ids, labels = toy_data(8, seed=9)
    labels = labels.copy()
    labels[5, labels[5] == -1] = bad
    message = f"^labels must be class ids or -1 \\(unlabeled\\), got {bad}$"
    with pytest.raises(ValueError, match=message):
        eval_mlm(cfg, params, ids, labels, batch_size=4)
    with pytest.raises(ValueError, match=message):
        forward_mlm(ids, labels, cfg, params, train=True, rng=Rng(1))


def test_eval_rejects_float_labels():
    cfg = toy_cfg(dropout=0.0)
    params = init_model(cfg, Rng(20))
    ids, labels = toy_data(8, seed=9)
    with pytest.raises(ValueError, match="^labels must be integers"):
        eval_mlm(cfg, params, ids, labels.astype(np.float64))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_eval_rejects_nonpositive_batch_size(batch_size, monkeypatch):
    cfg = toy_cfg(dropout=0.0)
    params = init_model(cfg, Rng(20))
    ids, labels = toy_data(32, seed=9)
    calls = []
    monkeypatch.setattr(trainer, "forward_mlm",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError,
                       match=f"^batch_size must be >= 1, got {batch_size}$"):
        eval_mlm(cfg, params, ids, labels, batch_size=batch_size)
    assert calls == []


def full_logits_loss(ids, labels, cfg, params, *, train, rng):
    """The oracle for `forward_mlm`, which runs the head on labeled
    positions only: the head on every position by composition, the tied
    logits from `matmul`, and the masked loss and its logit gradient G
    in plain numpy. The returned tensor carries the numpy loss as its
    value and backpropagates G: it is sum(logits * G) shifted by a
    constant."""
    head = mlm_head(ids, cfg, params, train=train, rng=rng)
    logits = T.matmul(head, T.transpose(params.embeddings.token_table))
    rows = T.labeled_rows(labels)
    loss, g_rows = unblocked_cross_entropy(logits.data[rows],
                                           labels.reshape(-1)[rows])
    g = np.zeros(logits.shape)
    g[rows] = g_rows
    surrogate = T.tsum(T.mul(logits, g))
    return T.add(surrogate, float(loss - surrogate.data))


def loss_and_grads(loss_fn, cfg, params, ids, labels):
    for _, t in params.trainable_parameters():
        t.zero_grad()
    loss = loss_fn(ids, labels, cfg, params, train=True, rng=Rng(12))
    backward(loss)
    return float(loss.data), {n: t.grad.copy()
                              for n, t in params.trainable_parameters()}


@pytest.mark.parametrize("arch,routing", [
    ("gated", "ssm"), ("gated", "attention"),
    ("stacked", "ssm"), ("stacked", "attention")])
def test_batch_loss_matches_full_logits(arch, routing):
    cfg = toy_cfg(arch=arch, routing=routing, n_heads=2)
    params = init_model(cfg, Rng(21))
    ids, labels = toy_data(4, seed=12)
    want, want_grads = loss_and_grads(full_logits_loss, cfg, params, ids,
                                      labels)
    got, got_grads = loss_and_grads(forward_mlm, cfg, params, ids, labels)
    assert abs(got - want) <= 1e-12 * abs(want)
    for name, g in want_grads.items():
        err = np.max(np.abs(got_grads[name] - g))
        assert err <= 1e-12 * np.max(np.abs(g)), (name, err)


def test_batch_loss_without_labels_raises():
    cfg = toy_cfg()
    params = init_model(cfg, Rng(22))
    ids, labels = toy_data(2, seed=13)
    with pytest.raises(ValueError, match="no labeled positions"):
        forward_mlm(ids, np.full_like(labels, -1), cfg, params)


def test_one_forward_per_batch(tmp_path, monkeypatch):
    # Profilers wrap `trainer.forward_mlm` and divide by its call count.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return forward_mlm(*args, **kwargs)

    monkeypatch.setattr(trainer, "forward_mlm", counted)
    cfg = toy_cfg()
    ids, labels = toy_data(12, seed=14)
    tc = TrainConfig(steps=3, batch_size=4, seed=3)
    train_mlm(cfg, tc, ids, labels, str(tmp_path / "run"))
    assert len(calls) == 3
    params = init_model(cfg, Rng(23))
    eval_mlm(cfg, params, ids, labels, batch_size=4)
    assert len(calls) == 6


def bert_vocab_case(seed: int):
    """A one-layer d=16 attention model over BERT's 30522-token
    vocabulary and a (4, 64) batch with about half its positions
    labeled."""
    cfg = ModelConfig(arch="stacked", routing="attention", n_layers=1,
                      d_model=16, n_heads=2, max_len=64, vocab_size=30522,
                      dropout=0.1)
    rng = Rng(seed)
    ids = rng.integers(N_SPECIAL, cfg.vocab_size, (4, 64))
    labels = np.where(rng.uniform(ids.shape) < 0.5, ids, -1)
    return cfg, init_model(cfg, rng), ids, labels


def test_eval_holds_no_vocabulary_wide_array():
    cfg, params, ids, labels = bert_vocab_case(24)
    rows = T.labeled_rows(labels)
    buffer = rows.size * cfg.vocab_size * 8
    assert rows.size > T.HEAD_BLOCK // cfg.vocab_size
    peak = traced_peak(lambda: eval_mlm(cfg, params, ids, labels,
                                        batch_size=4))
    assert peak < buffer, (peak, buffer)
    # A recorded loss keeps one such array for its backward. It runs the
    # same GEMMs and passes, so its value is the unrecorded one's bits.
    kept = []
    assert traced_peak(lambda: kept.append(
        forward_mlm(ids, labels, cfg, params))) > buffer
    with no_grad():
        evaluated = forward_mlm(ids, labels, cfg, params)
    assert float(kept[0].data) == float(evaluated.data)


def test_training_step_records_one_loss_node_and_no_table_product():
    # The loss forms the tied head's logits itself, so no matmul or
    # transpose of the token table is on the tape.
    cfg, params, ids, labels = bert_vocab_case(25)
    table = params.embeddings.token_table
    nodes = tape_nodes(forward_mlm(ids, labels, cfg, params, train=True,
                                   rng=Rng(1)))
    assert [n.op for n in nodes].count("masked_cross_entropy") == 1
    assert not any(n.op in ("matmul", "transpose")
                   and any(t is table for t in n.inputs) for n in nodes)


def test_later_steps_peak_no_higher_than_the_first(tmp_path):
    # Each step's backward uses up its tape. A step that still held the
    # graph of the step before would put the 3-step peak about 1.5x
    # above the 1-step one.
    cfg = toy_cfg(max_len=256)
    ids, labels = toy_data(4, seq_len=256)
    peaks = [traced_peak(lambda: train_mlm(
        cfg, TrainConfig(steps=steps, batch_size=2, seed=0), ids, labels,
        str(tmp_path / f"run-{steps}"))) for steps in (1, 3)]
    assert peaks[1] < 1.15 * peaks[0], peaks


def test_train_config_validation():
    with pytest.raises(ValueError, match="steps"):
        TrainConfig(steps=0)
    with pytest.raises(ValueError, match="schedule"):
        TrainConfig(steps=1, schedule="warm")
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(steps=1, batch_size=0)
    for frac in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="warmup_frac"):
            TrainConfig(steps=1, warmup_frac=frac)
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainConfig(steps=1, checkpoint_every=-1)
    for lr in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="peak_lr"):
            TrainConfig(steps=1, peak_lr=lr)
    for key in ("steps", "batch_size", "seed", "checkpoint_every"):
        for value in (2.5, True, 2.0):
            with pytest.raises(ValueError, match=f"^{key} must be an "
                                                 f"integer"):
                TrainConfig(**{"steps": 3, key: value})
        assert getattr(TrainConfig(**{"steps": 3, key: np.int64(3)}),
                       key) == 3
    for key in ("weight_decay", "clip_norm"):
        with pytest.raises(TypeError, match=key):
            TrainConfig(steps=1, **{key: 0.0})
    with pytest.raises(ValueError, match="schedule"):
        TrainConfig(steps=1, schedule="linear")
    for key, value in (("peak_lr", True), ("peak_lr", "1e-3"),
                       ("warmup_frac", "0.1")):
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            TrainConfig(steps=1, **{key: value})
    with pytest.raises(ValueError, match="schedule"):
        TrainConfig(steps=1, schedule=["cosine"])


def test_real_fields_accept_python_and_numpy_numbers(tmp_path):
    for value in (0, 0.1, np.float64(0.1), np.float32(0.1), np.int64(0)):
        assert ModelConfig(dropout=value).dropout == value
        assert TrainConfig(steps=1, peak_lr=value + 1).peak_lr == value + 1
    corpus = str(tmp_path / "c.txt")
    generate_corpus(corpus, n_docs=5, doc_len=100, n_words=32, seed=1)
    info = prepare_shards(corpus, str(tmp_path / "out"),
                          vocab_size=np.int64(40), seq_len=8,
                          mask_rate=np.float64(0.15), holdout_fraction=0)
    assert info["heldout_paths"] == []


# ---------------------------------------------------------------------------
# malloc policy


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the malloc policy is set on glibc only")
def test_freed_arrays_keep_their_pages():
    import resource

    def cycle_faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(2 << 20) for _ in range(4)]
        del arrays
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    trainer._keep_freed_memory()
    faults = [cycle_faults() for _ in range(3)]
    # The four 16 MB arrays span 16384 pages. glibc's default policy
    # trims them after every cycle, which then costs about 2000 faults.
    assert max(faults[1:]) < 64, faults


def _no_libc(_name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [
    _no_libc,
    lambda _name: SimpleNamespace(),
    lambda _name: SimpleNamespace(gnu_get_libc_version=None),
], ids=["oserror", "not-glibc", "no-mallopt"])
def test_malloc_policy_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(trainer.ctypes, "CDLL", cdll)
    assert trainer._keep_freed_memory() is None


def test_train_and_eval_set_the_malloc_policy(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "_keep_freed_memory",
                        lambda: calls.append(1))
    cfg = toy_cfg()
    ids, labels = toy_data(4, seed=14)
    params = init_model(cfg, Rng(23))
    eval_mlm(cfg, params, ids, labels, batch_size=4)
    train_mlm(cfg, TrainConfig(steps=1, batch_size=4), ids, labels,
              str(tmp_path / "run"), params=params)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# length extension


def checkpointed_toy_run(tmp_path, **cfg_kw):
    ids, labels = toy_data(16, seq_len=8, seed=10)
    cfg = toy_cfg(max_len=8, **cfg_kw)
    out = str(tmp_path / "base")
    tc = TrainConfig(steps=3, batch_size=4, peak_lr=1e-3, seed=4)
    train_mlm(cfg, tc, ids, labels, out)
    return os.path.join(out, FINAL_CHECKPOINT)


def test_continue_pretrain_extends_length(tmp_path):
    ckpt = checkpointed_toy_run(tmp_path)
    before, _, _ = load_run_checkpoint(ckpt)
    n_before = sum(t.data.size for _, t in before.named_parameters())

    long_ids, long_labels = toy_data(16, seq_len=16, seed=11)
    history, new_cfg = continue_pretrain(
        ckpt, 16, long_ids, long_labels, steps=3, lr=1e-4,
        out_dir=str(tmp_path / "ext"))
    assert new_cfg.max_len == 16
    assert len(history) == 3
    assert all(np.isfinite(h[2]) for h in history)
    after, _, meta = load_run_checkpoint(
        os.path.join(str(tmp_path / "ext"), FINAL_CHECKPOINT))
    assert meta["model_config"]["max_len"] == 16
    n_after = sum(t.data.size for _, t in after.named_parameters())
    assert n_after == n_before


def test_continue_pretrain_rejects_shorter_target(tmp_path):
    ckpt = checkpointed_toy_run(tmp_path)
    ids, labels = toy_data(4, seq_len=8, seed=12)
    with pytest.raises(ValueError, match="must exceed"):
        continue_pretrain(ckpt, 8, ids, labels, steps=1, lr=1e-4,
                          out_dir=str(tmp_path / "x"))


def test_continue_pretrain_rejects_position_tables(tmp_path):
    ckpt = checkpointed_toy_run(tmp_path, arch="stacked",
                                routing="attention", n_heads=4)
    ids, labels = toy_data(4, seq_len=16, seed=13)
    with pytest.raises(ValueError, match="position table"):
        continue_pretrain(ckpt, 16, ids, labels, steps=1, lr=1e-4,
                          out_dir=str(tmp_path / "x"))


def test_continue_pretrain_rejects_mismatched_data(tmp_path):
    ckpt = checkpointed_toy_run(tmp_path)
    ids, labels = toy_data(4, seq_len=12, seed=14)
    with pytest.raises(ValueError, match="length"):
        continue_pretrain(ckpt, 16, ids, labels, steps=1, lr=1e-4,
                          out_dir=str(tmp_path / "x"))
