"""End-to-end acceptance checks.

Each test pins one deliverable property of the package with fixed
tolerances:

* the recurrence and the convolution compute the same map;
* reverse-mode gradients of the full gated model match central finite
  differences for every trainable parameter;
* block parameter-count identities hold exactly and the full-size
  config lands in the expected bracket;
* the analytic cost model reproduces the reference totals, ratios, and
  the crossover where kernel routing becomes cheaper than attention;
* the forward branch is causal and the backward branch anti-causal;
* extending the sequence length changes nothing the short model could
  already see;
* both toy architectures halve held-out masked perplexity when trained;
* offline masking hits its statistical contract;
* a fixed seed reproduces shards, losses, and checkpoints bit-for-bit;
* kernel dumps expose exactly two normalized kernels per layer in the
  documented CSV schema.
"""

import hashlib
import os
import time

import numpy as np
import pytest
from conftest import boost_gated_weights, check_grads

from gatedssm.analysis import dump_kernels, flop_estimate, full_table_configs, \
    probe_causality, write_kernel_csv
from gatedssm.model import (
    ModelConfig,
    forward_mlm,
    init_model,
    param_count,
)
from gatedssm.numerics import Rng, Tensor, derive_seed, no_grad
from gatedssm.numerics import tensor as T
from gatedssm.pretrain import (
    MASK,
    TrainConfig,
    eval_mlm,
    generate_corpus,
    load_split,
    mask_tokens,
    prepare_shards,
    train_mlm,
)
from gatedssm.ssm import (
    DiscreteSsm,
    convolve,
    discretize,
    init_s4d,
    materialize_kernel,
    scan,
    ssm_apply,
)


def test_scan_matches_convolution_across_sizes():
    start = time.monotonic()
    rng = Rng(101)
    worst = 0.0
    for n_state in (1, 8, 64):
        for length in (1, 16, 128, 256, 2048):
            if n_state == 1:
                system = DiscreteSsm.from_real(
                    a=rng.uniform((1,)) * 1.9 - 0.95,
                    b=rng.normal((1,)), c=rng.normal((1,)), d=0.3)
            else:
                system = discretize(init_s4d(n_state, rng=rng))
            u = rng.normal((length,))
            kern = materialize_kernel(system, length)
            with no_grad():
                got = convolve(kern, system.d, u).data
            want = scan(system, u)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-8, f"max recurrence/convolution gap {worst:.3e}"
    assert time.monotonic() - start < 10.0


def test_every_gradient_matches_finite_differences():
    start = time.monotonic()
    cfg = ModelConfig(arch="gated", routing="ssm", n_layers=2, d_model=8,
                      n_state=4, max_len=16, vocab_size=32, dropout=0.0)
    params = init_model(cfg, Rng(102))
    for blk in params.blocks:
        boost_gated_weights(blk)
    tokens = Rng(103).integers(5, cfg.vocab_size, (16,))
    labels = np.full(16, -1)
    for pos in (2, 7, 11, 15):
        labels[pos] = int(tokens[pos])

    def loss():
        return forward_mlm(tokens, labels, cfg, params)

    named = [(n, t) for n, t in params.named_parameters()
             if t.requires_grad]
    assert named, "model exposes no trainable parameters"
    check_grads(loss, named, h=1e-5, tol=1e-4)
    assert time.monotonic() - start < 120.0


def test_parameter_count_identities():
    d = 64
    gated = ModelConfig(arch="gated", routing="ssm", n_layers=2,
                        d_model=d, n_state=8, max_len=16, vocab_size=48)
    stacked = ModelConfig(arch="stacked", routing="attention", n_layers=2,
                          d_model=d, n_heads=8, max_len=16, vocab_size=48)
    assert param_count(gated)["block_weights"] == 13 * d * d
    assert param_count(stacked)["block_weights"] == 12 * d * d
    for cfg, want in ((gated, 13 * d * d), (stacked, 12 * d * d)):
        params = init_model(cfg, Rng(104))
        enumerated = sum(
            t.data.size for name, t in params.named_parameters()
            if name.startswith("blocks.0.") and t.data.ndim >= 2)
        assert enumerated == want
        allocated = sum(t.data.size for _, t in params.named_parameters())
        assert allocated == param_count(cfg)["total"]
    full = param_count(ModelConfig(arch="gated", routing="ssm"))
    assert 330_000_000 <= full["total"] <= 370_000_000


def test_cost_model_reproduces_reference_table():
    table = {128: (8.1e10, 7.9e10), 512: (3.2e11, 3.4e11),
             1024: (6.5e11, 7.2e11), 4096: (2.6e12, 4.1e12)}
    ratios = {128: 1.03, 512: 0.94, 1024: 0.90, 4096: 0.63}
    gated, stacked = full_table_configs()
    for length, (want_g, want_s) in table.items():
        g = flop_estimate(gated, length).total
        s = flop_estimate(stacked, length).total
        assert want_g / 2 < g < want_g * 2, (length, g)
        assert want_s / 2 < s < want_s * 2, (length, s)
        assert abs(g / s - ratios[length]) <= 0.10, (length, g / s)
        if length >= 512:
            assert g < s, f"no crossover at length {length}"


def test_branches_are_causal_and_anticausal():
    for seed in (105, 106):
        p = init_s4d(16, rng=Rng(seed))
        report = probe_causality(p, 64, trials=20, rng=Rng(seed + 50),
                                 threshold=1e-12)
        assert report["forward_violations"] == 0
        assert report["backward_violations"] == 0
        assert report["passed"]
    # Same check on parameters living inside an initialized model.
    cfg = ModelConfig(arch="gated", routing="ssm", n_layers=1, d_model=8,
                      n_state=4, max_len=64, vocab_size=32)
    params = init_model(cfg, Rng(107))
    assert probe_causality(params.blocks[0].ssm_fwd, 64, trials=20,
                           rng=Rng(108))["passed"]


def test_length_extension_is_exact():
    p = init_s4d(16, rng=Rng(109))
    short = materialize_kernel(discretize(p), 32).data
    long = materialize_kernel(discretize(p), 128).data
    assert float(np.max(np.abs(long[:32] - short))) < 1e-12

    cfg = ModelConfig(arch="gated", routing="ssm", n_layers=2, d_model=16,
                      n_state=8, max_len=32, vocab_size=40, dropout=0.0)
    params = init_model(cfg, Rng(110))
    x_short = Rng(111).normal((32, 16))
    x_long = np.concatenate([x_short, Rng(112).normal((96, 16))])
    with no_grad():
        for blk in params.blocks:
            def branch(x):
                h = T.layer_norm(Tensor(x), blk.ln_gain, blk.ln_bias)
                f = T.gelu(T.matmul(h, blk.w_f))
                return T.matmul(ssm_apply(blk.ssm_fwd, f), blk.w_u1).data
            y_short = branch(x_short)
            y_long = branch(x_long)
            gap = float(np.max(np.abs(y_long[:32] - y_short)))
            assert gap < 1e-10, gap


def test_toy_pretraining_halves_heldout_perplexity(tmp_path):
    start = time.monotonic()
    corpus = str(tmp_path / "corpus.txt")
    generate_corpus(corpus, n_docs=200, doc_len=128, n_words=91, seed=42)
    info = prepare_shards(corpus, str(tmp_path / "data"), vocab_size=96,
                          seq_len=32, mask_rate=0.15, seed=7)
    assert info["vocab_size"] <= 512
    ids, labels = load_split(info["train_paths"])
    held_ids, held_labels = load_split(info["heldout_paths"])
    variants = (
        ("gated", "ssm", dict(n_state=16)),
        ("stacked", "attention", dict(n_heads=8)),
    )
    for arch, routing, extra in variants:
        cfg = ModelConfig(arch=arch, routing=routing, n_layers=2,
                          d_model=64, max_len=32,
                          vocab_size=info["vocab_size"], dropout=0.0,
                          **extra)
        params = init_model(cfg, Rng(derive_seed(7, "init", arch)))
        _, init_ppl = eval_mlm(cfg, params, held_ids, held_labels)
        tc = TrainConfig(steps=2000, batch_size=8, peak_lr=2e-3,
                         schedule="cosine", warmup_frac=0.02, seed=7)
        train_mlm(cfg, tc, ids, labels,
                  str(tmp_path / f"run-{arch}"), params=params)
        _, final_ppl = eval_mlm(cfg, params, held_ids, held_labels)
        assert final_ppl < 0.5 * init_ppl, (
            f"{arch}/{routing}: {init_ppl:.1f} -> {final_ppl:.1f}")
    assert time.monotonic() - start < 900.0


def test_masking_statistics():
    n = 150_000
    vocab_size = 1000
    ids = Rng(113).integers(5, vocab_size, (n,))
    visible, labels = mask_tokens(ids, 0.15, Rng(114), vocab_size)
    selected = labels != -1
    n_sel = int(selected.sum())
    assert 0.14 <= n_sel / n <= 0.16
    n_masked = int(np.sum(selected & (visible == MASK)))
    n_kept = int(np.sum(selected & (visible == ids)))
    n_random = n_sel - n_masked - n_kept
    for count, p in ((n_masked, 0.8), (n_random, 0.1), (n_kept, 0.1)):
        sigma = np.sqrt(n_sel * p * (1 - p))
        assert abs(count - p * n_sel) < 3 * sigma, (count, p, n_sel)


def test_reproducibility_is_bit_exact(tmp_path):
    corpus = str(tmp_path / "corpus.txt")
    generate_corpus(corpus, n_docs=40, doc_len=64, n_words=40, seed=1)
    infos = []
    for tag in ("a", "b"):
        infos.append(prepare_shards(corpus, str(tmp_path / tag),
                                    vocab_size=48, seq_len=16, seed=3))
    for path_a, path_b in zip(infos[0]["train_paths"] + infos[0]["heldout_paths"],
                              infos[1]["train_paths"] + infos[1]["heldout_paths"]):
        assert open(path_a, "rb").read() == open(path_b, "rb").read()

    ids, labels = load_split(infos[0]["train_paths"])
    cfg = ModelConfig(arch="gated", routing="ssm", n_layers=1, d_model=16,
                      n_state=4, max_len=16,
                      vocab_size=infos[0]["vocab_size"], dropout=0.1)
    tc = TrainConfig(steps=100, batch_size=4, peak_lr=1e-3, seed=5)
    digests = []
    final_losses = []
    for tag in ("runA", "runB"):
        out = str(tmp_path / tag)
        history = train_mlm(cfg, tc, ids, labels, out)
        final_losses.append(history[-1])
        blob = open(os.path.join(out, "checkpoint", "params.bin"),
                    "rb").read()
        manifest = open(os.path.join(out, "checkpoint", "manifest.json"),
                        "rb").read()
        digests.append((hashlib.sha256(blob).hexdigest(),
                        hashlib.sha256(manifest).hexdigest()))
    assert final_losses[0] == final_losses[1]   # loss at step 100, bitwise
    assert digests[0] == digests[1]


def test_kernel_dump_contract(tmp_path):
    header = "layer,direction,relative_position,tap,normalized_tap"
    for arch, n_layers in (("gated", 3), ("stacked", 2)):
        cfg = ModelConfig(arch=arch, routing="ssm", n_layers=n_layers,
                          d_model=16, n_state=8, max_len=32, vocab_size=40)
        params = init_model(cfg, Rng(115))
        dump = dump_kernels(params)
        assert len(dump.kernels) == 2 * n_layers
        per_layer = {}
        for s in dump.kernels:
            per_layer.setdefault(s.layer, []).append(s.direction)
            window = s.normalized_crop[s.in_window]
            assert np.all((s.normalized_crop >= 0.0)
                          & (s.normalized_crop <= 1.0))
            assert window.min() == 0.0
            assert window.max() == 1.0
        assert all(sorted(dirs) == ["backward", "forward"]
                   for dirs in per_layer.values())

        path = str(tmp_path / f"{arch}.csv")
        write_kernel_csv(dump, path)
        lines = open(path).read().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + 2 * n_layers * 21
        for line in lines[1:]:
            layer, direction, rel, tap, norm = line.split(",")
            assert 0 <= int(layer) < n_layers
            assert direction in ("forward", "backward")
            assert -10 <= int(rel) <= 10
            float(tap)
            if norm:
                assert 0.0 <= float(norm) <= 1.0
