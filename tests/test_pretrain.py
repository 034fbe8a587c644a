"""Vocab, masking, shards, corpus generation, optimizer, schedules."""

import hashlib
import math

import numpy as np
import pytest

from gatedssm.checkpoint import load_into
from gatedssm.numerics import Rng, Tensor, derive_seed
from gatedssm.pretrain import (
    MASK,
    N_SPECIAL,
    PAD,
    SPECIAL_TOKENS,
    UNK,
    AdamW,
    Vocab,
    build_vocab,
    constant_lr,
    cosine_warmup_lr,
    generate_corpus,
    generate_documents,
    mask_tokens,
    read_shard,
    write_shard,
)
from gatedssm.pretrain.optim import BETA1, BETA2, BLOCK, EPS, WEIGHT_DECAY
from gatedssm.pretrain.vocab import TokenizedCorpus

# ---------------------------------------------------------------------------
# vocab


def test_build_vocab_frequency_order():
    v = build_vocab(TokenizedCorpus(["a a b"]), max_size=10)
    a, b = v.encode(["a", "b"])
    assert a < b
    assert a == N_SPECIAL


def test_build_vocab_tie_breaks_lexicographically():
    v = build_vocab(TokenizedCorpus(["z q z q m"]), max_size=10)
    # z and q tie at 2; q sorts first, m (count 1) last.
    assert v.encode(["q"])[0] < v.encode(["z"])[0] < v.encode(["m"])[0]


def test_build_vocab_respects_max_size():
    words = " ".join(f"t{i}" for i in range(100))
    v = build_vocab(TokenizedCorpus([words]), max_size=20)
    assert len(v) == 20


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        build_vocab(TokenizedCorpus(["", "   "]), max_size=10)


def test_tokenized_corpus_splits_each_line_once():
    corpus = TokenizedCorpus(["b a b\n", "", "  c a\tb "])
    assert corpus.types == ["b", "a", "c"]
    np.testing.assert_array_equal(corpus.ids, [0, 1, 0, 2, 1, 0])
    np.testing.assert_array_equal(corpus.lengths, [3, 0, 3])
    lines = ["b a b", "", "c a b"]
    assert (build_vocab(corpus, 8).tokens
            == build_vocab(TokenizedCorpus(lines), 8).tokens)


def test_vocab_unknown_maps_to_unk():
    v = build_vocab(TokenizedCorpus(["x y"]), max_size=10)
    assert v.encode(["zebra"]) == [UNK]


def test_vocab_specials_and_round_trip(tmp_path):
    v = build_vocab(TokenizedCorpus(["hello world hello"]), max_size=16)
    assert v.tokens[:N_SPECIAL] == list(SPECIAL_TOKENS)
    assert v.encode(["[PAD]"])[0] == PAD == 0
    path = str(tmp_path / "vocab.txt")
    v.save(path)
    v2 = Vocab.load(path)
    assert v2.tokens == v.tokens
    words = ["hello", "world"]
    assert v2.decode(v2.encode(words)) == words


# ---------------------------------------------------------------------------
# masking


def test_mask_rate_validation():
    ids = np.arange(10) + N_SPECIAL
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="mask_rate"):
            mask_tokens(ids, bad, Rng(0), 100)


def test_mask_vanishing_rate_changes_nothing():
    ids = Rng(1).integers(N_SPECIAL, 100, (1000,))
    out, labels = mask_tokens(ids, 1e-12, Rng(2), 100)
    np.testing.assert_array_equal(out, ids)
    assert np.all(labels == -1)


def test_mask_labels_match_originals():
    ids = Rng(3).integers(N_SPECIAL, 50, (500,))
    out, labels = mask_tokens(ids, 0.3, Rng(4), 50)
    sel = labels != -1
    assert sel.any()
    np.testing.assert_array_equal(labels[sel], ids[sel])
    assert np.all(labels[~sel] == -1)
    # Positions replaced by MASK always carry their original label.
    masked = out == MASK
    assert masked.any()
    assert np.all(labels[masked] == ids[masked])


def test_mask_never_touches_special_positions():
    ids = np.array([PAD, PAD, 7, 8, 9, PAD] * 50)
    out, labels = mask_tokens(ids, 0.9, Rng(5), 20)
    special = ids < N_SPECIAL
    np.testing.assert_array_equal(out[special], ids[special])
    assert np.all(labels[special] == -1)


def test_mask_deterministic_and_shape_preserving():
    ids = Rng(6).integers(N_SPECIAL, 64, (8, 32))
    a = mask_tokens(ids, 0.15, Rng(7), 64)
    b = mask_tokens(ids, 0.15, Rng(7), 64)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[0].shape == ids.shape


def test_mask_statistics_at_scale():
    n = 200_000
    vocab_size = 1000
    ids = Rng(8).integers(N_SPECIAL, vocab_size, (n,))
    out, labels = mask_tokens(ids, 0.15, Rng(9), vocab_size)
    sel = labels != -1
    n_sel = int(sel.sum())
    assert 0.14 <= n_sel / n <= 0.16
    n_masked = int(np.sum(sel & (out == MASK)))
    n_kept = int(np.sum(sel & (out == ids)))
    n_random = n_sel - n_masked - n_kept
    for count, p in ((n_masked, 0.8), (n_random, 0.1), (n_kept, 0.1)):
        sigma = np.sqrt(n_sel * p * (1 - p))
        assert abs(count - p * n_sel) < 3 * sigma, (count, p * n_sel)


def test_mask_random_replacements_stay_in_regular_range():
    ids = Rng(10).integers(N_SPECIAL, 30, (50_000,))
    out, labels = mask_tokens(ids, 0.5, Rng(11), 30)
    sel = labels != -1
    replaced = sel & (out != MASK) & (out != ids)
    assert replaced.any()
    assert out[replaced].min() >= N_SPECIAL
    assert out[replaced].max() < 30


# ---------------------------------------------------------------------------
# shards


def test_shard_round_trip(tmp_path):
    ids = Rng(12).integers(0, 500, (17, 32))
    labels = np.where(Rng(13).uniform((17, 32)) < 0.15, ids, -1)
    path = str(tmp_path / "s.bin")
    write_shard(path, ids, labels)
    got_ids, got_labels = read_shard(path)
    np.testing.assert_array_equal(got_ids, ids)
    np.testing.assert_array_equal(got_labels, labels)


def test_shard_header_layout(tmp_path):
    path = str(tmp_path / "s.bin")
    write_shard(path, np.zeros((3, 5), dtype=np.int64),
                np.full((3, 5), -1, dtype=np.int64))
    raw = open(path, "rb").read()
    assert raw[:4] == b"MSHD"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 5
    assert int.from_bytes(raw[12:16], "little") == 3
    assert len(raw) == 16 + 2 * 3 * 5 * 4


def test_shard_rejects_corruption(tmp_path):
    path = str(tmp_path / "s.bin")
    write_shard(path, np.zeros((2, 4), dtype=np.int64),
                np.zeros((2, 4), dtype=np.int64))
    raw = bytearray(open(path, "rb").read())
    bad_magic = str(tmp_path / "bad1.bin")
    open(bad_magic, "wb").write(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        read_shard(bad_magic)
    truncated = str(tmp_path / "bad2.bin")
    open(truncated, "wb").write(bytes(raw[:-4]))
    with pytest.raises(ValueError, match="bytes"):
        read_shard(truncated)


def test_shard_shape_validation(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_shard(str(tmp_path / "x.bin"), np.zeros(4, dtype=int),
                    np.zeros(4, dtype=int))


# ---------------------------------------------------------------------------
# corpus generator


def test_corpus_deterministic():
    a = generate_documents(5, 40, 64, seed=3)
    b = generate_documents(5, 40, 64, seed=3)
    c = generate_documents(5, 40, 64, seed=4)
    assert a == b
    assert a != c
    assert len(a) == 5
    assert all(len(doc.split()) == 40 for doc in a)


def test_corpus_has_markov_structure():
    docs = generate_documents(20, 200, 64, seed=5)
    hits = total = 0
    for doc in docs:
        words = [int(w[1:]) for w in doc.split()]
        for prev, cur in zip(words, words[1:]):
            a = (3 * prev + 1) % 64
            b = (5 * prev + 2) % 64
            hits += cur in (a, b)
            total += 1
    # 90% of transitions follow the two preferred successors.
    assert 0.85 < hits / total < 0.95


def _reference_documents(n_docs, doc_len, n_words, seed):
    """The generator written as one Python step per token: the oracle
    for the array version."""
    docs = []
    for doc_index in range(n_docs):
        rng = Rng(derive_seed(seed, doc_index))
        word = int(rng.integers(0, n_words))
        words = [word]
        draws = rng.uniform((doc_len - 1,))
        escapes = rng.integers(0, n_words, (doc_len - 1,))
        for i in range(doc_len - 1):
            if draws[i] < 0.45:
                word = (3 * word + 1) % n_words
            elif draws[i] < 0.9:
                word = (5 * word + 2) % n_words
            else:
                word = int(escapes[i])
            words.append(word)
        docs.append(" ".join(f"w{w:04d}" for w in words))
    return docs


@pytest.mark.parametrize("n_docs,doc_len,n_words", [
    (2000, 256, 34000), (20, 2048, 91), (1, 1, 3), (3, 2, 3), (4, 40, 5),
    # A last block that is not full, and documents longer than a block.
    (150, 64, 91), (3, 5000, 91),
])
def test_corpus_matches_per_token_oracle(n_docs, doc_len, n_words):
    for seed in (0, 11):
        assert (generate_documents(n_docs, doc_len, n_words, seed)
                == _reference_documents(n_docs, doc_len, n_words, seed))


# SHA-256 of the corpus files the per-token generator wrote: the
# acceptance test's corpus and one with the benchmark's BERT shape.
@pytest.mark.parametrize("n_docs,doc_len,n_words,seed,digest", [
    (200, 128, 91, 42,
     "85af0aceba14cfc8bf6f72962e415de8495e56aec962e37243fd7824ec34e2ed"),
    (2000, 256, 34000, 7,
     "634b5445ae142c43643b16a315b619b6c61c57b4b05ea1e4e44ba4544763ceed"),
])
def test_corpus_bytes_are_pinned(tmp_path, n_docs, doc_len, n_words, seed,
                                 digest):
    path = str(tmp_path / "corpus.txt")
    generate_corpus(path, n_docs=n_docs, doc_len=doc_len, n_words=n_words,
                    seed=seed)
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == digest


def test_corpus_validation():
    with pytest.raises(ValueError):
        generate_documents(0, 10, 64, seed=0)
    with pytest.raises(ValueError):
        generate_documents(1, 10, 2, seed=0)


# ---------------------------------------------------------------------------
# AdamW


def scalar_param(value: float) -> Tensor:
    return Tensor(np.array(value), requires_grad=True)


def test_adamw_single_step_closed_form():
    p = scalar_param(1.0)
    opt = AdamW([("p", p)])
    g = 0.37
    p.grad[...] = g
    opt.step(lr=0.01)
    want = 1.0 - 0.01 * g / (np.sqrt(g * g) + 1e-6)
    assert float(p.data) == pytest.approx(want, abs=1e-12)


def test_adamw_zero_grad_zero_decay_fixed_point():
    # A vector is exempt from weight decay.
    p = Tensor(Rng(14).normal((9,)), requires_grad=True)
    before = p.data.copy()
    opt = AdamW([("p", p)])
    opt.step(lr=0.5)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_lr_zero_is_identity():
    p = Tensor(Rng(15).normal((4, 4)), requires_grad=True)
    before = p.data.copy()
    opt = AdamW([("p", p)])
    p.grad[...] = Rng(16).normal((4, 4))
    opt.step(lr=0.0)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_decoupled_decay_on_matrices_only():
    w = Tensor(np.full((2, 2), 2.0), requires_grad=True)
    b = Tensor(np.full(2, 2.0), requires_grad=True)
    opt = AdamW([("w", w), ("b", b)])
    opt.step(lr=0.1)
    np.testing.assert_allclose(w.data, 2.0 * (1 - 0.1 * WEIGHT_DECAY),
                               atol=1e-15)
    np.testing.assert_array_equal(b.data, np.full(2, 2.0))


def test_adamw_matches_reference_implementation():
    # Independent straight-numpy AdamW, several steps, mixed shapes.
    rng = Rng(17)
    shapes = [("w", (3, 4)), ("g", (5,)), ("s", ())]
    params = [(n, Tensor(rng.normal(shp), requires_grad=True))
              for n, shp in shapes]
    ref = {n: p.data.copy() for n, p in params}
    m = {n: np.zeros_like(p.data) for n, p in params}
    v = {n: np.zeros_like(p.data) for n, p in params}
    opt = AdamW(params)
    lr = 3e-3
    for t in range(1, 6):
        grads = {n: rng.normal(p.data.shape) for n, p in params}
        for n, p in params:
            p.grad[...] = grads[n]
        opt.step(lr)
        for n, p in params:
            g = grads[n]
            m[n] = 0.9 * m[n] + 0.1 * g
            v[n] = 0.98 * v[n] + 0.02 * g * g
            mhat = m[n] / (1 - 0.9 ** t)
            vhat = v[n] / (1 - 0.98 ** t)
            ref[n] = ref[n] - lr * mhat / (np.sqrt(vhat) + 1e-6)
            if ref[n].ndim >= 2:
                ref[n] = ref[n] - lr * WEIGHT_DECAY * ref[n]
    for n, p in params:
        np.testing.assert_allclose(p.data, ref[n], atol=1e-14)


def test_adamw_rejects_nonfinite_gradient():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = AdamW([("embedding", p)])
    p.grad[...] = [1.0, np.nan, 2.0]
    with pytest.raises(RuntimeError, match="embedding"):
        opt.step(lr=0.1)


def test_adamw_moments_shaped_like_params():
    p = Tensor(Rng(18).normal((3, 5)), requires_grad=True)
    opt = AdamW([("p", p)])
    assert opt.m["p"].shape == (3, 5)
    assert opt.v["p"].shape == (3, 5)


def test_adamw_skips_frozen_and_requires_trainables():
    frozen = Tensor(np.ones(3), requires_grad=False)
    live = Tensor(np.ones(3), requires_grad=True)
    opt = AdamW([("a", frozen), ("b", live)])
    assert [n for n, _ in opt.params] == ["b"]
    with pytest.raises(ValueError, match="trainable"):
        AdamW([("a", frozen)])


def test_adamw_state_round_trip():
    p = Tensor(Rng(19).normal((2, 2)), requires_grad=True)
    opt = AdamW([("p", p)])
    p.grad[...] = 0.5
    opt.step(lr=0.01)
    entries = {n: a.copy() for n, a in opt.state_entries()}
    p2 = Tensor(p.data.copy(), requires_grad=True)
    opt2 = AdamW([("p", p2)])
    load_into(opt2.state_entries(), entries)
    opt2.step_count = opt.step_count
    np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
    np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])
    assert opt2.step_count == 1
    # Identical next step from restored state.
    p.grad[...] = -0.2
    p2.grad[...] = -0.2
    opt.step(lr=0.01)
    opt2.step(lr=0.01)
    np.testing.assert_array_equal(p.data, p2.data)


def test_load_into_adamw_moments_validates_before_copying():
    w = Tensor(Rng(20).normal((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    opt = AdamW([("w", w), ("b", b)])
    good = {n: np.full(a.shape, 5.0) for n, a in opt.state_entries()}
    cases = [
        ("missing entry 'adam_v.b'",
         {k: a for k, a in good.items() if k != "adam_v.b"}),
        (r"'adam_m.w': checkpoint \(1,\)",
         {**good, "adam_m.w": np.full(1, 5.0)}),
        (r"unused entries: \['adam_m.zzz'\]",
         {**good, "adam_m.zzz": np.ones(2)}),
    ]
    for message, entries in cases:
        with pytest.raises((KeyError, ValueError), match=message):
            load_into(opt.state_entries(), entries)
        for _, arr in opt.state_entries():
            np.testing.assert_array_equal(arr, 0.0)
    load_into(opt.state_entries(), good)
    for _, arr in opt.state_entries():
        np.testing.assert_array_equal(arr, 5.0)


class PerTensorAdamW:
    """AdamW.step as it was written before the flat buffers, one tensor
    at a time: the oracle the block walk must match bit for bit."""

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr):
        for name, p in self.params:
            if p.grad is None or not np.all(np.isfinite(p.grad)):
                raise RuntimeError(
                    f"non-finite gradient in parameter {name!r}"
                )
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params:
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data -= lr * update
            if p.data.ndim >= 2:
                p.data -= lr * WEIGHT_DECAY * p.data


# Matrices are decayed and laid out first: 40035 decayed elements put
# the decay boundary inside the second block, and the total spans three.
ORACLE_SHAPES = [("w1", (200, 150)), ("b1", (70,)), ("s", ()),
                 ("w2", (100, 100)), ("g", (30000,)), ("w3", (5, 7))]


def oracle_params(seed):
    rng = Rng(seed)
    return [(name, Tensor(rng.normal(shape), requires_grad=True))
            for name, shape in ORACLE_SHAPES]


def test_adamw_block_walk_matches_per_tensor_oracle_bit_for_bit():
    decayed = sum(math.prod(s) for _, s in ORACLE_SHAPES if len(s) >= 2)
    total = sum(math.prod(s) for _, s in ORACLE_SHAPES)
    assert total > 2 * BLOCK and decayed // BLOCK == 1 and decayed % BLOCK
    flat, ref = oracle_params(30), oracle_params(30)
    opt = AdamW(flat)
    oracle = PerTensorAdamW(ref)
    rng = Rng(31)
    for step in range(6):
        for (_, p), (_, q) in zip(flat, ref):
            p.grad[...] = rng.normal(p.shape) * (0.1 + 0.1 * step)
            q.grad[...] = p.grad
        opt.step(lr=1e-3 * (step + 1))
        oracle.step(lr=1e-3 * (step + 1))
        for (name, p), (_, q) in zip(flat, ref):
            assert np.array_equal(p.data, q.data), (step, name)
            assert np.array_equal(opt.m[name], oracle.m[name]), (step, name)
            assert np.array_equal(opt.v[name], oracle.v[name]), (step, name)
        assert opt.step_count == oracle.step_count == step + 1


def test_adamw_nonfinite_gradient_names_first_and_changes_nothing():
    params = [("a", Tensor(np.ones(3), requires_grad=True)),
              ("b", Tensor(np.ones(4), requires_grad=True)),
              ("c", Tensor(np.ones(5), requires_grad=True)),
              ("d", Tensor(np.ones((2, 3)), requires_grad=True))]
    opt = AdamW(params)
    for _, p in params:
        p.grad[...] = 2.0
    opt.step(lr=0.1)
    for _, p in params:
        p.grad[...] = 3.0
    params[1][1].grad[2] = np.nan
    params[3][1].grad[0, 1] = np.inf   # laid out first, listed fourth
    before = [(p.data.copy(), p.grad.copy(), opt.m[n].copy(),
               opt.v[n].copy()) for n, p in params]
    with pytest.raises(RuntimeError, match="parameter 'b'"):
        opt.step(lr=0.1)
    for (n, p), saved in zip(params, before):
        now = (p.data, p.grad, opt.m[n], opt.v[n])
        for a, b in zip(now, saved):
            np.testing.assert_array_equal(a, b)
    assert opt.step_count == 1


def test_adamw_refuses_tensors_adopted_by_another_optimizer():
    params = [("w", Tensor(np.ones((2, 2)), requires_grad=True)),
              ("b", Tensor(np.ones(2), requires_grad=True))]
    first = AdamW(params)
    second = AdamW(params)
    for _, p in params:
        p.grad[...] = 1.0
    with pytest.raises(RuntimeError, match="'w' no longer lives"):
        first.step(lr=0.1)
    second.step(lr=0.1)
    np.testing.assert_allclose(params[1][1].data, 0.9, rtol=1e-6)


@pytest.mark.parametrize("field", ["data", "grad"])
def test_adamw_refuses_replaced_buffers(field):
    params = [("w", Tensor(np.ones((2, 2)), requires_grad=True)),
              ("b", Tensor(np.ones(2), requires_grad=True))]
    opt = AdamW(params)
    b = params[1][1]
    setattr(b, field, getattr(b, field).copy())
    with pytest.raises(RuntimeError, match="'b' no longer lives"):
        opt.step(lr=0.1)
    np.testing.assert_array_equal(params[0][1].data, 1.0)


def test_adamw_rejects_a_tensor_or_name_listed_twice():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    for params in ([("a", p), ("b", p)], [("a", p), ("a", q)]):
        with pytest.raises(ValueError, match="distinct"):
            AdamW(params)


def test_adamw_adopts_values_and_zero_grad_clears_every_tensor():
    w = Tensor(Rng(32).normal((3, 2)), requires_grad=True)
    s = Tensor(np.array(1.5), requires_grad=True)
    values = w.data.copy()
    w.grad[...] = 7.0
    opt = AdamW([("s", s), ("w", w)])
    np.testing.assert_array_equal(w.data, values)
    np.testing.assert_array_equal(w.grad, 7.0)
    assert s.data.shape == () and float(s.data) == 1.5
    opt.zero_grad()
    np.testing.assert_array_equal(w.grad, 0.0)
    assert float(s.grad) == 0.0


# ---------------------------------------------------------------------------
# schedules


def test_cosine_schedule_anchors():
    total, frac, peak = 1000, 0.1, 2.5
    assert cosine_warmup_lr(0, total, frac, peak) == 0.0
    assert cosine_warmup_lr(100, total, frac, peak) == pytest.approx(peak)
    assert cosine_warmup_lr(total, total, frac, peak) == 0.0
    assert cosine_warmup_lr(total + 50, total, frac, peak) == 0.0
    mid = 100 + (total - 100) // 2
    assert cosine_warmup_lr(mid, total, frac, peak) == pytest.approx(
        peak / 2, abs=1e-12)


def test_cosine_schedule_warmup_is_linear():
    vals = [cosine_warmup_lr(s, 1000, 0.1, 1.0) for s in range(0, 101, 10)]
    np.testing.assert_allclose(vals, np.linspace(0.0, 1.0, 11), atol=1e-12)


def test_cosine_schedule_monotone_decay():
    vals = [cosine_warmup_lr(s, 500, 0.02, 1.0) for s in range(10, 501)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_constant_schedule():
    assert constant_lr(0, 100, 0.1, 3e-5) == 3e-5
    assert constant_lr(99, 100, 0.1, 3e-5) == 3e-5


def test_schedule_validation():
    with pytest.raises(ValueError, match="warmup_frac"):
        cosine_warmup_lr(0, 100, 0.0, 1.0)
    with pytest.raises(ValueError, match="warmup_frac"):
        cosine_warmup_lr(0, 100, 1.0, 1.0)
