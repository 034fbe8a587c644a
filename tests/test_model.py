"""Model blocks: gating, attention, embeddings, parameter accounting."""

from dataclasses import fields

import numpy as np
import pytest
from conftest import (
    boost_gated_weights,
    check_grads,
    count_nodes,
    mlm_head,
    unblocked_cross_entropy,
)

import gatedssm.numerics.tensor as T
from gatedssm import ssm as S
from gatedssm.model import (
    AttentionParams,
    EmbeddingParams,
    GatedBlockParams,
    ModelConfig,
    StackedBlockParams,
    dropout,
    flip,
    forward_mlm,
    gated_block,
    init_model,
    multihead_attention,
    param_count,
    stacked_block,
    stacked_route,
)
from gatedssm.numerics import Rng, Tensor, backward, no_grad


def toy_config(**kw) -> ModelConfig:
    base = dict(arch="gated", routing="ssm", n_layers=2, d_model=8,
                n_state=4, max_len=16, vocab_size=50, n_heads=2,
                dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def near_identity_ssm() -> S.SsmParams:
    """Kernel numerically (1, 0, 0, ...) with no skip term.

    One stored pair with a huge decay rate lam = -40 and unit step. The
    discrete input scale becomes (exp(-40) - 1) / -40, almost exactly
    1/40, so a readout of 20 makes the doubled lag-0 tap equal 1 while
    every later tap decays below 1e-15.
    """
    return S.SsmParams(
        log_neg_re=Tensor(np.array([np.log(40.0)])),
        im=Tensor(np.zeros(1)),
        c_re=Tensor(np.array([20.0])), c_im=Tensor(np.zeros(1)),
        log_dt=Tensor(np.array(0.0)), d=Tensor(np.array(0.0)),
    )


# ---------------------------------------------------------------------------
# config defaults


def test_config_defaults_by_arch():
    g = ModelConfig(arch="gated", routing="ssm")
    s = ModelConfig(arch="stacked", routing="attention")
    assert g.n_layers == 23 and s.n_layers == 24
    assert g.intermediate == 3 * 1024 and s.intermediate == 4 * 1024
    assert not g.use_position_embeddings
    assert s.use_position_embeddings


def test_config_derived_settings_are_read_only():
    assert len(fields(ModelConfig)) == 9
    cfg = ModelConfig(arch="stacked", routing="ssm", d_model=8)
    assert cfg.intermediate == 32 and not cfg.use_position_embeddings
    with pytest.raises(AttributeError):
        cfg.intermediate = 16
    for key in ("intermediate", "use_position_embeddings", "dt_min",
                "dt_max"):
        with pytest.raises(TypeError, match=key):
            ModelConfig(**{key: 1})


def test_config_validation():
    with pytest.raises(ValueError, match="arch"):
        ModelConfig(arch="conv")
    with pytest.raises(ValueError, match="routing"):
        ModelConfig(routing="mlp")
    with pytest.raises(ValueError, match="n_heads"):
        ModelConfig(arch="stacked", routing="attention", d_model=10,
                    n_heads=3)
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(dropout=1.0)
    with pytest.raises(ValueError, match="even"):
        ModelConfig(n_state=7)
    for value in (False, "0.1"):
        with pytest.raises(ValueError, match="^dropout must be a number"):
            ModelConfig(dropout=value)


def test_config_integer_fields_refuse_fractions_and_bools():
    for key in ("n_layers", "d_model", "n_state", "max_len", "vocab_size",
                "n_heads"):
        for value in (8.5, 8.0, True):
            with pytest.raises(ValueError,
                               match=f"^{key} must be an integer"):
                ModelConfig(**{key: value})
        assert getattr(ModelConfig(**{key: np.int64(8)}), key) == 8
    with pytest.raises(ValueError, match="^d_model must be at least 1"):
        ModelConfig(d_model=0)


# ---------------------------------------------------------------------------
# flip


def test_flip_involution():
    x = Tensor(Rng(0).normal((5, 3)))
    np.testing.assert_array_equal(flip(flip(x)).data, x.data)


def test_flip_single_row_identity():
    x = Tensor(Rng(1).normal((1, 4)))
    np.testing.assert_array_equal(flip(x).data, x.data)


def test_flip_reverses_rows():
    x = Tensor(np.array([[1.0, 1], [2, 2], [3, 3]]))
    np.testing.assert_array_equal(flip(x).data,
                                  [[3.0, 3], [2, 2], [1, 1]])


# ---------------------------------------------------------------------------
# dropout


def test_dropout_identity_cases():
    # p == 0 is evaluation: no rng is needed and x comes back as is.
    x = Tensor(Rng(2).normal((4, 4)))
    assert dropout(x, 0.0, None) is x


def test_dropout_requires_rng_in_training():
    with pytest.raises(ValueError, match="rng"):
        dropout(Tensor(np.ones(3)), 0.5, None)


def test_dropout_replayable_and_scaled():
    x = Tensor(np.ones((100, 10)))
    a = dropout(x, 0.3, Rng(9)).data
    b = dropout(x, 0.3, Rng(9)).data
    np.testing.assert_array_equal(a, b)
    kept = a != 0.0
    np.testing.assert_allclose(a[kept], 1.0 / 0.7)
    assert 0.55 < kept.mean() < 0.85


def test_dropout_gradient_is_mask_product_bit_for_bit():
    # The keep mask is a constant operand of mul: its backward rule
    # forms no gradient for it, and x gets exactly g * mask.
    p, shape = 0.3, (4, 6, 5)
    x = Tensor(Rng(80).normal(shape), requires_grad=True)
    g = Rng(81).normal(shape)
    y = dropout(x, p, Rng(82))
    keep = (Rng(82).uniform(shape) >= p) / (1.0 - p)
    np.testing.assert_array_equal(y.data, x.data * keep)
    assert y.node.backward_rule(g)[1] is None
    backward(T.tsum(T.mul(y, Tensor(g))))
    np.testing.assert_array_equal(x.grad, g * keep)


# ---------------------------------------------------------------------------
# attention


def test_attention_single_token_is_value_path():
    rng = Rng(3)
    p = AttentionParams(w_q=Tensor(rng.normal((6, 6))),
                        w_k=Tensor(rng.normal((6, 6))),
                        w_v=Tensor(rng.normal((6, 6))),
                        w_out=Tensor(rng.normal((6, 6))))
    x = rng.normal((1, 6))
    with no_grad():
        got = multihead_attention(Tensor(x), p, n_heads=1).data
    np.testing.assert_allclose(got, x @ p.w_v.data @ p.w_out.data,
                               atol=1e-12)


def test_attention_matches_naive_single_head():
    rng = Rng(4)
    d, L = 6, 7
    p = AttentionParams(w_q=Tensor(rng.normal((d, d))),
                        w_k=Tensor(rng.normal((d, d))),
                        w_v=Tensor(rng.normal((d, d))),
                        w_out=Tensor(rng.normal((d, d))))
    x = rng.normal((L, d))
    with no_grad():
        got = multihead_attention(Tensor(x), p, n_heads=1).data
    q, k, v = x @ p.w_q.data, x @ p.w_k.data, x @ p.w_v.data
    scores = q @ k.T / np.sqrt(d)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(got, weights @ v @ p.w_out.data, atol=1e-10)


def test_attention_matches_naive_two_heads():
    rng = Rng(5)
    d, L, h = 8, 5, 2
    p = AttentionParams(w_q=Tensor(rng.normal((d, d))),
                        w_k=Tensor(rng.normal((d, d))),
                        w_v=Tensor(rng.normal((d, d))))
    x = rng.normal((L, d))
    with no_grad():
        got = multihead_attention(Tensor(x), p, n_heads=h).data
    q, k, v = x @ p.w_q.data, x @ p.w_k.data, x @ p.w_v.data
    dh = d // h
    want = np.zeros((L, d))
    for i in range(h):
        sl = slice(i * dh, (i + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        want[:, sl] = w @ v[:, sl]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_attention_batched_matches_unbatched():
    rng = Rng(6)
    d = 8
    p = AttentionParams(w_q=Tensor(rng.normal((d, d))),
                        w_k=Tensor(rng.normal((d, d))),
                        w_v=Tensor(rng.normal((d, d))),
                        w_out=Tensor(rng.normal((d, d))))
    x = rng.normal((3, 5, d))
    with no_grad():
        batched = multihead_attention(Tensor(x), p, n_heads=2).data
        for i in range(3):
            row = multihead_attention(Tensor(x[i]), p, n_heads=2).data
            np.testing.assert_allclose(batched[i], row, atol=1e-12)


def test_attention_tape_node_count():
    # Three projections, the attention op and the output projection.
    cfg = toy_config(arch="stacked", routing="attention", d_model=8,
                     n_heads=2)
    p = init_model(cfg, Rng(8)).blocks[0].attn
    out = multihead_attention(Tensor(Rng(9).normal((3, 5, 8))), p, 2)
    assert count_nodes(out) == 5


@pytest.mark.parametrize("d, n_heads, message", [
    (8, 0, "n_heads >= 1, got 0"),
    (6, 4, "width 6 is not divisible by n_heads 4"),
])
def test_attention_rejects_bad_heads(d, n_heads, message):
    rng = Rng(10)
    p = AttentionParams(w_q=Tensor(rng.normal((d, d))),
                        w_k=Tensor(rng.normal((d, d))),
                        w_v=Tensor(rng.normal((d, d))))
    with pytest.raises(ValueError, match=message):
        multihead_attention(Tensor(rng.normal((5, d))), p, n_heads)


# ---------------------------------------------------------------------------
# gated block


def test_gated_block_zero_weights_is_identity():
    cfg = toy_config()
    blk = init_model(cfg, Rng(7)).blocks[0]
    for name in ("w_v", "w_f", "w_b", "w_u1", "w_u2", "w_u", "w_o"):
        getattr(blk, name).data[:] = 0.0
    blk.ln_bias.data[:] = 0.0
    x = Rng(8).normal((10, cfg.d_model))
    with no_grad():
        out = gated_block(Tensor(x), blk).data
    np.testing.assert_array_equal(out, x)


def test_gated_block_zero_output_projection_is_identity():
    # Random everything else; only the final projection zeroed.
    cfg = toy_config()
    blk = init_model(cfg, Rng(9)).blocks[0]
    blk.w_o.data[:] = 0.0
    x = Rng(10).normal((12, cfg.d_model))
    with no_grad():
        out = gated_block(Tensor(x), blk).data
    np.testing.assert_array_equal(out, x)


def test_gated_block_inner_width_is_three_d():
    cfg = toy_config(d_model=4, n_state=4)
    blk = init_model(cfg, Rng(11)).blocks[0]
    assert blk.w_v.shape == (4, 12)
    assert blk.w_u.shape == (4, 12)
    assert blk.w_o.shape == (12, 4)
    with no_grad():
        out = gated_block(Tensor(Rng(12).normal((8, 4))), blk)
    assert out.shape == (8, 4)


def test_gated_block_shape_mismatch():
    cfg = toy_config()
    blk = init_model(cfg, Rng(13)).blocks[0]
    with pytest.raises(ValueError, match="width"):
        gated_block(Tensor(np.zeros((4, cfg.d_model + 1))), blk)


def test_gated_block_bidirectional_coverage():
    # A bump at any input row must move the output at every row:
    # the forward path covers later rows, the backward path earlier ones.
    cfg = toy_config(n_layers=1)
    blk = init_model(cfg, Rng(14)).blocks[0]
    boost_gated_weights(blk)
    L = 6
    x = Rng(15).normal((L, cfg.d_model))
    with no_grad():
        base = gated_block(Tensor(x), blk).data
        for j in range(L):
            pert = x.copy()
            # Single-feature bump: a uniform shift across features would
            # sit in the entry LayerNorm's null space and vanish.
            pert[j, j % cfg.d_model] += 0.1
            diff = np.abs(gated_block(Tensor(pert), blk).data - base)
            row_effect = diff.max(axis=1)
            assert np.all(row_effect > 1e-12), f"row {j} left gaps"


def test_gated_block_forward_branch_is_causal(monkeypatch):
    # Backward route held at a constant. The entry norm works row by
    # row, so the only remaining input-dependent paths run strictly left
    # to right plus a local residual, and future perturbations cannot
    # reach earlier rows.
    cfg = toy_config()
    blk = init_model(cfg, Rng(16)).blocks[0]
    boost_gated_weights(blk)
    real_apply = S.ssm_apply

    def backward_route_constant(p, u):
        if p is blk.ssm_bwd:
            return Tensor(np.ones(u.shape))
        return real_apply(p, u)

    monkeypatch.setattr(S, "ssm_apply", backward_route_constant)
    L = 8
    x = Rng(17).normal((L, cfg.d_model))
    with no_grad():
        base = gated_block(Tensor(x), blk).data
        for j in range(1, L):
            pert = x.copy()
            # One feature only: a uniform shift would vanish in the
            # entry LayerNorm and leave just the residual to move.
            pert[j, j % cfg.d_model] += 1.0
            out = gated_block(Tensor(pert), blk).data
            assert np.max(np.abs(out[:j] - base[:j])) < 1e-12
            assert np.max(np.abs(out[j:] - base[j:])) > 1e-9


def test_gated_block_batched_matches_unbatched():
    cfg = toy_config()
    blk = init_model(cfg, Rng(18)).blocks[0]
    x = Rng(19).normal((3, 6, cfg.d_model))
    with no_grad():
        batched = gated_block(Tensor(x), blk).data
        for i in range(3):
            single = gated_block(Tensor(x[i]), blk).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_gated_block_gradients_all_parameters():
    cfg = toy_config(d_model=8, n_state=4, n_layers=1)
    params = init_model(cfg, Rng(20))
    blk = params.blocks[0]
    boost_gated_weights(blk)
    x = Tensor(Rng(21).normal((16, 8)), requires_grad=True)
    w = Tensor(Rng(22).normal((16, 8)))

    def f():
        return T.tsum(T.mul(gated_block(x, blk), w))

    names = [("x", x)]
    from gatedssm.model import _named_block_params
    names += [(n, t) for n, t in _named_block_params(blk) if t.requires_grad]
    check_grads(f, names)


def test_gated_block_attention_routing_runs_and_differs():
    cfg = toy_config(routing="attention", d_model=8, n_heads=2)
    blk = init_model(cfg, Rng(23)).blocks[0]
    boost_gated_weights(blk)
    assert blk.ssm_fwd is None and blk.attn_fwd is not None
    x = Rng(24).normal((6, 8))
    with no_grad():
        out = gated_block(Tensor(x), blk, n_heads=2).data
    assert out.shape == (6, 8)
    assert np.max(np.abs(out - x)) > 1e-6


def test_gated_block_attention_gradients_all_parameters():
    # Attention routing without an output projection (w_out is None).
    cfg = toy_config(routing="attention", d_model=8, n_heads=2, n_layers=1)
    blk = init_model(cfg, Rng(25)).blocks[0]
    boost_gated_weights(blk)
    for attn in (blk.attn_fwd, blk.attn_bwd):
        assert attn.w_out is None
        for name in ("w_q", "w_k", "w_v"):
            getattr(attn, name).data[:] *= 25.0
    x = Tensor(Rng(26).normal((2, 6, 8)), requires_grad=True)
    w = Tensor(Rng(27).normal((2, 6, 8)))

    def f():
        return T.tsum(T.mul(gated_block(x, blk, n_heads=2), w))

    from gatedssm.model import _named_block_params
    names = [("x", x)]
    names += [(n, t) for n, t in _named_block_params(blk) if t.requires_grad]
    check_grads(f, names)


# ---------------------------------------------------------------------------
# stacked block


def test_stacked_route_attention_single_token():
    cfg = toy_config(arch="stacked", routing="attention", d_model=6,
                     n_heads=1)
    blk = init_model(cfg, Rng(25)).blocks[0]
    x = Rng(26).normal((1, 6))
    with no_grad():
        got = stacked_route(Tensor(x), blk, "attention", n_heads=1).data
    want = x @ blk.attn.w_v.data @ blk.attn.w_out.data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_stacked_route_identity_ssm_is_identity():
    cfg = toy_config(arch="stacked", routing="ssm", d_model=5)
    blk = init_model(cfg, Rng(27)).blocks[0]
    blk.ssm_fwd = near_identity_ssm()
    blk.ssm_bwd = near_identity_ssm()
    blk.proj_fwd = Tensor(np.eye(5))
    blk.proj_bwd = Tensor(np.eye(5))
    x = Rng(28).normal((9, 5))
    with no_grad():
        got = stacked_route(Tensor(x), blk, "ssm").data
    np.testing.assert_allclose(got, x, atol=1e-10)


def test_stacked_route_rejects_unknown():
    cfg = toy_config(arch="stacked", routing="ssm")
    blk = init_model(cfg, Rng(29)).blocks[0]
    with pytest.raises(ValueError, match="routing"):
        stacked_route(Tensor(np.zeros((2, 8))), blk, "conv")


def test_stacked_block_gradients_attention():
    cfg = toy_config(arch="stacked", routing="attention", d_model=8,
                     n_heads=2)
    blk = init_model(cfg, Rng(30)).blocks[0]
    x = Tensor(Rng(31).normal((16, 8)), requires_grad=True)
    w = Tensor(Rng(32).normal((16, 8)))

    def f():
        return T.tsum(T.mul(stacked_block(x, blk, "attention", n_heads=2),
                            w))

    from gatedssm.model import _named_block_params
    names = [("x", x)]
    names += [(n, t) for n, t in _named_block_params(blk) if t.requires_grad]
    check_grads(f, names)


def test_stacked_block_gradients_ssm():
    cfg = toy_config(arch="stacked", routing="ssm", d_model=8, n_state=4)
    blk = init_model(cfg, Rng(33)).blocks[0]
    x = Tensor(Rng(34).normal((16, 8)), requires_grad=True)
    w = Tensor(Rng(35).normal((16, 8)))

    def f():
        return T.tsum(T.mul(stacked_block(x, blk, "ssm"), w))

    from gatedssm.model import _named_block_params
    names = [("x", x)]
    names += [(n, t) for n, t in _named_block_params(blk) if t.requires_grad]
    check_grads(f, names)


def test_stacked_block_shape_mismatch():
    cfg = toy_config(arch="stacked", routing="ssm")
    blk = init_model(cfg, Rng(36)).blocks[0]
    with pytest.raises(ValueError, match="width"):
        stacked_block(Tensor(np.zeros((4, 3))), blk, "ssm")


# ---------------------------------------------------------------------------
# forward_mlm


def every_label(tokens):
    """Labels that score every position against its own token."""
    return np.asarray(tokens).copy()


def test_forward_mlm_shapes_and_softmax_rows():
    # A zero token table makes every logit row uniform, so the loss of
    # 1-D and 2-D token arrays alike is log(vocab).
    cfg = toy_config()
    params = init_model(cfg, Rng(37))
    params.embeddings.token_table.data[:] = 0.0
    for shape in ((12,), (3, 4)):
        tokens = Rng(38).integers(0, cfg.vocab_size, shape)
        with no_grad():
            loss = forward_mlm(tokens, every_label(tokens), cfg, params)
        assert loss.shape == ()
        assert abs(float(loss.data) - np.log(cfg.vocab_size)) < 1e-12


def test_forward_mlm_eval_deterministic():
    cfg = toy_config(n_layers=1)
    params = init_model(cfg, Rng(39))
    tokens = Rng(40).integers(0, cfg.vocab_size, (8,))
    with no_grad():
        a = forward_mlm(tokens, every_label(tokens), cfg, params).data
        b = forward_mlm(tokens, every_label(tokens), cfg, params).data
    assert a == b


def test_forward_mlm_rejects_out_of_range():
    cfg = toy_config()
    params = init_model(cfg, Rng(41))
    bad = np.array([0, cfg.vocab_size, 1])
    with pytest.raises(ValueError, match="range"):
        forward_mlm(bad, np.array([0, 1, 1]), cfg, params)


def test_forward_mlm_batched_matches_single():
    # Every sequence scores all its positions, so the batch's loss is
    # the mean of the sequences' losses.
    cfg = toy_config(n_layers=1)
    params = init_model(cfg, Rng(42))
    tokens = Rng(43).integers(0, cfg.vocab_size, (3, 10))
    with no_grad():
        batched = float(forward_mlm(tokens, every_label(tokens), cfg,
                                    params).data)
        rows = [float(forward_mlm(t, every_label(t), cfg, params).data)
                for t in tokens]
    assert batched == pytest.approx(np.mean(rows), rel=1e-12)


def test_forward_mlm_all_four_variants_run():
    for arch in ("gated", "stacked"):
        for routing in ("ssm", "attention"):
            cfg = toy_config(arch=arch, routing=routing, n_layers=1,
                             n_heads=2)
            params = init_model(cfg, Rng(44))
            tokens = Rng(45).integers(0, cfg.vocab_size, (6,))
            with no_grad():
                loss = forward_mlm(tokens, every_label(tokens), cfg, params)
            assert loss.shape == () and np.isfinite(loss.data)


VARIANTS = [("gated", "ssm"), ("gated", "attention"),
            ("stacked", "ssm"), ("stacked", "attention")]


@pytest.mark.parametrize("arch,routing", VARIANTS)
def test_block_rows_match_the_full_block_then_a_gather(arch, routing):
    # With `rows`, a block runs its per-position part on those rows
    # alone; its output and the dropout draws stay the full block's.
    cfg = toy_config(arch=arch, routing=routing, n_heads=2, dropout=0.3)
    blk = init_model(cfg, Rng(64)).blocks[0]
    if arch == "gated":
        boost_gated_weights(blk)

    def block(x, dropout_p=0.0, **kw):
        if arch == "gated":
            return gated_block(x, blk, dropout_p=dropout_p,
                               n_heads=cfg.n_heads, **kw).data
        return stacked_block(x, blk, routing, dropout_p=dropout_p,
                             n_heads=cfg.n_heads, **kw).data

    for shape, rows in (((6, 8), [5, 0, 3, 3]),
                        ((3, 6, 8), [17, 0, 7, 7, 12])):
        x = Tensor(Rng(65).normal(shape))
        rows = np.array(rows)
        with no_grad():
            full = block(x).reshape(-1, cfg.d_model)
            np.testing.assert_array_equal(block(x, rows=rows), full[rows])
            rng_full, rng_rows = Rng(66), Rng(66)
            trained = block(x, cfg.dropout, rng=rng_full)
            got = block(x, cfg.dropout, rng=rng_rows, rows=rows)
        trained = trained.reshape(-1, cfg.d_model)
        assert not np.array_equal(trained, full)  # dropout fired
        np.testing.assert_array_equal(got, trained[rows])
        np.testing.assert_array_equal(rng_rows.uniform((4,)),
                                      rng_full.uniform((4,)))


def labeled_case(cfg, seed):
    tokens = Rng(seed).integers(0, cfg.vocab_size, (3, 6))
    labels = np.full(tokens.shape, -1)
    labels[[0, 1, 1, 2], [5, 0, 3, 2]] = [1, 7, 0, cfg.vocab_size - 1]
    return tokens, labels


@pytest.mark.parametrize("arch,routing", VARIANTS)
def test_forward_mlm_rows_match_full_logits(arch, routing):
    # The loss is that of the labeled rows of the logits over every
    # position, bit for bit, with dropout and after it.
    cfg = toy_config(arch=arch, routing=routing, n_heads=2, dropout=0.3)
    params = init_model(cfg, Rng(64))
    tokens, labels = labeled_case(cfg, 65)
    rows = T.labeled_rows(labels)
    table = params.embeddings.token_table.data
    for train in (False, True):
        rng_full, rng_rows = Rng(66), Rng(66)
        with no_grad():
            head = mlm_head(tokens, cfg, params, train=train,
                            rng=rng_full).data
            got = forward_mlm(tokens, labels, cfg, params, train=train,
                              rng=rng_rows)
        want, _ = unblocked_cross_entropy((head @ table.T)[rows],
                                          labels.reshape(-1)[rows])
        assert float(got.data) == want
        np.testing.assert_array_equal(rng_rows.uniform((4,)),
                                      rng_full.uniform((4,)))


@pytest.mark.parametrize("arch,routing", VARIANTS)
def test_forward_mlm_labels_give_the_loss_of_the_labeled_logits(arch,
                                                                 routing):
    cfg = toy_config(arch=arch, routing=routing, n_heads=2)
    params = init_model(cfg, Rng(67))
    tokens, labels = labeled_case(cfg, 68)
    rows = T.labeled_rows(labels)
    with no_grad():
        want = T.masked_cross_entropy(
            mlm_head(tokens, cfg, params, rows), labels.reshape(-1)[rows],
            params.embeddings.token_table)
        got = forward_mlm(tokens, labels, cfg, params)
    assert got.shape == () and float(got.data) == float(want.data)


def test_forward_mlm_labels_are_checked():
    cfg = toy_config()
    params = init_model(cfg, Rng(69))
    tokens = np.zeros((2, 6), dtype=np.int64)
    with pytest.raises(ValueError, match="does not match tokens"):
        forward_mlm(tokens, np.zeros(12, dtype=np.int64), cfg, params)


def test_forward_mlm_rows_gradients():
    # Two layers put the block that runs on the labeled rows behind a
    # full one.
    tokens = np.array([[1, 4, 7, 2], [9, 3, 3, 6]])
    labels = np.array([[3, -1, 5, -1], [-1, 10, -1, 0]])
    for n_layers in (1, 2):
        cfg = toy_config(n_layers=n_layers, d_model=4, n_state=2,
                         vocab_size=11)
        params = init_model(cfg, Rng(66))
        if n_layers == 2:
            for blk in params.blocks:
                boost_gated_weights(blk)
        names = [(n, t) for n, t in params.trainable_parameters()]
        check_grads(lambda: forward_mlm(tokens, labels, cfg, params),
                    names, tol=2e-4)


@pytest.mark.parametrize("arch,routing", VARIANTS)
def test_forward_mlm_rows_gradients_match_gathering_after_the_blocks(
        arch, routing):
    cfg = toy_config(arch=arch, routing=routing, n_heads=2, dropout=0.1)
    params = init_model(cfg, Rng(70))
    if arch == "gated":
        for blk in params.blocks:
            boost_gated_weights(blk)
    tokens = Rng(71).integers(0, cfg.vocab_size, (3, 6))
    labels = np.full(tokens.shape, -1)
    labels.reshape(-1)[[17, 0, 7, 12, 2]] = Rng(72).integers(
        0, cfg.vocab_size, (5,))
    rows = T.labeled_rows(labels)
    table = params.embeddings.token_table
    named = list(params.trainable_parameters())
    grads = []
    for forward in (
            lambda rng: forward_mlm(tokens, labels, cfg, params, train=True,
                                    rng=rng),
            lambda rng: T.masked_cross_entropy(
                mlm_head(tokens, cfg, params, rows, train=True, rng=rng),
                labels.reshape(-1)[rows], table)):
        for _, t in named:
            t.zero_grad()
        backward(forward(Rng(73)))
        grads.append([t.grad.copy() for _, t in named])
    for (name, _), got, want in zip(named, *grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=name)


def test_forward_mlm_longer_than_max_len_without_positions():
    cfg = toy_config(n_layers=1, max_len=8)
    params = init_model(cfg, Rng(46))
    tokens = Rng(47).integers(0, cfg.vocab_size, (32,))
    with no_grad():
        loss = forward_mlm(tokens, every_label(tokens), cfg, params)
    assert np.isfinite(loss.data)


def test_forward_mlm_position_table_bounds():
    cfg = toy_config(arch="stacked", routing="attention", n_layers=1,
                     max_len=8, n_heads=2)
    params = init_model(cfg, Rng(48))
    tokens = Rng(49).integers(0, cfg.vocab_size, (9,))
    with pytest.raises(ValueError, match="exceeds"):
        forward_mlm(tokens, every_label(tokens), cfg, params)


def test_forward_mlm_position_embeddings_used():
    cfg = toy_config(arch="stacked", routing="attention", n_layers=1,
                     n_heads=2)
    params = init_model(cfg, Rng(50))
    assert params.embeddings.position_table is not None
    tokens = np.array([5, 5, 5, 5])
    with no_grad():
        first, second = (float(forward_mlm(tokens, labels, cfg,
                                           params).data)
                         for labels in ([5, -1, -1, -1], [-1, 5, -1, -1]))
    # Same token at different positions must differ once positions exist.
    assert abs(first - second) > 1e-9


def test_forward_mlm_dropout_replayable():
    cfg = toy_config(n_layers=1, dropout=0.2)
    params = init_model(cfg, Rng(51))
    boost_gated_weights(params.blocks[0])
    tokens = Rng(52).integers(0, cfg.vocab_size, (8,))
    labels = every_label(tokens)
    with no_grad():
        a, b, c = (float(forward_mlm(tokens, labels, cfg, params,
                                     train=True, rng=Rng(seed)).data)
                   for seed in (99, 99, 100))
    assert a == b
    assert abs(a - c) > 1e-9


def test_forward_mlm_end_to_end_gradients():
    cfg = toy_config(n_layers=1, d_model=4, n_state=2, vocab_size=11)
    params = init_model(cfg, Rng(53))
    tokens = np.array([1, 4, 7, 2])
    labels = np.array([3, -1, 5, -1])
    names = [(n, t) for n, t in params.trainable_parameters()]
    check_grads(lambda: forward_mlm(tokens, labels, cfg, params), names,
                tol=2e-4)


# ---------------------------------------------------------------------------
# parameter accounting


def test_param_count_gated_weights_identity():
    cfg = ModelConfig(arch="gated", routing="ssm")
    counts = param_count(cfg)
    assert counts["block_weights"] == 13 * 1024 * 1024


def test_param_count_stacked_attention_identity():
    cfg = ModelConfig(arch="stacked", routing="attention")
    counts = param_count(cfg)
    assert counts["block_weights"] == 12 * 1024 * 1024


def test_param_count_full_model_in_published_band():
    cfg = ModelConfig(arch="gated", routing="ssm")
    total = param_count(cfg)["total"]
    assert 330_000_000 <= total <= 370_000_000


def test_param_count_matches_allocation_all_variants():
    for arch in ("gated", "stacked"):
        for routing in ("ssm", "attention"):
            cfg = toy_config(arch=arch, routing=routing, n_heads=2)
            params = init_model(cfg, Rng(54))
            want = param_count(cfg)["total"]
            got = sum(t.data.size for _, t in params.named_parameters())
            assert got == want, (arch, routing, got, want)


def test_tied_head_shares_storage():
    cfg = toy_config()
    params = init_model(cfg, Rng(55))
    names = [n for n, _ in params.named_parameters()]
    assert names.count("embeddings.token_table") == 1
    # Nudging the table must move the loss through the tied decoder.
    tokens = np.array([1, 2, 3])
    with no_grad():
        before = float(forward_mlm(tokens, tokens, cfg, params).data)
        params.embeddings.token_table.data[:, :] *= 1.5
        after = float(forward_mlm(tokens, tokens, cfg, params).data)
    assert abs(after - before) > 1e-9


def test_named_parameters_stable_order():
    cfg = toy_config()
    p1 = init_model(cfg, Rng(56))
    p2 = init_model(cfg, Rng(56))
    n1 = [n for n, _ in p1.named_parameters()]
    n2 = [n for n, _ in p2.named_parameters()]
    assert n1 == n2
    assert len(n1) == len(set(n1))


def test_named_parameters_pinned_order():
    # Checkpoints and AdamW state are keyed by these names, in this order.
    gated = init_model(toy_config(n_layers=1), Rng(57))
    ssm = ["log_neg_re", "im", "c_re", "c_im", "log_dt", "d"]
    want = (
        ["embeddings.token_table", "embeddings.head_transform",
         "embeddings.head_ln_gain", "embeddings.head_ln_bias"]
        + ["blocks.0." + n for n in (
            "ln_gain", "ln_bias", "w_v", "w_f", "w_b", "w_u1", "w_u2",
            "w_u", "w_o")]
        + ["blocks.0.ssm_fwd." + n for n in ssm]
        + ["blocks.0.ssm_bwd." + n for n in ssm])
    assert [n for n, _ in gated.named_parameters()] == want
    stacked = init_model(toy_config(arch="stacked", routing="attention",
                                    n_layers=1), Rng(58))
    want = [
        "embeddings.token_table", "embeddings.position_table",
        "embeddings.head_transform", "embeddings.head_ln_gain",
        "embeddings.head_ln_bias", "blocks.0.ln1_gain", "blocks.0.ln1_bias",
        "blocks.0.ln2_gain", "blocks.0.ln2_bias", "blocks.0.w_ffn1",
        "blocks.0.w_ffn2", "blocks.0.attn.w_q", "blocks.0.attn.w_k",
        "blocks.0.attn.w_v", "blocks.0.attn.w_out",
    ]
    assert [n for n, _ in stacked.named_parameters()] == want


def test_every_parameter_field_is_set_by_some_variant():
    # A field that no variant fills is an option no model uses.
    seen = set()

    def collect(obj):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if value is not None:
                seen.add((type(obj), f.name))
            if isinstance(value, AttentionParams):
                collect(value)

    for arch in ("gated", "stacked"):
        for routing in ("ssm", "attention"):
            params = init_model(toy_config(arch=arch, routing=routing,
                                           n_layers=1), Rng(59))
            collect(params.embeddings)
            collect(params.blocks[0])
    for cls in (AttentionParams, GatedBlockParams, StackedBlockParams,
                EmbeddingParams):
        unset = [f.name for f in fields(cls) if (cls, f.name) not in seen]
        assert unset == [], (cls.__name__, unset)
