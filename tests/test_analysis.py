"""Kernel export, FLOP estimator, and behavioral probes."""

import json
import os

import numpy as np
import pytest

from gatedssm.analysis import (
    CROP_RADIUS,
    FlopReport,
    attention_scores,
    dump_kernels,
    flop_estimate,
    full_table_configs,
    kernel_diff,
    probe_causality,
    write_flop_csv,
    write_kernel_csv,
)
from gatedssm.checkpoint import load_into, save_checkpoint, load_checkpoint
from gatedssm.model import ModelConfig, forward_mlm, init_model
from gatedssm.numerics import Rng, backward
from gatedssm.pretrain import AdamW
from gatedssm.ssm import discretize, init_s4d, materialize_kernel

TABLE = {  # length -> (gated kernel model, stacked attention model)
    128: (8.1e10, 7.9e10),
    512: (3.2e11, 3.4e11),
    1024: (6.5e11, 7.2e11),
    4096: (2.6e12, 4.1e12),
}
RATIOS = {128: 1.03, 512: 0.94, 1024: 0.90, 4096: 0.63}


def toy_cfg(**kw) -> ModelConfig:
    base = dict(arch="gated", routing="ssm", n_layers=2, d_model=16,
                n_state=8, max_len=32, vocab_size=40, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# kernel dump


def test_dump_two_kernels_per_layer():
    params = init_model(toy_cfg(), Rng(0))
    dump = dump_kernels(params)
    assert dump.length == 32
    assert dump.n_layers == 2
    assert len(dump.kernels) == 4
    assert [(s.layer, s.direction) for s in dump.kernels] == [
        (0, "forward"), (0, "backward"),
        (1, "forward"), (1, "backward"),
    ]


def test_dump_taps_are_bit_exact_passthrough():
    params = init_model(toy_cfg(), Rng(1))
    dump = dump_kernels(params)
    want = materialize_kernel(
        discretize(params.blocks[0].ssm_fwd), 32).data
    np.testing.assert_array_equal(dump.kernels[0].taps, want)
    assert dump.kernels[0].taps.shape == (32,)


def test_dump_normalization_bounds():
    params = init_model(toy_cfg(), Rng(2))
    for s in dump_kernels(params).kernels:
        vals = s.normalized_crop[s.in_window]
        assert vals.min() == 0.0
        assert vals.max() == 1.0
        assert np.all((s.normalized_crop >= 0) & (s.normalized_crop <= 1))


def test_dump_crop_orientation():
    params = init_model(toy_cfg(), Rng(3))
    fwd, bwd = dump_kernels(params).kernels[:2]
    offsets = fwd.offsets
    # Forward kernels only reach offsets <= 0, backward only >= 0.
    assert np.all(fwd.in_window == (offsets <= 0))
    assert np.all(bwd.in_window == (offsets >= 0))
    assert np.all(fwd.crop[offsets > 0] == 0.0)
    assert np.all(bwd.crop[offsets < 0] == 0.0)
    np.testing.assert_array_equal(fwd.crop[offsets <= 0],
                                  fwd.taps[:CROP_RADIUS + 1][::-1])
    np.testing.assert_array_equal(bwd.crop[offsets >= 0],
                                  bwd.taps[:CROP_RADIUS + 1])


def test_dump_normalization_scale_invariant():
    params = init_model(toy_cfg(), Rng(4))
    before = dump_kernels(params)
    for blk in params.blocks:
        for p in (blk.ssm_fwd, blk.ssm_bwd):
            p.c_re.data *= 2.7
            p.c_im.data *= 2.7
    after = dump_kernels(params)
    for a, b in zip(before.kernels, after.kernels):
        assert not np.array_equal(a.taps, b.taps)
        np.testing.assert_allclose(b.normalized_crop, a.normalized_crop,
                                   atol=1e-12)


def test_dump_rejects_attention_models():
    params = init_model(toy_cfg(routing="attention", n_heads=4), Rng(5))
    with pytest.raises(ValueError, match="no kernels"):
        dump_kernels(params)


def test_dump_stable_through_checkpoint(tmp_path):
    params = init_model(toy_cfg(), Rng(6))
    first = dump_kernels(params)
    save_checkpoint(str(tmp_path),
                    ((n, t.data) for n, t in params.named_parameters()))
    entries, _ = load_checkpoint(str(tmp_path))
    restored = init_model(toy_cfg(), Rng(7))
    load_into(((n, t.data) for n, t in restored.named_parameters()),
              entries)
    second = dump_kernels(restored)
    for a, b in zip(first.kernels, second.kernels):
        np.testing.assert_array_equal(a.taps, b.taps)
        np.testing.assert_array_equal(a.normalized_crop, b.normalized_crop)


def test_dump_works_for_stacked_ssm_models():
    params = init_model(toy_cfg(arch="stacked"), Rng(8))
    assert len(dump_kernels(params).kernels) == 4


def test_kernel_csv_format(tmp_path):
    params = init_model(toy_cfg(), Rng(9))
    dump = dump_kernels(params)
    path = str(tmp_path / "kernels.csv")
    sidecar = write_kernel_csv(dump, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "layer,direction,relative_position,tap,normalized_tap"
    assert len(lines) == 1 + 4 * (2 * CROP_RADIUS + 1)
    row = lines[1].split(",")
    assert row[:3] == ["0", "forward", "-10"]
    assert float(row[3]) == dump.kernels[0].crop[0]
    assert float(row[4]) == dump.kernels[0].normalized_crop[0]
    # Off-window cells: zero tap, empty normalized column.
    last = lines[21].split(",")
    assert last[:3] == ["0", "forward", "10"]
    assert float(last[3]) == 0.0
    assert last[4] == ""
    meta = json.load(open(sidecar))
    assert meta["length"] == 32
    assert meta["n_layers"] == 2
    assert "orientation" in meta["convention"]


def test_kernel_diff():
    params = init_model(toy_cfg(), Rng(10))
    base = dump_kernels(params)
    assert all(r["max_abs_delta"] == 0.0
               for r in kernel_diff(base, dump_kernels(params)))
    params.blocks[1].ssm_bwd.c_re.data += 0.25
    rows = kernel_diff(base, dump_kernels(params))
    changed = {(r["layer"], r["direction"]): r["max_abs_delta"]
               for r in rows}
    assert changed[(1, "backward")] > 0.0
    assert changed[(0, "forward")] == 0.0
    other = dump_kernels(init_model(toy_cfg(n_layers=3), Rng(11)))
    with pytest.raises(ValueError, match="shape"):
        kernel_diff(base, other)


# ---------------------------------------------------------------------------
# FLOP estimator


def test_flop_components_sum_to_total():
    for cfg in (toy_cfg(), toy_cfg(routing="attention", n_heads=4),
                toy_cfg(arch="stacked"),
                toy_cfg(arch="stacked", routing="attention", n_heads=4)):
        r = flop_estimate(cfg, 64)
        assert r.total == pytest.approx(sum(r.components.values()), rel=0)
        assert set(r.components) == {"projections", "ssm", "attention",
                                     "ffn", "layer_norm"}


def test_flop_linear_terms_double_with_length():
    cfg = toy_cfg(arch="stacked", routing="attention", n_heads=4)
    a, b = flop_estimate(cfg, 64), flop_estimate(cfg, 128)
    for name in ("projections", "ffn", "layer_norm"):
        assert b.components[name] == 2 * a.components[name]
    assert b.components["attention"] == 4 * a.components["attention"]


def test_flop_monotonicity():
    cfg = toy_cfg()
    totals = [flop_estimate(cfg, L).total for L in (16, 64, 256, 1024)]
    assert totals == sorted(totals)
    assert (flop_estimate(toy_cfg(n_layers=4), 64).total
            > flop_estimate(toy_cfg(n_layers=2), 64).total)
    assert (flop_estimate(toy_cfg(d_model=32), 64).total
            > flop_estimate(toy_cfg(d_model=16), 64).total)


def test_flop_variant_components():
    assert flop_estimate(toy_cfg(), 64).components["attention"] == 0.0
    assert flop_estimate(toy_cfg(), 64).components["ssm"] > 0.0
    assert flop_estimate(toy_cfg(), 64).components["ffn"] == 0.0
    att = flop_estimate(toy_cfg(routing="attention", n_heads=4), 64)
    assert att.components["ssm"] == 0.0
    assert att.components["attention"] > 0.0
    stacked = flop_estimate(toy_cfg(arch="stacked"), 64)
    assert stacked.components["ffn"] > 0.0
    assert stacked.components["ssm"] > 0.0


def test_flop_reference_table_anchors():
    gated, stacked = full_table_configs()
    assert gated.n_layers == 23 and stacked.n_layers == 24
    for length, (want_g, want_s) in TABLE.items():
        g = flop_estimate(gated, length).total
        s = flop_estimate(stacked, length).total
        assert want_g / 2 < g < want_g * 2
        assert want_s / 2 < s < want_s * 2
        assert abs(g / s - RATIOS[length]) <= 0.10
        if length >= 512:
            assert g < s


def test_flop_rejects_bad_length():
    with pytest.raises(ValueError, match="length"):
        flop_estimate(toy_cfg(), 0)


def test_flop_csv_format(tmp_path):
    gated, stacked = full_table_configs()
    reports = [flop_estimate(c, 128) for c in (gated, stacked)]
    path = str(tmp_path / "flops.csv")
    write_flop_csv(reports, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "model,length,component,flops"
    assert len(lines) == 1 + 2 * 6
    body = [line.split(",") for line in lines[1:]]
    totals = {r[0]: float(r[3]) for r in body if r[2] == "total"}
    for rep in reports:
        parts = sum(float(r[3]) for r in body
                    if r[0] == rep.model and r[2] != "total")
        assert totals[rep.model] == pytest.approx(parts)
        assert totals[rep.model] == rep.total


# ---------------------------------------------------------------------------
# probes


def test_probe_causality_clean_ssm():
    p = init_s4d(16, rng=Rng(12))
    report = probe_causality(p, 64, trials=20, rng=Rng(13))
    assert report["passed"]
    assert report["forward_violations"] == 0
    assert report["backward_violations"] == 0
    assert report["forward_max_leak"] < 1e-12
    assert report["backward_max_leak"] < 1e-12
    assert len(report["positions"]) == 20


def test_probe_causality_edge_positions():
    p = init_s4d(8, rng=Rng(14))
    report = probe_causality(p, 32, positions=[31, 0], rng=Rng(15))
    assert report["passed"]
    # Perturbing the ends exercises the vacuous sides too.
    assert report["forward_max_leak"] == 0.0 or report["forward_max_leak"] < 1e-12
    assert report["backward_max_leak"] < 1e-12


def test_attention_scores_depend_on_the_input():
    u1 = Rng(17).normal((24, 3))
    u2 = Rng(18).normal((24, 3))
    cfg = toy_cfg(routing="attention", n_heads=4)
    params = init_model(cfg, Rng(19))
    attn = params.blocks[0].attn_fwd
    s1 = attention_scores(u1 @ Rng(20).normal((3, 16)), attn, 4)
    s2 = attention_scores(u2 @ Rng(20).normal((3, 16)), attn, 4)
    assert s1.shape == (4, 24, 24)
    np.testing.assert_allclose(s1.sum(axis=-1), 1.0, atol=1e-12)
    assert np.max(np.abs(s1 - s2)) > 0.0


@pytest.mark.parametrize("d, n_heads, message", [
    (16, 0, "n_heads >= 1, got 0"),
    (6, 4, "width 6 is not divisible by n_heads 4"),
])
def test_attention_scores_rejects_bad_heads(d, n_heads, message):
    cfg = toy_cfg(routing="attention", d_model=d, n_heads=2)
    attn = init_model(cfg, Rng(19)).blocks[0].attn_fwd
    with pytest.raises(ValueError, match=message):
        attention_scores(Rng(20).normal((24, d)), attn, n_heads)


def test_probe_kernel_moves_after_training_step():
    cfg = toy_cfg(max_len=8)
    params = init_model(cfg, Rng(21))
    before = dump_kernels(params)
    tokens = Rng(22).integers(5, cfg.vocab_size, (8,))
    labels = np.full(8, -1)
    labels[2] = int(tokens[2])
    loss = forward_mlm(tokens, labels, cfg, params)
    opt = AdamW(params.trainable_parameters())
    backward(loss)
    opt.step(lr=1e-2)
    rows = kernel_diff(before, dump_kernels(params))
    assert max(r["max_abs_delta"] for r in rows) > 0.0
