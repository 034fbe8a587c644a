"""Checkpoint files: manifest layout and bit-exact round-trips."""

import json
import os

import numpy as np
import pytest

from gatedssm.checkpoint import (
    BUFFER_NAME,
    MANIFEST_NAME,
    load_checkpoint,
    load_into,
    save_checkpoint,
)
from gatedssm.model import ModelConfig, init_model
from gatedssm.numerics import Rng


def test_round_trip_bit_exact(tmp_path):
    rng = Rng(0)
    entries = [
        ("alpha", rng.normal((3, 4))),
        ("beta", rng.normal((7,))),
        ("gamma.scalar", np.array(np.pi)),
    ]
    save_checkpoint(str(tmp_path), entries, meta={"step": 12})
    loaded, meta = load_checkpoint(str(tmp_path))
    assert meta == {"step": 12}
    assert set(loaded) == {"alpha", "beta", "gamma.scalar"}
    for name, arr in entries:
        assert loaded[name].shape == np.shape(arr)
        assert loaded[name].tobytes() == np.asarray(arr).tobytes()


def test_buffer_is_little_endian_concatenation(tmp_path):
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([[4.0], [5.0]])
    save_checkpoint(str(tmp_path), [("a", a), ("b", b)])
    raw = (tmp_path / BUFFER_NAME).read_bytes()
    want = a.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    assert raw == want
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    offsets = {e["name"]: e["offset"] for e in manifest["entries"]}
    assert offsets == {"a": 0, "b": 24}
    shapes = {e["name"]: e["shape"] for e in manifest["entries"]}
    assert shapes == {"a": [3], "b": [2, 1]}


def test_buffer_bytes_for_mixed_layouts(tmp_path):
    rng = Rng(3)
    flat = rng.normal((20,)).copy()
    entries = [
        ("scalar", np.array(2.5)),
        ("matrix", rng.normal((3, 4))),
        ("transposed", rng.normal((4, 5)).T),
        ("flat_view", flat[6:18].reshape(3, 4)),
        ("ints", np.arange(5)),
        ("empty", np.zeros((0, 3))),
    ]
    assert not entries[2][1].flags.c_contiguous
    assert entries[3][1].base is flat
    save_checkpoint(str(tmp_path), entries)
    want = b"".join(np.asarray(a).astype("<f8").tobytes()
                    for _, a in entries)
    assert (tmp_path / BUFFER_NAME).read_bytes() == want
    loaded, _ = load_checkpoint(str(tmp_path))
    for name, arr in entries:
        assert loaded[name].shape == arr.shape
        np.testing.assert_array_equal(loaded[name], arr)


def test_rejects_duplicate_names(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        save_checkpoint(str(tmp_path),
                        [("x", np.zeros(2)), ("x", np.ones(2))])


def test_rejects_truncated_buffer(tmp_path):
    save_checkpoint(str(tmp_path), [("x", np.zeros(8))])
    buf = tmp_path / BUFFER_NAME
    buf.write_bytes(buf.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        load_checkpoint(str(tmp_path))


def test_rejects_unknown_version(tmp_path):
    save_checkpoint(str(tmp_path), [("x", np.zeros(2))])
    man = tmp_path / MANIFEST_NAME
    doc = json.loads(man.read_text())
    doc["version"] = 999
    man.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(str(tmp_path))


def test_no_tmp_files_left_behind(tmp_path):
    save_checkpoint(str(tmp_path), [("x", np.ones(4))], meta={})
    assert sorted(os.listdir(tmp_path)) == sorted([BUFFER_NAME,
                                                   MANIFEST_NAME])


def test_model_round_trip_restores_forward(tmp_path):
    from gatedssm.model import forward_mlm
    from gatedssm.numerics import no_grad

    cfg = ModelConfig(arch="gated", routing="ssm", n_layers=2, d_model=8,
                      n_state=4, max_len=16, vocab_size=40, dropout=0.0)
    params = init_model(cfg, Rng(1))
    tokens = Rng(2).integers(0, cfg.vocab_size, (10,))
    with no_grad():
        want = float(forward_mlm(tokens, tokens, cfg, params).data)

    save_checkpoint(str(tmp_path),
                    [(n, t.data) for n, t in params.named_parameters()],
                    meta={"step": 0})

    fresh = init_model(cfg, Rng(77))
    with no_grad():
        before = float(forward_mlm(tokens, tokens, cfg, fresh).data)
    assert abs(before - want) > 1e-6

    loaded, _ = load_checkpoint(str(tmp_path))
    load_into(((n, t.data) for n, t in fresh.named_parameters()), loaded)
    with no_grad():
        after = float(forward_mlm(tokens, tokens, cfg, fresh).data)
    assert after == want


def test_load_into_strictness():
    # Every bad entry is caught before the first copy, so no target moves.
    targets = [("a", np.zeros(3)), ("b", np.zeros(())),
               ("c", np.zeros((2, 2)))]
    good = {name: np.ones(arr.shape) for name, arr in targets}
    cases = [
        (ValueError, "missing entry 'c'",
         {k: v for k, v in good.items() if k != "c"}),
        (ValueError,
         r"shape mismatch for 'c': checkpoint \(4,\), model \(2, 2\)",
         {**good, "c": np.ones(4)}),
        (ValueError, r"unused entries: \['stray'\]",
         {**good, "stray": np.ones(1)}),
    ]
    for error, message, entries in cases:
        with pytest.raises(error, match=message) as err:
            load_into(targets, entries)
        assert "\n" not in str(err.value)
        for name, arr in targets:
            np.testing.assert_array_equal(arr, 0.0, err_msg=name)
    load_into(targets, good)
    for name, arr in targets:
        np.testing.assert_array_equal(arr, 1.0, err_msg=name)


@pytest.mark.parametrize("name,fields,message", [
    ("b", {"size": 2}, "entry 'b' has size 2"),
    ("c", {"offset": 64}, "entry 'c' starts at byte 64"),
    ("c", {"shape": [5], "size": 5}, "entry 'c' ends at byte 96"),
    ("c", {"shape": [3], "size": 3}, "last entry 'c'"),
], ids=["size-unlike-shape", "wrong-offset", "past-the-buffer",
        "short-of-the-buffer"])
def test_rejects_manifest_that_does_not_tile_the_buffer(tmp_path, name,
                                                        fields, message):
    save_checkpoint(str(tmp_path), [("a", np.zeros(4)), ("b", np.ones(3)),
                                    ("c", np.ones((2, 2)))])
    man = tmp_path / MANIFEST_NAME
    doc = json.loads(man.read_text())
    next(e for e in doc["entries"] if e["name"] == name).update(fields)
    man.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(str(tmp_path))
