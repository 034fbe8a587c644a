"""Checkpoint files: layout, bit-exact round-trips and crash safety."""

import json
import os

import numpy as np
import pytest
from conftest import rewrite_manifest

import gatedssm.checkpoint as checkpoint
from gatedssm.checkpoint import (
    STATE_NAME,
    load_checkpoint,
    load_into,
    save_checkpoint,
)
from gatedssm.model import ModelConfig, init_model
from gatedssm.numerics import Rng
from gatedssm.pretrain import TrainConfig, train_mlm


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
    manifest, raw = rewrite_manifest(tmp_path, lambda doc: None)
    want = a.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    assert raw == want
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
    assert (tmp_path / STATE_NAME).read_bytes().endswith(want)
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
    state = tmp_path / STATE_NAME
    state.write_bytes(state.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        load_checkpoint(str(tmp_path))


def test_rejects_unknown_version(tmp_path):
    save_checkpoint(str(tmp_path), [("x", np.zeros(2))])
    rewrite_manifest(tmp_path, lambda doc: None, version=999)
    with pytest.raises(ValueError, match="^unsupported checkpoint version "
                                         "999$"):
        load_checkpoint(str(tmp_path))


def test_refuses_a_version_1_directory(tmp_path):
    # Version 1 kept the manifest beside a separate params.bin.
    (tmp_path / "manifest.json").write_text(json.dumps({"version": 1}))
    (tmp_path / "params.bin").write_bytes(bytes(8))
    with pytest.raises(ValueError, match=(
            f"^{tmp_path} holds a version 1 checkpoint; this program "
            f"reads only version 2$")):
        load_checkpoint(str(tmp_path))


def test_no_tmp_files_left_behind(tmp_path):
    save_checkpoint(str(tmp_path), [("x", np.ones(4))], meta={})
    assert os.listdir(tmp_path) == [STATE_NAME]


def counted_replace(monkeypatch, fail_at=None):
    """Record the destination of each os.replace call, and make call
    number `fail_at` (from 0) raise without renaming anything."""
    calls = []

    def replace(src, dst, _real=os.replace):
        calls.append(dst)
        if len(calls) - 1 == fail_at:
            raise OSError("injected rename failure")
        _real(src, dst)

    monkeypatch.setattr(checkpoint.os, "replace", replace)
    return calls


def test_a_save_is_one_file_and_one_rename(tmp_path, monkeypatch):
    calls = counted_replace(monkeypatch)
    save_checkpoint(str(tmp_path), [("x", np.ones(4)), ("y", np.ones(2))])
    assert calls == [str(tmp_path / STATE_NAME)]


def fail_writes_after_the_first(monkeypatch):
    """Make every write to a file the checkpoint module opens fail after
    the first, as when the disk fills while the buffer is written."""
    def failing_open(*args, _real=open, **kwargs):
        f = _real(*args, **kwargs)
        real_write, writes = f.write, []

        def write(data):
            writes.append(len(data))
            if len(writes) > 1:
                raise OSError("injected write failure")
            return real_write(data)

        f.write = write
        return f

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)


def save_bare(directory, seed):
    rng = Rng(seed)
    save_checkpoint(directory, [("a", rng.normal((3, 4))),
                                ("b", rng.normal((5,)))],
                    meta={"seed": seed})
    return directory


def save_periodic(directory, seed):
    """Train 3 steps into the parent of `directory`, which is the
    step-1 checkpoint."""
    ids = Rng(seed).integers(0, 40, (8, 8))
    cfg = ModelConfig(arch="gated", routing="ssm", n_layers=1, d_model=8,
                      n_state=4, max_len=8, vocab_size=40, dropout=0.0)
    tc = TrainConfig(steps=3, batch_size=2, seed=seed, checkpoint_every=1)
    train_mlm(cfg, tc, ids, ids, os.path.dirname(directory))
    return directory


@pytest.mark.parametrize("fault", ["rename", "buffer-write"])
@pytest.mark.parametrize("save", [save_bare, save_periodic],
                         ids=["save_checkpoint", "train_mlm"])
def test_failed_save_leaves_the_old_checkpoint(tmp_path, monkeypatch,
                                               fault, save):
    ckpt = str(tmp_path / "run" / "checkpoint-step-1")
    state = tmp_path / "run" / "checkpoint-step-1" / STATE_NAME
    save(ckpt, seed=1)
    old_bytes = state.read_bytes()
    old_entries, old_meta = load_checkpoint(ckpt)
    if fault == "rename":
        # Fail each rename a clean save makes, one save at a time.
        with monkeypatch.context() as probe:
            calls = counted_replace(probe)
            save_bare(str(tmp_path / "probe"), seed=3)
        points = range(len(calls))
    else:
        points = [None]
    for point in points:
        with monkeypatch.context() as m:
            if fault == "rename":
                counted_replace(m, fail_at=point)
            else:
                fail_writes_after_the_first(m)
            with pytest.raises(OSError, match="injected"):
                save(ckpt, seed=2)
        entries, meta = load_checkpoint(ckpt)
        assert meta == old_meta
        assert entries.keys() == old_entries.keys()
        for name, arr in entries.items():
            assert arr.tobytes() == old_entries[name].tobytes(), name
        assert state.read_bytes() == old_bytes


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
    ("b", {"shape": [-1], "size": -1},
     r"entry 'b' has shape \[-1\]; each dimension must be an integer"),
    ("c", {"name": "b"}, "duplicate checkpoint entry 'b'"),
], ids=["size-unlike-shape", "wrong-offset", "past-the-buffer",
        "short-of-the-buffer", "negative-size", "duplicate-name"])
def test_rejects_manifest_that_does_not_tile_the_buffer(tmp_path, name,
                                                        fields, message):
    save_checkpoint(str(tmp_path), [("a", np.zeros(4)), ("b", np.ones(3)),
                                    ("c", np.ones((2, 2)))])

    def edit(doc):
        next(e for e in doc["entries"] if e["name"] == name).update(fields)

    rewrite_manifest(tmp_path, edit)
    with pytest.raises(ValueError, match=message) as err:
        load_checkpoint(str(tmp_path))
    assert "\n" not in str(err.value)
