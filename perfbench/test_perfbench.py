"""Tests of the benchmark itself.

Each workload runs at its smoke size, untraced and traced: the result
line must carry exactly the metrics BENCHMARK.json names, each with
its unit, and the correctness gate must have run its checks and passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.2",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    checks = json.loads(next(line for line in lines
                             if line.startswith("checks: "))[8:])
    expected = {"finite_losses", "reference_losses", "setup_repeats"}
    if trace:
        expected.add("trace_matches_untraced")
    if workload != "bert-attn-l128-v30k":
        expected.add("scan_oracle")
    if workload != "extend-gated-l2048":
        expected.add("checkpoint_roundtrip")
    assert expected <= set(checks), checks
    machine = json.loads(lines[0])["machine"]
    assert {"nproc", "blas", "blas_version", "blas_threads", "numpy",
            "scipy"} <= set(machine)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_per_layer_metric_is_mapped():
    mapping = json.loads((HERE / "metric_map.json").read_text())["per_layer"]
    assert set(mapping) == {m["name"] for m in BENCH["per_layer"]}
    names = {m["name"] for m in BENCH["end_to_end"]}
    for entry in mapping.values():
        for move in entry["moves"]:
            assert move["metric"] in names
            assert move["workload"] in WORKLOADS


def test_reference_gap_rules():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import reference_gap
    finally:
        del sys.path[:2]
    refs = {"0": [4.0, 3.0], "1": [4.2, 3.1]}
    assert reference_gap(refs, 0, [4.0, 3.0]) == ""
    assert reference_gap(refs, 0, [4.0, 3.0 * (1 + 1e-9)]) == ""
    assert reference_gap(refs, 0, [4.0, 3.0 + 1e-4]) != ""
    assert reference_gap(refs, 1, [4.0, 3.0]) != ""
    assert reference_gap(refs, 0, [4.0]) != ""
    assert reference_gap(refs, 7, [4.1, 3.05]) != ""


def test_every_input_set_has_a_reference():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import INPUT_SETS, SMOKE, WORKLOADS, load_reference
    finally:
        del sys.path[:2]
    refs = load_reference()
    for mode, table in (("full", WORKLOADS), ("smoke", SMOKE)):
        assert set(refs[mode]) == set(table)
        for name, w in table.items():
            assert set(refs[mode][name]) == {str(s) for s in
                                             range(INPUT_SETS)}, name
            for values in refs[mode][name].values():
                assert len(values) == w.steps + 1, name


def test_reference_catches_training_without_updates(tmp_path, monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from gatedssm.pretrain import AdamW
        from tracer import NullTracer
        from workloads import SMOKE, load_reference, reference_gap, \
            run_trial, setup
    finally:
        del sys.path[:2]
    w = SMOKE["toy-gated-l32"]
    refs = load_reference()["smoke"][w.name]
    prep = setup(w, 5, str(tmp_path / "setup"))

    def values(out):
        trial = run_trial(w, prep, 5, str(tmp_path / out), NullTracer())
        return trial.losses + [trial.heldout_loss]

    assert reference_gap(refs, 5, values("trained")) == ""
    monkeypatch.setattr(AdamW, "step", lambda self, lr: None)
    assert reference_gap(refs, 5, values("frozen")) != ""
