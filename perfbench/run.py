"""gatedssm benchmark: MLM pretraining workloads through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy-gated-l32 --seed 1 \
        --seconds 20 --trace 0

The seed picks one of `INPUT_SETS` input sets, each with stored
losses. A run sets up the workload, checks the convolution against the
recurrence oracle, then runs trials (fixed-step training, checkpoint
reload, held-out evaluation) until `--seconds` have passed, with one
more set-up before each trial (and after the last until there are
SETUP_MIN_REPS), and reports medians over the trials and the set-ups
(`setup_s`).
With `--trace 1` it alternates untraced and traced trials and reports
the per-layer metrics of the traced ones instead; the spans go to
`.perfbench_out/` at the end. `--smoke` runs the same code at a tiny
size. The last line of standard output is the JSON result; earlier
lines describe the machine and the checks.

The package is imported from `src/` of the checkout this file sits in,
never from an installed copy, and a run reads and writes only inside
that checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

# BLAS threads are pinned before numpy loads (only main() imports it);
# the count is recorded with the machine.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
# Set-ups run back to back after the trials until there are this many.
SETUP_MIN_REPS = 5


class Gate:
    """Counts operations and failed ones; a failed check is a failed
    operation and makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = Counter()

    def ops(self, n: int) -> None:
        self.attempted += n

    def fail(self, name: str, detail: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] += 1
        if ok:
            self.attempted += 1
        else:
            self.fail(name, detail or "check failed")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the workload at a tiny size")
    return p.parse_args(argv)


def import_package():
    """Import gatedssm from this checkout's src/ or exit."""
    src = ROOT / "src"
    if not (src / "gatedssm" / "__init__.py").is_file():
        sys.exit(f"error: {src}/gatedssm not found; run from a checkout")
    sys.path.insert(0, str(src))
    import gatedssm
    if not Path(gatedssm.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: gatedssm imported from {gatedssm.__file__}, "
                 f"not from {src}")


def machine_info() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "machine": platform.machine(),
    }


def p90(values):
    if len(values) < 2:
        return max(values)
    return quantiles(values, n=10, method="inclusive")[8]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_trials(w, prep, seed, seconds, tracer, gate, refs, work, set_up):
    """A warm-up trial, then trials until `seconds` pass; with a tracer
    every other trial is traced. Each trial after the warm-up follows a
    call of `set_up`, so the set-up times span the same minutes as the
    trial times. Every trial is checked; the warm-up is left out of the
    returned (untraced trials, traced trials)."""
    from tracer import NullTracer
    from workloads import reference_gap, run_trial
    null = NullTracer()
    plain, traced = [], []
    first = None
    deadline = None
    for k in itertools.count():
        if k:
            set_up()
        use_trace = tracer is not None and k % 2 == 0 and k > 0
        out = os.path.join(work, f"trial-{k}")
        try:
            with tracer.installed() if use_trace else nullcontext():
                trial = run_trial(w, prep, seed, out,
                                  tracer if use_trace else null)
        except Exception as exc:  # a failed trial is a failed operation
            traceback.print_exc()
            gate.fail("trial", f"{type(exc).__name__}: {exc}")
            trial = None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if trial is not None:
            gate.ops(len(trial.losses) + trial.eval_batches + trial.saves
                     + trial.loads)
            values = trial.losses + [trial.heldout_loss]
            gate.check("finite_losses", all(map(math.isfinite, values)),
                       f"losses {values}")
            gap = reference_gap(refs, seed, values)
            gate.check("reference_losses", not gap, gap)
            if trial.roundtrip_ok is not None:
                gate.check("checkpoint_roundtrip", trial.roundtrip_ok,
                           "reloaded parameters differ from the trained ones")
            if first is None:
                first = values
            else:
                name = ("trace_matches_untraced" if use_trace
                        else "trials_repeat")
                gate.check(name, values == first,
                           f"losses {values} != first trial {first}")
            if k:
                (traced if use_trace else plain).append(trial)
        if deadline is None:
            deadline = perf_counter() + seconds
        elif perf_counter() >= deadline and (
                (plain and (traced or tracer is None)) or gate.failed):
            return plain, traced


def end_to_end(w, setup_times, plain):
    return {
        "train_tokens_per_s": metric(
            median([w.train_tokens / t.train_s for t in plain]), "tokens/s"),
        "eval_tokens_per_s": metric(
            median([w.eval_rows * w.seq_len / t.eval_s for t in plain]),
            "tokens/s"),
        "setup_s": metric(median(setup_times), "s"),
        "heldout_loss": metric(plain[0].heldout_loss, "nats"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


# Ops timed one by one in the per-layer metrics: every op each
# workload runs, plus its sequence-mixing op under the name "mixing".
PER_OP = ("matmul", "masked_cross_entropy", "gelu", "layer_norm", "mul",
          "embedding")
MIXING_OP = {"ssm": "causal_conv", "attention": "softmax"}
COMPONENTS = ("projections", "ssm", "attention", "ffn", "layer_norm")
OTHER_COMPONENTS = ("elementwise", "head", "loss", "other")


def component_table(w, cfg, steps):
    """Measured time per step of each `flop_estimate` component (fwd and
    bwd) beside its computed FLOPs for the batch."""
    from gatedssm.analysis import flop_estimate
    flops = flop_estimate(cfg, w.seq_len).components
    rows = {}
    for comp in COMPONENTS + OTHER_COMPONENTS:
        ms = median([(s["comp.fwd." + comp] + s["comp.bwd." + comp]) / 1e6
                     for s in steps])
        row = {"ms_per_step": ms}
        if comp in flops:
            row["flops_per_step"] = flops[comp] * w.batch_size
            row["gflops_per_s"] = (row["flops_per_step"] / (ms * 1e6)
                                   if ms else 0.0)
        rows[comp] = row
    return rows


def per_layer(w, cfg, tracer, table, plain, traced):
    from gatedssm.analysis import flop_estimate
    steps = tracer.groups["step"]
    setups = tracer.groups["setup"]

    def step_ms(fn):
        return median([fn(s) / 1e6 for s in steps])

    m = {
        "tensor.tape_nodes": metric(median([s["tape_nodes"] for s in steps]),
                                    "count"),
        "tensor.backward_ms": metric(step_ms(lambda s: s["backward"]), "ms"),
    }
    ops = PER_OP + (MIXING_OP[w.routing],)
    for op in ops:
        label = "mixing" if op == ops[-1] else op
        for side in ("fwd", "bwd"):
            m[f"tensor.{side}_ms.{label}"] = metric(
                step_ms(lambda s: s[f"{side}.{op}"]), "ms")
    m["fft.transforms"] = metric(
        median([s["fft.transforms"] for s in steps]), "count")
    m["fft.points"] = metric(median([s["fft.points"] for s in steps]),
                             "count")
    m["rng.ms"] = metric(step_ms(lambda s: s["rng"]), "ms")
    m["model.forward_ms"] = metric(step_ms(lambda s: s["forward_mlm"]), "ms")
    m["model.block_ms"] = metric(step_ms(lambda s: s["block"]), "ms")
    m["model.routing_ms"] = metric(step_ms(lambda s: s["routing"]), "ms")
    m["model.head_ms"] = metric(
        step_ms(lambda s: s["forward_mlm"] - s["block"]), "ms")
    flops = flop_estimate(cfg, w.seq_len)
    block_flops = flops.total * w.batch_size
    block_comps = COMPONENTS + ("elementwise",)
    m["model.flops_analytic"] = metric(block_flops, "flop")
    m["model.gflops_achieved"] = metric(median([
        block_flops / (s["block"] + sum(s["comp.bwd." + c]
                                        for c in block_comps))
        for s in steps]), "GFLOP/s")
    m["model.mixing_gflops"] = metric(table[w.routing]["gflops_per_s"],
                                      "GFLOP/s")
    m["trainer.step_ms.p50"] = metric(step_ms(lambda s: s["step"]), "ms")
    m["trainer.step_ms.p90"] = metric(
        p90([s["step"] / 1e6 for s in steps]), "ms")
    m["trainer.other_ms"] = metric(step_ms(lambda s: (
        s["step"] - s["forward_mlm"] - s["fwd.masked_cross_entropy"]
        - s["backward"] - s["AdamW.step"] - s["trace.walk"])), "ms")
    m["trainer.eval_batch_ms"] = metric(median([
        g["eval_mlm"] / g["n.forward_mlm"] / 1e6
        for g in tracer.groups["eval"]]), "ms")
    m["optim.step_ms"] = metric(step_ms(lambda s: s["AdamW.step"]), "ms")
    m["optim.params"] = metric(tracer.optim_params, "count")
    for key, span in (("corpus", "generate_corpus"), ("vocab", "build_vocab"),
                      ("chunk", "chunk_corpus"), ("mask", "mask_tokens"),
                      ("shard_write", "write_shard"),
                      ("shard_read", "read_shard")):
        m[f"data.{key}_s"] = metric(median([g[span] / 1e9 for g in setups]),
                                    "s")
    m["data.tokens"] = metric(w.corpus_tokens, "count")
    m["checkpoint.save_ms"] = metric(
        median(tracer.calls["save_run_checkpoint"]) / 1e6, "ms")
    m["checkpoint.save_bytes"] = metric(median(tracer.save_bytes), "bytes")
    m["checkpoint.saves"] = metric(traced[0].saves, "count")
    m["checkpoint.load_ms"] = metric(
        median(tracer.calls["load_run_checkpoint"]) / 1e6, "ms")
    untraced_s = median([t.train_s for t in plain])
    m["trace.overhead_pct"] = metric(
        100.0 * (median([t.train_s for t in traced]) - untraced_s)
        / untraced_s, "%")
    return m


def write_trace(w, seed, machine, tracer, table) -> Path:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{w.name}-seed{seed}.json"
    ops = sorted({k.split(".", 1)[1] for s in tracer.groups["step"]
                  for k in s if k.startswith(("fwd.", "bwd."))})
    steps = tracer.groups["step"]
    per_op = {op: {side: median([s[f"{side}.{op}"] / 1e6 for s in steps])
                   for side in ("fwd", "bwd")} for op in ops}
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": w.name, "seed": seed, "machine": machine,
                   "per_op_ms_per_step": per_op,
                   "components_per_step": table,
                   **tracer.export()}, f)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from tracer import NullTracer, Tracer
    from workloads import INPUT_SETS, ORACLE_TOL, SMOKE, WORKLOADS, \
        load_reference, oracle_error, same_inputs, setup

    table = SMOKE if args.smoke else WORKLOADS
    if args.workload not in table:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(table)}")
    w = table[args.workload]
    refs = load_reference()["smoke" if args.smoke else "full"].get(w.name,
                                                                   {})
    seed = args.seed % INPUT_SETS
    machine = machine_info()
    print(json.dumps({"machine": machine, "input_set": seed}))
    gate = Gate()
    tracer = Tracer() if args.trace else None
    work = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    setup_times = []

    def timed_setup():
        out = work / f"setup-{len(setup_times)}"
        with tracer.installed() if tracer else nullcontext():
            with (tracer or NullTracer()).group("setup"):
                start = perf_counter()
                prep = setup(w, seed, str(out))
                setup_times.append(perf_counter() - start)
        return prep, out

    def set_up_again():
        again, out = timed_setup()
        gate.check("setup_repeats", same_inputs(prep, again),
                   "set-up repetitions gave different inputs")
        shutil.rmtree(out)

    try:
        prep, _ = timed_setup()
        if w.routing == "ssm":
            err = oracle_error(w, prep, seed)
            gate.check("scan_oracle", err <= ORACLE_TOL,
                       f"max |conv - scan| = {err:.3g} at L={w.seq_len}")
        plain, traced = run_trials(w, prep, seed, args.seconds, tracer,
                                   gate, refs, str(work), set_up_again)
        while len(setup_times) < SETUP_MIN_REPS:
            set_up_again()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    if not plain or (tracer and not traced):
        sys.exit("error: no trial completed")
    if tracer:
        comps = component_table(w, prep.cfg, tracer.groups["step"])
        metrics = per_layer(w, prep.cfg, tracer, comps, plain, traced)
        print("component  ms/step  flops/step  GFLOP/s")
        for comp, row in comps.items():
            print(f"{comp:12s} {row['ms_per_step']:9.3f} "
                  f"{row.get('flops_per_step', 0):12.4g} "
                  f"{row.get('gflops_per_s', 0):8.3f}")
        print(f"spans: {write_trace(w, args.seed, machine, tracer, comps)}")
    else:
        metrics = end_to_end(w, setup_times, plain)
    print(f"checks: {json.dumps(gate.checks, sort_keys=True)}")
    print(f"trials: {len(plain)} untraced, {len(traced)} traced; "
          f"failed operations: {gate.failed}/{gate.attempted}")
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
