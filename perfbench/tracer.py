"""Span tracer for the benchmark's traced mode.

The tracer wraps public functions of ``gatedssm`` at the module
bindings their callers look up at call time (``trainer.forward_mlm``,
``model.gated_block``, ``ssm.ssm_apply``, ``tensor.matmul``, ...), and
the backward rule of every tape node just before ``backward`` runs.
Each call becomes one span: name, start, end and the index of its
parent span. Spans stay in memory and are written out once, at the end
of the run.

Besides the raw spans the tracer keeps per-group sums: a group is one
training step (from one ``AdamW.step`` return to the next), one
set-up repetition or one evaluation call. The benchmark reduces those
groups to its per-layer metrics.

Wrapping only adds calls around the original functions, so a traced
run computes bit-identical values to an untraced one; the benchmark
checks that on every traced run.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import gatedssm.model as model_mod
import gatedssm.numerics.tensor as tensor_mod
import gatedssm.pretrain as pretrain_pkg
import gatedssm.pretrain.trainer as trainer_mod
import gatedssm.ssm as ssm_mod
from gatedssm.numerics import Rng, Tensor, next_pow2
from gatedssm.pretrain import AdamW

# Tensor ops whose forward calls and backward rules are timed. Together
# they are every op a training step records on the tape.
TENSOR_OPS = (
    "add", "sub", "mul", "div", "neg", "power", "texp", "tlog", "tsqrt",
    "tsin", "tcos", "atan2", "gelu", "softmax", "layer_norm", "reshape",
    "transpose", "flip", "getitem", "embedding", "tsum", "tmean",
    "matmul", "causal_conv", "masked_cross_entropy",
)

# Function names whose tape nodes record a shorter op name.
_NODE_OP = {"texp": "exp", "tlog": "log", "tsqrt": "sqrt", "tsin": "sin",
            "tcos": "cos", "tsum": "sum", "tmean": "mean"}

# Spans that decide which FLOP-model component a tensor op belongs to;
# the innermost enclosing one wins.
_CONTEXTS = frozenset((
    "ssm_apply", "multihead_attention", "stacked_route", "gated_block",
    "stacked_block", "forward_mlm",
))

# Wrapped functions: (owner, attribute, span name, aggregate key).
_MODEL_FUNCS = (
    (trainer_mod, "forward_mlm", "forward_mlm", None),
    (model_mod, "gated_block", "gated_block", "block"),
    (model_mod, "stacked_block", "stacked_block", "block"),
    (model_mod, "stacked_route", "stacked_route", None),
    (model_mod, "multihead_attention", "multihead_attention", "routing"),
    (ssm_mod, "ssm_apply", "ssm_apply", "routing"),
    (ssm_mod, "discretize", "discretize", None),
    (ssm_mod, "materialize_kernel", "materialize_kernel", None),
    (Rng, "uniform", "Rng.uniform", "rng"),
    (Rng, "normal", "Rng.normal", "rng"),
    (trainer_mod, "load_run_checkpoint", "load_run_checkpoint", None),
    (trainer_mod, "build_vocab", "build_vocab", None),
    (trainer_mod, "chunk_corpus", "chunk_corpus", None),
    (trainer_mod, "mask_tokens", "mask_tokens", None),
    (trainer_mod, "write_shard", "write_shard", None),
    (trainer_mod, "read_shard", "read_shard", None),
    (pretrain_pkg, "generate_corpus", "generate_corpus", None),
)


def _has_param(args) -> bool:
    """True when an operand is a trainable leaf, i.e. a weight."""
    return any(isinstance(a, Tensor) and a.node is None and a.requires_grad
               for a in args)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []          # [name, start_ns, end_ns, parent]
        self.calls = defaultdict(list)  # span name -> durations (ns)
        self.groups = defaultdict(list)  # kind -> [{key: total}]
        self.save_bytes: list = []
        self.optim_params = 0
        self._stack: list = []
        self._patches: list = []
        self._cur = None
        self._step_start = 0
        self._node_comp: dict = {}

    # -- spans and groups ------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, keys=()) -> int:
        end = time.perf_counter_ns()
        rec = self.spans[idx]
        rec[2] = end
        self._stack.pop()
        dur = end - rec[1]
        self.calls[rec[0]].append(dur)
        cur = self._cur
        if cur is not None:
            cur[rec[0]] += dur
            cur["n." + rec[0]] += 1
            for key in keys:
                cur[key] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def group(self, kind: str):
        """Sum every span closed inside the context into one group."""
        outer = self._cur
        self._cur = defaultdict(int)
        try:
            yield
        finally:
            self.groups[kind].append(self._cur)
            self._cur = outer

    @contextmanager
    def train(self):
        """A training call: each AdamW.step return closes one step group.

        The first step starts with the call, so it also holds the work
        before the loop (a checkpoint load, for an extension). Work
        after the last step (the final checkpoint) is not a step; its
        spans are kept but belong to no group.
        """
        self._cur = defaultdict(int)
        self._step_start = time.perf_counter_ns()
        try:
            with self.span("train"):
                yield
        finally:
            self._cur = None
            self._node_comp.clear()

    def _end_step(self) -> None:
        now = time.perf_counter_ns()
        self._cur["step"] = now - self._step_start
        self.groups["step"].append(self._cur)
        self._cur = defaultdict(int)
        self._step_start = now
        self._node_comp.clear()

    # -- wrappers --------------------------------------------------------

    def _component(self, op: str, args) -> str:
        """Map a tensor op call to a component of `flop_estimate`."""
        if op == "masked_cross_entropy":
            return "loss"
        ctx = None
        for idx in reversed(self._stack):
            name = self.spans[idx][0]
            if name in _CONTEXTS:
                ctx = name
                break
        if ctx is None:
            return "other"
        if ctx == "forward_mlm":
            return "head"
        if ctx == "ssm_apply":
            return "ssm"
        if ctx == "multihead_attention":
            return ("projections" if op == "matmul" and _has_param(args)
                    else "attention")
        if op == "layer_norm":
            return "layer_norm"
        if op == "matmul":
            return "ffn" if ctx == "stacked_block" else "projections"
        return "elementwise"

    def _wrap_func(self, fn, name, key):
        keys = (key,) if key else ()

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, keys)
        return traced

    def _wrap_op(self, fn, op):
        name = "fwd." + _NODE_OP.get(op, op)

        def traced(*args, **kwargs):
            comp = self._component(op, args)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self._close(idx)
            cur = self._cur
            if cur is not None:
                cur["comp.fwd." + comp] += dur
                if op == "causal_conv":
                    self._count_fft(cur, args[1], 3)
            node = getattr(out, "node", None)
            if node is not None:
                self._node_comp[id(node)] = comp
            return out
        return traced

    @staticmethod
    def _count_fft(cur, u, per_row: int) -> None:
        """Computed FFT work of one causal_conv call: `per_row` row
        transforms of size next_pow2(2L) over every row of u."""
        shape = u.shape
        rows = math.prod(shape[:-1])
        size = next_pow2(2 * shape[-1])
        cur["fft.transforms"] += per_row * rows
        cur["fft.points"] += per_row * rows * size

    def _wrap_backward(self, fn):
        def traced(loss):
            walk = self._open("trace.walk")
            nodes = self._tape_nodes(loss)
            self._close(walk)
            self._cur["tape_nodes"] = len(nodes)
            for node in nodes:
                node.backward_rule = self._wrap_rule(node)
            idx = self._open("backward")
            try:
                return fn(loss)
            finally:
                self._close(idx)
        return traced

    @staticmethod
    def _tape_nodes(loss) -> list:
        """Every tape node reachable from the loss, each once."""
        seen, nodes, stack = set(), [], [loss]
        while stack:
            t = stack.pop()
            if t.node is None or id(t) in seen:
                continue
            seen.add(id(t))
            nodes.append(t.node)
            stack.extend(t.node.inputs)
        return nodes

    def _wrap_rule(self, node):
        rule, op = node.backward_rule, node.op
        comp = self._node_comp.get(id(node), "other")
        name, comp_key = "bwd." + op, "comp.bwd." + comp
        u = node.inputs[1] if op == "causal_conv" else None

        def traced(g):
            idx = self._open(name)
            try:
                return rule(g)
            finally:
                self._close(idx, (comp_key,))
                if u is not None and self._cur is not None:
                    self._count_fft(self._cur, u, 6)
        return traced

    def _wrap_adamw_step(self, fn):
        def traced(opt, lr):
            if not self.optim_params:
                self.optim_params = sum(p.data.size for _, p in opt.params)
            idx = self._open("AdamW.step")
            try:
                return fn(opt, lr)
            finally:
                self._close(idx)
                if self._cur is not None:
                    self._end_step()
        return traced

    def _wrap_save(self, fn):
        def traced(directory, *args, **kwargs):
            idx = self._open("save_run_checkpoint")
            try:
                return fn(directory, *args, **kwargs)
            finally:
                self._close(idx)
                self.save_bytes.append(_dir_bytes(directory))
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the context."""
        for owner, attr, name, key in _MODEL_FUNCS:
            self._patch(owner, attr,
                        self._wrap_func(getattr(owner, attr), name, key))
        for op in TENSOR_OPS:
            self._patch(tensor_mod, op,
                        self._wrap_op(getattr(tensor_mod, op), op))
        self._patch(trainer_mod, "backward",
                    self._wrap_backward(trainer_mod.backward))
        self._patch(trainer_mod, "save_run_checkpoint",
                    self._wrap_save(trainer_mod.save_run_checkpoint))
        self._patch(AdamW, "step", self._wrap_adamw_step(AdamW.step))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def export(self) -> dict:
        """The spans in a compact form: a name table plus rows of
        [name index, start ns, end ns, parent span index]."""
        names: dict = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end,
                         parent])
        return {"names": list(names), "columns":
                ["name", "start_ns", "end_ns", "parent"], "spans": rows}


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    def span(self, name):
        return nullcontext()

    def group(self, kind):
        return nullcontext()

    def train(self):
        return nullcontext()
