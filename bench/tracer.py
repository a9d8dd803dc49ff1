"""Per-layer spans and backward attribution for the traced benchmark run.

The tracer patches, from outside the package, the functions that
``hopqa.model``, ``hopqa.training`` and ``hopqa.optim`` look up at call
time, and restores them on exit. Nothing under ``src/`` knows about it.

Forward time is recorded as a span around each wrapped call. Backward time
goes to the span whose call created the graph node: when a span closes, the
nodes reachable from its output but not from its inputs are claimed by
wrapping their ``_backward`` closure in a timer. Inner spans close first, so
the innermost span owns a node. The graph walks, and every other piece of
tracer bookkeeping, run on a paused clock, so they stay out of every span.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from dataclasses import fields, is_dataclass

import hopqa.model as hm
import hopqa.optim as ho
import hopqa.training as ht
from hopqa.autodiff import Tensor
from hopqa.data import Batch

# Calls that build graph nodes: (owner, attribute, span name). Both q2c
# variants share one span; the ablation flag picks which one runs.
GRAPH_SPANS = (
    (hm, "bigru", "layers.bigru"),
    (hm, "char_cnn", "layers.char_cnn"),
    (hm, "highway", "layers.highway"),
    (hm, "similarity", "attention.similarity"),
    (hm, "cgde", "attention.cgde"),
    (hm, "fgin_q2c", "attention.q2c"),
    (hm, "vanilla_q2c", "attention.q2c"),
    (hm, "context2query", "attention.c2q"),
    (hm, "fuse_g", "attention.fuse_g"),
    (hm, "self_attention", "model.self_attention"),
    (hm.Model, "forward", "model.forward"),
    (ht, "joint_loss", "model.loss"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in GRAPH_SPANS if name != "model.forward"))

# Calls timed without graph attribution: (owner, attribute, timer name).
TIMERS = (
    (hm, "decode_example", "model.decode_s"),
    (ht, "score_example", "metrics.score_s"),
    (ht, "clip_global_norm", "optim.clip_s"),
    (ho.Adam, "step", "optim.step_s"),
    (ho.AdaDelta, "step", "optim.step_s"),
)

# The attention functions are also called by self-attention; those calls
# belong to the model.self_attention span, not to the CGDe/FGIn block.
SELF_ATTENTION = "model.self_attention"

STEP_PARTS = ("step_s", "fwd_s", "bwd_s", "opt_s")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_coverage")):
        return "ratio"
    return "count"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    names = [*Tracer().report(), "trace.overhead_frac"]
    return {name: unit_of(name) for name in names}


class _LayerStats:
    __slots__ = ("fwd", "fwd_self", "bwd", "nodes")

    def __init__(self):
        self.fwd = 0.0
        self.fwd_self = 0.0
        self.bwd = 0.0
        self.nodes = 0


class _TimedBackward:
    """A node's backward closure, timed into the span that owns the node."""

    __slots__ = ("fn", "stats")

    def __init__(self, fn, stats: _LayerStats):
        self.fn = fn
        self.stats = stats

    def __call__(self, g):
        start = time.perf_counter()
        self.fn(g)
        self.stats.bwd += time.perf_counter() - start


def _tensors(obj):
    """Tensors held by a call's arguments or result."""
    if isinstance(obj, Tensor):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _tensors(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _tensors(item)
    elif is_dataclass(obj) and not isinstance(obj, (type, Batch)):  # batches hold arrays only
        for f in fields(obj):
            yield from _tensors(getattr(obj, f.name))


def _graph_size(root: Tensor) -> int:
    """Nodes with a backward closure reachable from ``root``."""
    seen = set()
    todo = [root]
    while todo:
        node = todo.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(node._parents)
    return len(seen)


class Tracer:
    """Spans, timers and counters for one pass of a workload."""

    def __init__(self):
        self.layers: dict[str, _LayerStats] = defaultdict(_LayerStats)
        self.timers: dict[str, float] = defaultdict(float)
        self.paused = 0.0            # bookkeeping seconds, kept out of every span
        self.open: list[list] = []   # [span name, child seconds] per open span
        self.backward_s = 0.0
        self.graph_nodes: list[int] = []
        self.steps: list[dict[str, float]] = []
        self._step: dict[str, float] = {}
        self.positions = 0
        self.real_positions = 0
        self.truncated = 0
        self.spans_lost = 0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    @contextlib.contextmanager
    def _bookkeeping(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - start

    # -- wrappers ---------------------------------------------------------

    def _graph_span(self, name: str, fn):
        stats = self.layers[name]
        nested_attention = name.startswith("attention.")

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if nested_attention and any(f[0] == SELF_ATTENTION for f in self.open):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self.open.append(frame)
            start = self.now()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = self.now() - start
                self.open.pop()
                stats.fwd += took
                stats.fwd_self += took - frame[1]
                if self.open:
                    self.open[-1][1] += took
            with self._bookkeeping():
                self._claim(stats, out, (args, kwargs))
            return out

        return wrapped

    def _claim(self, stats: _LayerStats, out, inputs) -> None:
        stop = {id(t) for t in _tensors(inputs)}
        seen = set()
        todo = list(_tensors(out))
        while todo:
            node = todo.pop()
            key = id(node)
            if node._backward is None or key in seen or key in stop:
                continue
            seen.add(key)
            if type(node._backward) is not _TimedBackward:
                node._backward = _TimedBackward(node._backward, stats)
                stats.nodes += 1
            todo.extend(node._parents)

    def _timer(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.timers[name] += self.now() - start

        return wrapped

    def _make_batches(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = self.now()
            batches, stats = fn(*args, **kwargs)
            self.timers["data.make_batches_s"] += self.now() - start
            with self._bookkeeping():
                self.truncated += stats.truncated_examples
                self.spans_lost += stats.spans_lost_to_truncation
                for batch in batches:
                    self.positions += batch.context_mask.size
                    self.real_positions += int(batch.context_mask.sum())
            return batches, stats

        return wrapped

    def _zero_grads(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._step = {"start": self.now()}
            return fn(*args, **kwargs)

        return wrapped

    def _backward(self, fn):
        @functools.wraps(fn)
        def wrapped(loss):
            with self._bookkeeping():
                self.graph_nodes.append(_graph_size(loss))
            start = self.now()
            try:
                return fn(loss)
            finally:
                end = self.now()
                self.backward_s += end - start
                if "start" in self._step:
                    self._step["fwd_s"] = start - self._step["start"]
                self._step["bwd_s"] = end - start
                self._step["bwd_end"] = end

        return wrapped

    def _ema_update(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.now()
                self.timers["optim.ema_s"] += end - start
                step = self._step
                if "start" in step and "bwd_end" in step:
                    self.steps.append({"step_s": end - step["start"], "fwd_s": step["fwd_s"],
                                       "bwd_s": step["bwd_s"], "opt_s": end - step["bwd_end"]})
                self._step = {}

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped call site for the duration of the block."""
        saved = []

        def patch(owner, attr, make):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

        try:
            for owner, attr, name in GRAPH_SPANS:
                patch(owner, attr, functools.partial(self._graph_span, name))
            for owner, attr, name in TIMERS:
                patch(owner, attr, functools.partial(self._timer, name))
            patch(ht, "make_batches", self._make_batches)
            patch(ht, "zero_grads", self._zero_grads)
            patch(ht, "backward", self._backward)
            patch(ho.EmaWeights, "update", self._ema_update)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, object]:
        """The exact counters of this pass; equal inputs must give equal counts."""
        out: dict[str, object] = {f"{name}.nodes": self.layers[name].nodes for name in LAYERS}
        out["model.forward.self_nodes"] = self.layers["model.forward"].nodes
        out["autodiff.graph_nodes"] = tuple(self.graph_nodes)
        out["data.positions"] = (self.positions, self.real_positions)
        out["data.truncated_examples"] = self.truncated
        out["data.spans_lost"] = self.spans_lost
        out["training.steps"] = len(self.steps)
        return out

    def report(self) -> dict[str, float]:
        """Per-layer metrics of this pass, except ``trace.overhead_frac``."""
        out: dict[str, float] = {}
        for name in LAYERS:
            stats = self.layers[name]
            out[f"{name}.fwd_s"] = stats.fwd
            out[f"{name}.bwd_s"] = stats.bwd
            out[f"{name}.nodes"] = stats.nodes
        forward = self.layers["model.forward"]
        out["model.forward.self_s"] = forward.fwd_self
        out["model.forward.self_bwd_s"] = forward.bwd
        out["model.forward.self_nodes"] = forward.nodes
        for name in ("model.decode_s", "metrics.score_s", "data.make_batches_s",
                     "optim.clip_s", "optim.step_s", "optim.ema_s"):
            out[name] = self.timers[name]
        out["data.pad_frac"] = 1.0 - self.real_positions / self.positions if self.positions else 0.0
        out["data.truncated_examples"] = self.truncated
        out["data.spans_lost"] = self.spans_lost
        for part in STEP_PARTS:
            samples = [step[part] for step in self.steps]
            out[f"training.{part}"] = statistics.median(samples) if samples else 0.0
        out["training.steps"] = len(self.steps)
        attributed = sum(stats.bwd for stats in self.layers.values())
        out["autodiff.backward_s"] = self.backward_s
        out["autodiff.backward.unattributed_s"] = self.backward_s - attributed
        out["autodiff.nodes"] = sum(self.graph_nodes)
        out["autodiff.nodes_per_step"] = (statistics.median(self.graph_nodes)
                                          if self.graph_nodes else 0)
        out["trace.bwd_coverage"] = attributed / self.backward_s if self.backward_s else 0.0
        return out
