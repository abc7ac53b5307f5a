"""In-process tracing of chronobell's layers, from outside the program.

`Tracer.install()` replaces the public functions of each chronobell module
(and a few public methods) with wrappers, in every chronobell module that
holds a reference to them, so the names `cli` imports are traced too.
`uninstall()` puts the originals back. Nothing in the package is edited.

Inside `Tracer.op(op_id)` each wrapped call becomes a span: name, start,
end, parent span and op id, kept in memory until the caller writes them
out. Calls that run hundreds of thousands of times per op (lambda stream
splits and reads, one flash run) are not spans: they are added up, as a
call count plus total time, under the span that made them, and the traced
calls they make in turn are counted by their hooks but not timed. A span's
self time is its duration minus the time covered by the calls nested
directly in it; with integer nanosecond clocks the self times of an op sum
exactly to its wall time, less the time the tracer spends in its counting
hooks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "chronobell"
LAYERS = ("lambdafile", "chronology", "flash", "localpolytope", "simplex", "quantum", "reporting")
ROOT_NAME = "cli.main"

# public methods traced in addition to module-level functions
METHODS = {
    "lambdafile": {
        "LambdaFile": ("load", "from_bytes", "to_bytes", "save", "stream"),
        "LambdaStream": ("split", "take", "next_real"),
    },
}

# high-frequency calls: aggregated under their parent span, never spans
AGGREGATED = frozenset(
    {
        "lambdafile.LambdaStream.split",
        "lambdafile.LambdaStream.take",
        "lambdafile.LambdaStream.next_real",
        "lambdafile.next_real",
        "lambdafile.split_stream",
        "flash.run_flash_process",
    }
)

# per-layer metric -> traced function whose inclusive time (or call count) it is
INCLUSIVE_S = {
    "lambdafile.load_s": "lambdafile.LambdaFile.load",
    "lambdafile.generate_s": "lambdafile.generate_lambda_file",
    "lambdafile.split_s": "lambdafile.LambdaStream.split",
    "lambdafile.take_s": "lambdafile.LambdaStream.take",
    "chronology.realization_divergence_s": "chronology.realization_divergence",
    "chronology.estimate_table_s": "chronology.estimate_table",
    "chronology.distribution_check_s": "chronology.distribution_covariance_check",
    "flash.run_flash_process_s": "flash.run_flash_process",
    "flash.ordering_invariance_s": "flash.ordering_invariance_exact",
    "localpolytope.nogo_search_s": "localpolytope.exhaustive_nogo_search",
    "localpolytope.membership_lp_s": "localpolytope.local_membership_lp",
    "localpolytope.facet_check_s": "localpolytope.chsh_facet_check",
    "localpolytope.quantum_behavior_s": "localpolytope.quantum_behavior",
    "simplex.solve_feasibility_s": "simplex.solve_feasibility",
    "quantum.joint_distribution_s": "quantum.joint_distribution",
    "quantum.chsh_value_s": "quantum.chsh_value",
    "reporting.canonical_json_s": "reporting.canonical_json",
    "reporting.write_text_s": "reporting.write_text",
}
CALLS = {
    "lambdafile.split_calls": "lambdafile.LambdaStream.split",
    "flash.run_flash_process_calls": "flash.run_flash_process",
    "simplex.solve_feasibility_calls": "simplex.solve_feasibility",
    "quantum.joint_distribution_calls": "quantum.joint_distribution",
}
COUNTERS = {
    "lambdafile.words_materialized": "words_materialized",
    "lambdafile.words_read": "words_read",
    "chronology.trials": "trials",
    "flash.hits": "hits",
    "localpolytope.candidates": "candidates",
    "localpolytope.oracle_disagreements": "oracle_disagreements",
    "reporting.bytes_written": "bytes_written",
}
SELF_S = {f"{layer}.self_s": layer for layer in LAYERS + ("cli",)}


class _Frame:
    __slots__ = ("name", "start", "child_ns", "span_id", "aggregates")

    def __init__(self, name, span_id):
        self.name = name
        self.start = 0
        self.child_ns = 0
        self.span_id = span_id
        # high-frequency calls made directly in this span: name -> [calls, total ns, self ns]
        self.aggregates = {}


@dataclass
class OpTrace:
    """What one traced op did: per-function tallies and deterministic counters."""

    op_id: str
    wall_ns: int = 0
    # traced name -> [calls, inclusive ns, self ns]
    tally: dict = field(default_factory=dict)
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS.values(), 0))
    hook_ns: int = 0
    spans: list = field(default_factory=list)
    aggregated_calls: int = 0

    def layer_self_ns(self) -> dict:
        out = dict.fromkeys(SELF_S.values(), 0)
        for name, (_, _, self_ns) in self.tally.items():
            out[name.split(".", 1)[0]] += self_ns
        return out


class Tracer:
    def __init__(self):
        self._patches: list = []
        self._stack: list[_Frame] = []
        self._next_span = 0
        self._op: OpTrace | None = None
        self._aggregating = False
        # id(LambdaFile) -> (file, read range ends, read range lengths)
        self._reads: dict = {}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap chronobell's public functions and traced methods everywhere."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import first, so that every module holding a reference gets patched
        for name in LAYERS + ("cli",):
            importlib.import_module(f"{PACKAGE}.{name}")
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            self._patches.append((holder, key, value))
                            setattr(holder, key, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, value = self._patches.pop()
            setattr(holder, key, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        call = self._call_aggregated if name in AGGREGATED else self._call_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if self._aggregating:
                # nested in a high-frequency call: counted by its hook, not timed
                result = fn(*args, **kwargs)
                if hook is not None:
                    self._run_hook(hook, args, kwargs, result)
                return result
            return call(name, fn, hook, args, kwargs)

        return traced

    # --------------------------------------------------------------- spans

    @contextmanager
    def op(self, op_id: str):
        """Trace one op; the yielded OpTrace is complete when the block exits."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        trace = OpTrace(op_id)
        self._op = trace
        root = self._new_frame(ROOT_NAME)
        self._stack.append(root)
        root.start = time.perf_counter_ns()
        try:
            yield trace
        finally:
            end = time.perf_counter_ns()
            self._stack.clear()
            self._finish(root, None, end)
            trace.wall_ns = end - root.start
            trace.counters["words_read"] = self._distinct_words_read()
            self._reads.clear()
            self._op = None

    def _new_frame(self, name):
        self._next_span += 1
        return _Frame(name, self._next_span)

    def _call_aggregated(self, name, fn, hook, args, kwargs):
        parent = self._stack[-1]
        op = self._op
        hooks_before = op.hook_ns
        self._aggregating = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._aggregating = False
            parent.child_ns += end - start
            dur = end - start - (op.hook_ns - hooks_before)
            for table in (op.tally, parent.aggregates):
                acc = table.get(name)
                if acc is None:
                    acc = table[name] = [0, 0, 0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur
            op.aggregated_calls += 1
        if hook is not None:
            # hook time belongs to the tracer, not to the caller's self time
            parent.child_ns += self._run_hook(hook, args, kwargs, result)
        return result

    def _call_span(self, name, fn, hook, args, kwargs):
        parent = self._stack[-1]
        frame = self._new_frame(name)
        self._stack.append(frame)
        frame.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._finish(frame, parent, end)
        if hook is not None:
            parent.child_ns += self._run_hook(hook, args, kwargs, result)
        return result

    def _run_hook(self, hook, args, kwargs, result) -> int:
        start = time.perf_counter_ns()
        hook(self, args, kwargs, result)
        spent = time.perf_counter_ns() - start
        self._op.hook_ns += spent
        return spent

    def _finish(self, frame, parent, end):
        dur = end - frame.start
        self_ns = dur - frame.child_ns
        if parent is not None:
            parent.child_ns += dur
        op = self._op
        tally = op.tally.get(frame.name)
        if tally is None:
            tally = op.tally[frame.name] = [0, 0, 0]
        tally[0] += 1
        tally[1] += dur
        tally[2] += self_ns
        record = {
            "op": op.op_id,
            "id": frame.span_id,
            "parent": None if parent is None else parent.span_id,
            "name": frame.name,
            "start_ns": frame.start,
            "end_ns": end,
            "self_ns": self_ns,
        }
        if frame.aggregates:
            record["aggregated"] = {
                k: {"calls": c, "total_ns": t, "self_ns": s} for k, (c, t, s) in frame.aggregates.items()
            }
        op.spans.append(record)

    # ------------------------------------------------------------ counters

    def _materialized(self, lambda_file) -> None:
        self._op.counters["words_materialized"] += lambda_file.count

    def _mark_read(self, stream, n: int) -> None:
        entry = self._reads.get(id(stream.file))
        if entry is None:
            # the file is kept so that its id cannot be reused within the op
            entry = self._reads[id(stream.file)] = (stream.file, [], [])
        entry[1].append(stream.start + stream.position)
        entry[2].append(n)

    def _distinct_words_read(self) -> int:
        total = 0
        for _, ends, counts in self._reads.values():
            ends = np.asarray(ends, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.int64)
            offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            total += np.unique(np.repeat(ends - counts, counts) + offsets).size
        return total


def _count(key, amount):
    def hook(tracer, args, kwargs, result):
        tracer._op.counters[key] += amount(args, kwargs, result)

    return hook


_HOOKS = {
    "lambdafile.generate_lambda_file": lambda tr, a, k, r: tr._materialized(r),
    "lambdafile.LambdaFile.load": lambda tr, a, k, r: tr._materialized(r),
    "lambdafile.LambdaStream.take": lambda tr, a, k, r: tr._mark_read(a[0], len(r)),
    "lambdafile.LambdaStream.next_real": lambda tr, a, k, r: tr._mark_read(a[0], 1),
    "flash.run_flash_process": _count("hits", lambda a, k, r: len(r)),
    "localpolytope.exhaustive_nogo_search": _count("candidates", lambda a, k, r: r.n_candidates),
    "chronology.estimate_table": _count("trials", lambda a, k, r: r.trials * r.shape[0] * r.shape[1]),
    "chronology.realization_divergence": _count(
        "trials", lambda a, k, r: r.trials * len(r.settings_a) * len(r.settings_b)
    ),
    "reporting.write_text": _count(
        "bytes_written", lambda a, k, r: len((a[1] if len(a) > 1 else k["text"]).encode("utf-8"))
    ),
}


def layer_metrics(traces: list[OpTrace]) -> dict:
    """Per-layer metrics of one pass: the sum over its ops' traces."""
    tally: dict = {}
    counters = dict.fromkeys(COUNTERS.values(), 0)
    layer_self = dict.fromkeys(SELF_S.values(), 0)
    for trace in traces:
        for name, values in trace.tally.items():
            acc = tally.setdefault(name, [0, 0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for key, v in trace.counters.items():
            counters[key] += v
        for layer, ns in trace.layer_self_ns().items():
            layer_self[layer] += ns
    out: dict = {}
    for metric, name in INCLUSIVE_S.items():
        out[metric] = tally.get(name, [0, 0, 0])[1] * 1e-9
    for metric, name in CALLS.items():
        out[metric] = tally.get(name, [0, 0, 0])[0]
    for metric, key in COUNTERS.items():
        out[metric] = counters[key]
    materialized = counters["words_materialized"]
    out["lambdafile.words_read_ratio"] = counters["words_read"] / materialized if materialized else 0.0
    for metric, layer in SELF_S.items():
        out[metric] = layer_self[layer] * 1e-9
    out["trace.spans"] = sum(len(t.spans) for t in traces)
    out["trace.aggregated_calls"] = sum(t.aggregated_calls for t in traces)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
