"""Span recorder for the traced benchmark run.

``install`` replaces the public functions of the measured ``ontograft``
modules with wrappers that record one span per call: name, start, end and
the index of the enclosing span.  A function imported under another name
(``from .model import loss_and_grad``, ``finetune as run_finetune``) is
patched wherever the module attribute refers to the original.  Spans stay in
memory and go into the process's result file once, when it finishes.

``summarize`` turns the spans of one or more processes into per-layer
figures: inclusive seconds, self seconds (minus the time covered by child
spans), call counts and per-call percentiles.  Work counts computed from
call arguments (FLOPs, bytes, tokens) are added by the hooks in ``work``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

# synthetic and config only produce inputs or parse settings: not measured.
MODULES = (
    "ontology", "dataset", "tokenizer", "model", "training",
    "metrics", "extension", "attribution",
)
METHODS = {
    "ontology": ("OntologyGraph", ("ancestors", "descendants", "insert_subsumptions")),
    "tokenizer": ("Tokenizer", ("encode", "decode", "save", "load")),
}
# The functions that make up set-up time: loading or creating the state a
# stage needs before its first unit of work.
SETUP_FUNCTIONS = (
    "ontology.load_obo", "tokenizer.load", "model.load_model", "model.init_model",
)


class SpanRecorder:
    """Collects spans and computed work counts for one process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[int] = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (output checks, for example)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, result):
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side code, such as one pipeline stage."""
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def dump(self) -> dict:
        return {"trace_id": self.trace_id, "spans": self.spans, "counts": dict(self.counts)}


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


def install(recorder: SpanRecorder, hooks: dict, only=None) -> int:
    """Wrap every public function (and the listed methods) of the measured
    modules; with ``only``, just the named ones.  Returns how many names were
    wrapped."""
    importlib.import_module("ontograft.cli")
    modules = {name: importlib.import_module(f"ontograft.{name}") for name in MODULES}
    replaced: dict[int, object] = {}
    for short, module in modules.items():
        for fname, fn in list(_public_functions(module)):
            name = f"{short}.{fname}"
            if only is not None and name not in only:
                continue
            replaced[id(fn)] = recorder.wrap(name, fn, hooks.get(name))
        cls_name, methods = METHODS.get(short, (None, ()))
        for method in methods:
            name = f"{short}.{method}"
            if only is not None and name not in only:
                continue
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(recorder.wrap(name, raw.__func__, hooks.get(name)))
            else:
                wrapped = recorder.wrap(name, raw, hooks.get(name))
            setattr(cls, method, wrapped)
    loaded = [m for n, m in sys.modules.items() if n.split(".")[0] == "ontograft"]
    for module in loaded:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and inspect.isfunction(value):
                setattr(module, attr, replaced[id(value)])
    return len(replaced)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(dumps: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost calls of that
    name only), self seconds, and per-call milliseconds."""
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": []}
    )
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            entry = out[name]
            duration = end - start
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            entry["ms"].append(duration * 1000.0)
            outer = parent
            nested = False
            while outer >= 0:
                if spans[outer][0] == name:
                    nested = True
                    break
                outer = spans[outer][3]
            if not nested:
                entry["s"] += duration
    return dict(out)


def time_under(dumps: list[dict], name: str, ancestors: tuple[str, ...]) -> float:
    """Seconds spent in spans called ``name`` that run inside a span whose
    name is one of ``ancestors``."""
    total = 0.0
    for dump in dumps:
        spans = dump["spans"]
        for span_name, start, end, parent in spans:
            if span_name != name:
                continue
            outer = parent
            while outer >= 0:
                if spans[outer][0] in ancestors:
                    total += end - start
                    break
                outer = spans[outer][3]
    return total
