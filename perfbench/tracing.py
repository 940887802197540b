"""Spans around the program's public layer functions, from outside it.

The traced run installs wrappers on the layer entry points listed in
:data:`FUNCTION_HOOKS` and :data:`METHOD_HOOKS` (every module binding of a
hooked function is swapped, so ``from x import f`` call sites are
covered), runs the workload body under a root span, and removes the
wrappers again.  Spans live in memory until :meth:`SpanRecorder.dump`.

A span's *self time* is its duration minus the time its direct children
cover.  The root span's self time is the ``unattributed`` row: work the
hooked layers do not account for.  The self times of the spans below the
root plus its ``unattributed`` row therefore sum to the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    thread: int
    variant: Optional[str] = None
    points: int = 0      # engine spans: payload sizes evaluated
    messages: int = 0    # engine spans: messages per payload size
    ops: int = 0         # lowering spans: ops compiled

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, variant: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        record = Span(
            span_id=span_id, name=name, start=time.perf_counter(), end=0.0,
            parent=stack[-1].span_id if stack else None, run_id=self.run_id,
            thread=threading.get_ident(), variant=variant,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """span id -> self time."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {
            span.span_id: span.duration - child_time[span.span_id]
            for span in self.spans
        }

    def ancestors_named(self, prefix: str) -> Dict[int, bool]:
        """span id -> whether some ancestor's name starts with ``prefix``."""
        by_id = {span.span_id: span for span in self.spans}
        result: Dict[int, bool] = {}
        for span in self.spans:
            parent = by_id.get(span.parent) if span.parent else None
            found = False
            while parent is not None:
                if parent.name.startswith(prefix):
                    found = True
                    break
                parent = by_id.get(parent.parent) if parent.parent else None
            result[span.span_id] = found
        return result

    def subtree(self, root: Span) -> List[Span]:
        """``root`` and every span below it."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        found, todo = [], [root]
        while todo:
            span = todo.pop()
            found.append(span)
            todo.extend(children[span.span_id])
        return found

    def summary(self, root: Span) -> Dict[str, Dict[str, float]]:
        """Per span name below ``root``: calls, inclusive and self
        seconds.  The root's own row is the unattributed time."""
        selfs = self.self_times()
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.subtree(root):
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += selfs[span.span_id]
        return dict(table)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def _variant_of_first_arg(args, _kwargs) -> Optional[str]:
    return str(args[0]) if args else None


def _algorithm_of_first_arg(args, _kwargs) -> Optional[str]:
    """The builder name of a schedule (or of ``self``, a compiled one)."""
    return getattr(args[0], "algorithm", None) if args else None


#: (module, function, span name, variant extractor)
FUNCTION_HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.topology.specs", "parse_topology_spec", "topology.build", None),
    ("repro.collectives", "build_schedule", "collectives.build",
     _variant_of_first_arg),
    ("repro.collectives.compiled", "compile_schedule", "compile.lower",
     _algorithm_of_first_arg),
    ("repro.serve.planner", "pareto_frontier", "planner.frontier", None),
)

#: (module, class, method, span name, variant extractor)
METHOD_HOOKS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.sweep.artifacts", "ArtifactStore", "get", "artifacts.get", None),
    ("repro.sweep.artifacts", "ArtifactStore", "put", "artifacts.put", None),
    ("repro.collectives.compiled", "CompiledSchedule", "simulate_batch",
     "engine.simulate", _algorithm_of_first_arg),
    ("repro.collectives.compiled", "CompiledSchedule", "simulate",
     "engine.simulate", _algorithm_of_first_arg),
    ("repro.sweep.cache", "PredictionCache", "get", "cache.get", None),
    ("repro.sweep.cache", "PredictionCache", "put", "cache.put", None),
    ("repro.sweep.cache", "PredictionCache", "save", "cache.save", None),
    ("repro.serve.service", "PredictionService", "predict", "serve.predict",
     None),
    ("repro.serve.service", "PredictionService", "identity",
     "serve.identity", None),
    ("repro.serve.service", "RequestLog", "append", "serve.request_log",
     None),
)


def _wrap(recorder: SpanRecorder, fn: Callable, name: str,
          variant_of: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        variant = variant_of(args, kwargs) if variant_of else None
        with recorder.span(name, variant) as span:
            result = fn(*args, **kwargs)
        if name == "engine.simulate":
            sizes = args[1] if len(args) > 1 else kwargs.get("sizes", ())
            span.points = (
                len(sizes) if fn.__name__ == "simulate_batch" else 1
            )
            span.messages = len(args[0])
        elif name == "compile.lower":
            span.ops = len(result)
        return result

    return traced


@contextmanager
def hooked(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every layer hook for the ``with`` block, then restore."""
    import importlib

    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, attr, name, variant_of in FUNCTION_HOOKS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = _wrap(recorder, original, name, variant_of)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, value))
                        setattr(module, key, traced)
        for module_name, cls_name, method, name, variant_of in METHOD_HOOKS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, _wrap(recorder, original, name, variant_of))
        yield recorder
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
