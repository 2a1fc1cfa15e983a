"""Call spans recorded from outside the program.

``Tracer.install`` walks every module of a package and wraps each public
function, and each public method of its plain (non-dataclass, non-enum,
non-exception) classes, in a span.  The wrapper replaces the original under
every name that refers to it in any module of the package, so
``from .optimizer import prune_layered`` in one module and attribute lookups
such as ``simulator.core_pipeline`` in another both go through it.  Nothing
names a function in advance: a function that a later version removes
simply stops producing spans.

A span records its name, start, end, parent span and operation id, plus the
peak bytes ``tracemalloc`` saw while it was open (zero unless it runs).
Spans stay in memory until ``write_jsonl``.  While ``active`` is false the
wrappers record nothing, so the benchmark's own checks stay out of the
trace.  A span opened on a worker thread with no open span
of its own takes as parent the innermost span open on the installing
thread, which is the call that started the worker.
"""
from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import importlib
import inspect
import json
import pkgutil
import threading
import time
import tracemalloc
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "base", "peak")

    def __init__(self, name, start, parent, op, base):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.base = base
        self.peak = base

    @property
    def peak_bytes(self) -> int:
        return self.peak - self.base


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self.active = True
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._home_stack[-1] if self._home_stack else None)
        current, peak = tracemalloc.get_traced_memory()
        if parent is not None and peak > parent.peak:
            parent.peak = peak
        tracemalloc.reset_peak()
        span = Span(name, time.perf_counter(), parent, self.op, current)
        stack.append(span)
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        if peak > span.peak:
            span.peak = peak
        if span.parent is not None and span.peak > span.parent.peak:
            span.parent.peak = span.peak
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Wrap the package's public callables; return a function that
        puts the originals back."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrapped = {}
        undo = []
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and _plain_class(obj):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and (meth == "__init__"
                                                       or not meth.startswith("_")):
                            label = attr if meth == "__init__" else f"{attr}.{meth}"
                            setattr(obj, meth, self.wrap(f"{short}.{label}", fn))
                            undo.append((obj, meth, fn))
        for module in [package] + modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                    undo.append((module, attr, obj))

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return uninstall

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[Span, float]:
        """Duration minus the part of it that child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(span, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out[span] = (span.end - span.start) - covered
        return out

    def write_jsonl(self, path) -> None:
        ids = {span: k for k, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": span.name, "start": span.start,
                    "end": span.end, "parent": ids.get(span.parent),
                    "op": span.op, "peak_bytes": span.peak_bytes}) + "\n")


def _plain_class(cls) -> bool:
    return not (dataclasses.is_dataclass(cls) or issubclass(cls, enum.Enum)
                or issubclass(cls, BaseException))
