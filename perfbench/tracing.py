"""Per-layer tracing of the ``ctqw`` package from outside the package.

Every public function and public method of each ``ctqw`` module is wrapped at
each place it is bound, so ``from .walk import run_walk`` copies in other
modules are wrapped as well.  ``numpy.linalg.eigh`` and the public
``numpy.fft`` functions are wrapped too.  The public names are found by
introspection, so renamed or added functions keep their layer.

A span (name, start, end, parent, op) is recorded per call while an op is
active.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

# closed_forms is only an oracle: no CLI path calls it, so it is not a layer.
ORACLE_MODULES = frozenset({"closed_forms"})
ROOT_LAYER = "bench"


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    op: int
    start: float = 0.0
    end: float = 0.0
    # Interval the parent sees: the call plus this tracer's own bookkeeping.
    outer: float = 0.0
    error: bool = False
    file_bytes: int = 0
    mem_base: int = 0
    mem_peak: int = 0
    eigh: tuple[int, bool] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Wraps the package's public callables and records spans while active.

    An op traced with ``memory=True`` also records tracemalloc peaks per span.
    tracemalloc slows Python-heavy code several times over, so those ops are
    kept apart (``memory_ops``) and their times are not used.
    """

    spans: list[Span] = field(default_factory=list)
    memory_ops: set[int] = field(default_factory=set)
    memory: bool = False
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _op: int = -1
    _ops: int = 0

    # -- installation -------------------------------------------------------

    def install(self, package: str = "ctqw") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer in ORACLE_MODULES:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        self._wrap_numpy(wrapped)
        # Rebind every copy of a wrapped function in the package's namespaces.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name, layer))

    def _wrap_numpy(self, wrapped: dict[int, object]) -> None:
        eigh = np.linalg.eigh
        wrapped[id(eigh)] = self._wrap(eigh, "linalg.eigh", "linalg", eigh_shape=True)
        self._patch(np.linalg, "eigh", wrapped[id(eigh)])
        for name in np.fft.__all__:
            fn = getattr(np.fft, name)
            if callable(fn):
                wrapped[id(fn)] = self._wrap(fn, f"fft.{name}", "fft")
                self._patch(np.fft, name, wrapped[id(fn)])

    def _patch(self, owner, attr: str, value) -> None:
        # vars(), not getattr(): a classmethod must come back as itself.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- span recording -----------------------------------------------------

    def begin_op(self, memory: bool = False) -> None:
        """Start recording one op; each traced op gets its own sequence number."""
        self.memory = memory
        if memory:
            self.memory_ops.add(self._ops)
            tracemalloc.start()
        self._op = self._ops
        self._ops += 1
        self._enter(ROOT_LAYER + ".op", ROOT_LAYER, time.perf_counter())

    def end_op(self, error: bool) -> None:
        self._exit(error, time.perf_counter(), (), {})
        self._op = -1
        if self.memory:
            tracemalloc.stop()
            self.memory = False

    def _wrap(self, fn, name: str, layer: str, eigh_shape: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            span = tracer._enter(name, layer, t0)
            if eigh_shape:
                a = np.asarray(args[0])
                span.eigh = (int(a.shape[-1]), bool(np.iscomplexobj(a)))
            error = True
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                tracer._exit(error, time.perf_counter(), args, kwargs)

        return traced

    def _enter(self, name: str, layer: str, t0: float) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, parent, self._op, start=t0, outer=t0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for i in self._stack:
                self.spans[i].mem_peak = max(self.spans[i].mem_peak, peak)
            tracemalloc.reset_peak()
            span.mem_base = span.mem_peak = current
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, error: bool, t_end: float, args, kwargs) -> None:
        span = self.spans[self._stack.pop()]
        span.end = t_end
        span.error = error
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            for i in self._stack:
                self.spans[i].mem_peak = max(self.spans[i].mem_peak, peak)
            span.mem_peak = max(span.mem_peak, peak)
            tracemalloc.reset_peak()
        span.file_bytes = _file_bytes(args, kwargs)
        span.outer = time.perf_counter() - span.outer

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the intervals its children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.outer
        return [s.duration - c for s, c in zip(self.spans, child)]

    def function_table(self) -> dict[str, dict[str, float]]:
        """Calls, self time, errors and file bytes per function, timing ops only."""
        table: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            if span.op in self.memory_ops:
                continue
            row = table.setdefault(
                span.name, {"calls": 0, "self_s": 0.0, "errors": 0, "file_bytes": 0}
            )
            row["calls"] += 1
            row["self_s"] += self_s
            row["errors"] += int(span.error)
            row["file_bytes"] += span.file_bytes
        return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))

    def dump_spans(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]


def _file_bytes(args, kwargs) -> int:
    """Size of the files named by path arguments: bytes written or read by the call."""
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total
