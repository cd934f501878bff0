"""Spans around calls into the fuchsian package, recorded from outside it.

`Tracer.install` wraps every public function and public method of the
package at every place a fuchsian module has bound it: a module that does
`from .moebius import normalize` holds its own reference, so wrapping only
`fuchsian.moebius` would miss those calls.  Modules are reached through
`sys.modules`, because the package attribute `fuchsian.uniformize` is the
function of that name, not the module.

A span is `[name, start, end, parent, op, out_bytes]`; `name` is the defining
module without the package prefix plus the qualified name, for example
`moebius.normalize` or `curves.Poly.roots`.  Spans stay in memory until
`Profile` folds them into per-layer numbers, which the caller does between
timed ops (after a cycle, or after a CLI child exits).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from time import perf_counter

PACKAGE = "fuchsian"
# operator methods are part of a class's public interface
OPERATORS = ("__add__", "__sub__", "__mul__", "__matmul__", "__call__")
ROOT = "bench.op"


def _public(name: str) -> bool:
    return not name.startswith("_") or name in OPERATORS


def _span_name(fn) -> str:
    return f"{fn.__module__[len(PACKAGE) + 1:]}.{fn.__qualname__}"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _defined_here(obj) -> bool:
    return getattr(obj, "__module__", "").startswith(PACKAGE + ".")


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []  # (owner, attribute, original)
        self._wrappers = {}  # id(original) -> wrapper

    def _wrap(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        name = _span_name(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if type(out) is str:
                rec[5] = len(out)
            return out

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _replace(self, owner, attr, original):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        classes = {}
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if not _public(attr) or not _defined_here(obj):
                    continue
                if inspect.isfunction(obj):
                    self._replace(module, attr, obj)
                elif inspect.isclass(obj):
                    classes[id(obj)] = obj
        for cls in classes.values():
            for attr, obj in list(vars(cls).items()):
                if _public(attr) and inspect.isfunction(obj):
                    self._replace(cls, attr, obj)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    def wrapped(self):
        """(owner, attribute, original) for every binding replaced."""
        return list(self._saved)

    def begin_op(self, op):
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, perf_counter(), 0.0, -1, op, 0])

    def end_op(self):
        self.spans[self._stack.pop()][2] = perf_counter()
        self.op = None


class Profile:
    """Per-function and per-layer totals folded from span lists.

    Durations are kept only for the span names in `timed`, which bounds
    memory on long traced runs.
    """

    def __init__(self, timed=()):
        self.timed = frozenset(timed)
        self.calls = {}
        self.durations = {name: [] for name in self.timed}  # name -> [seconds]
        self.layer_self = {}  # layer -> seconds
        self.layer_calls = {}
        self.out_bytes = {}

    def add(self, spans):
        """Fold one span list; parent indices refer to positions within it."""
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _nb in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _op, nbytes) in enumerate(spans):
            if name == ROOT:
                continue
            layer = name.split(".", 1)[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            if name in self.timed:
                self.durations[name].append(end - start)
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + (end - start) - child[i]
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
            self.out_bytes[name] = self.out_bytes.get(name, 0) + nbytes

    def self_ms_per_op(self, layer, ops):
        return 1e3 * self.layer_self.get(layer, 0.0) / ops

    def layer_calls_per_op(self, layer, ops):
        return self.layer_calls.get(layer, 0) / ops

    def calls_per_op(self, name, ops):
        return self.calls.get(name, 0) / ops

    def us_p50(self, name):
        xs = self.durations.get(name)
        return 1e6 * statistics.median(xs) if xs else 0.0

    def bytes_per_op(self, name, ops):
        return self.out_bytes.get(name, 0) / ops
