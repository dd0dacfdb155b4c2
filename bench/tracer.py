"""Span recorder for the traced benchmark run.

The tracer wraps public functions of ``gatesynth`` modules from outside,
by rebinding every module-level name (and class attribute) that refers
to the original function.  Callers resolve those names at call time, so
calls made inside the library are recorded too; no library file changes.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, at the end.  Self time is a span's duration minus the
durations of its direct children.  Work counters are updated at the same
boundaries by per-function hooks that read arguments and return values.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self.enabled = False
        self._open = -1  # index of the innermost open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span named ``name`` while the tracer is enabled.

        ``hook(tracer, args, kwargs, result)`` runs after each recorded call.
        A call re-entering the same wrapper is not recorded again.
        """
        nid = len(self.names)
        self.names.append(name)
        depth = 0

        def traced(*args, **kwargs):
            nonlocal depth
            if not self.enabled or depth:
                return fn(*args, **kwargs)
            i = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._open)
            self.span_end.append(0.0)
            parent, self._open = self._open, i
            depth += 1
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = perf_counter()
                self._open = parent
                depth -= 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, hook=None) -> None:
        """Rebind every ``gatesynth`` module name bound to ``module.attr``."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "gatesynth":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, hook=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, hook))

    def unpatch(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def span_count(self) -> int:
        return len(self.span_start)

    def calls_since(self, mark: int) -> Counter:
        """Recorded spans per name from span index ``mark`` on."""
        ids = np.frombuffer(self.span_name, dtype=np.int32)[mark:]
        counts = np.bincount(ids, minlength=len(self.names))
        return Counter({n: int(c) for n, c in zip(self.names, counts)})

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-name (inclusive, self) seconds summed over the recorded spans."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return (
            {n: float(v) for n, v in zip(self.names, total)},
            {n: float(v) for n, v in zip(self.names, own)},
        )

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
