"""In-memory spans around package functions, for the traced benchmark run.

A function imported with ``from .x import y`` is a separate binding in every
module that imports it, so a tracer replaces the function at every binding
in the package that holds it, and puts every binding back on exit.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "hankellift"

# span fields, kept as lists so the wrapper can fill in the end time
NAME, START, END, PARENT, CHECK = range(5)


@dataclass(frozen=True)
class Target:
    """One package function and the layer name its spans and counts go to.

    ``counts(args, kwargs, result, exc)`` returns extra counts for one call,
    named relative to the layer unless the key holds a dot.  The key
    ``"distinct"`` holds a hashable call key whose distinct values are
    counted instead of summed.
    """

    module: str
    function: str
    layer: str
    counts: Optional[Callable] = None


class Tracer:
    """Records a span per call of each target and sums the per-call counts."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list = []
        self.check = -1  # id of the check the next spans belong to
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, target: Target):
        layer = target.layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.check]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
                self.calls[layer] += 1
                if target.counts is not None:
                    for key, value in target.counts(args, kwargs, result, exc).items():
                        if key == "distinct":
                            self.distinct[layer].add(value)
                        else:
                            self.counts[_metric_name(layer, key)] += value

        return traced

    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for target in self.targets:
            original = getattr(sys.modules[f"{PACKAGE}.{target.module}"], target.function)
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def layer_metrics(self, layers) -> dict:
        """``.calls``, ``.self_ms`` and the extra counts of each layer, zeros included."""
        self_ms = Counter()
        for span, seconds in zip(self.spans, self_times(self.spans)):
            self_ms[span[NAME]] += seconds * 1e3
        out = {}
        for layer, extras in layers:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_ms"] = self_ms[layer]
            for extra in extras:
                if extra == "distinct_ratio":
                    calls = self.calls[layer]
                    out[f"{layer}.distinct_ratio"] = len(self.distinct[layer]) / calls if calls else 0.0
                else:
                    name = _metric_name(layer, extra)
                    out[name] = self.counts[name]
        return out

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one ``[name, start_s, end_s, parent, check]`` per span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, check in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, check]) + "\n")


def _metric_name(layer: str, key: str) -> str:
    return key if "." in key else f"{layer}.{key}"


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, min(child_end, end))
        out.append(end - start - covered)
    return out
