"""In-memory spans around calls into kernelratio's public functions.

A `Tracer` records one span per wrapped call: name, start, end, parent
span and a few counts.  `Tracer.patch` replaces a function in every
kernelratio module that holds it (so names imported with `from .x import
f` are wrapped too) and restores the originals on exit.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    child_total = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_total)]


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, summed self time and summed counts."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


class Tracer:
    """Span recorder; spans stay in memory until the caller reads them."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, start=self.clock(), parent=parent, counts=dict(counts))
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(self, name, func, count=None):
        """Wrap `func` in a span; `count(args, kwargs, result)` adds counts.

        `name` is a string or a callable of (args, kwargs) returning one.
        A call that raises gets the count `raised = 1` and re-raises.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                try:
                    result = func(*args, **kwargs)
                except BaseException:
                    record.counts["raised"] = 1
                    raise
                if count is not None:
                    record.counts.update(count(args, kwargs, result))
                return result

        return wrapper

    @contextlib.contextmanager
    def patch(self, targets):
        """Wrap each `(module, attribute, name, count)` target in place.

        Every loaded module of the target's package that binds the same
        function object under that attribute is patched as well.
        """
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, count)
                package = module.__name__.split(".")[0]
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod_name.split(".")[0] != package:
                        continue
                    if getattr(mod, attr, None) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
