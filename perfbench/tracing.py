"""Spans around the benchmark's calls into the program's layers.

Used by traced runs only.  :meth:`Tracer.wrap` replaces a public
function or method of a ``repro`` module from the benchmark's side;
:meth:`Tracer.install` / :meth:`Tracer.uninstall` switch the patches on
and off, so untraced passes run the program's own functions.  Nothing is
traced inside the program.  Each span holds a name, a start, an end,
its parent span and a request id that all spans of one request share;
spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def layer_of(name: str) -> str:
    """Span names are ``<layer>.<what>``; the layer is a ``src/repro`` module."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        #: ``[id, name, start, end, parent_id, request_id]`` rows, in end order.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: "int | None" = None):
        """Record one span; a top-level span starts a new request."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent[5] if parent is not None else next(self._requests)
        row = [next(self._ids), name, time.perf_counter(), None,
               parent[0] if parent is not None else None, request]
        stack.append(row)
        try:
            yield row
        finally:
            row[3] = time.perf_counter()
            stack.pop()
            self.spans.append(row)

    def _traced(self, function, name: str, after=None, returned=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = function(*args, **kwargs)
            if after is not None:
                after(*args, **kwargs)
            if returned is not None:
                returned(result)
            return result

        return traced

    def wrap(self, owner, attribute: str, name: str, after=None, returned=None) -> None:
        """Patch ``owner.attribute`` (function, method, classmethod,
        staticmethod or property getter) to record a span *name*; *after*,
        if given, is called with the same arguments once the span ends,
        and *returned*, if given, with the call's result."""
        original = vars(owner)[attribute]
        traced = functools.partial(self._traced, name=name, after=after, returned=returned)
        if isinstance(original, property):
            replacement = property(traced(original.fget), original.fset, original.fdel,
                                   original.__doc__)
        elif isinstance(original, classmethod):
            replacement = classmethod(traced(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(traced(original.__func__))
        else:
            replacement = traced(original)
        self._patches.append((owner, attribute, original, replacement))

    def count_yields(self, owner, attribute: str, counter: str) -> None:
        """Patch a generator method to count the items it yields."""
        original = vars(owner)[attribute]
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                counters[counter] += 1
                yield item

        self._patches.append((owner, attribute, original, counted))

    def install(self) -> None:
        for owner, attribute, _original, replacement in self._patches:
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original, _replacement in reversed(self._patches):
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """A position in the span list; pass it as *since* (or *until*) to
        look only at spans that ended after (or before) it."""
        return len(self.spans)

    def _rows(self, since: int, until: "int | None" = None) -> list[list]:
        return self.spans[since:until]

    def total(self, name: str, since: int = 0, until: "int | None" = None) -> float:
        """Summed duration of the spans called *name*."""
        return sum(row[3] - row[2] for row in self._rows(since, until) if row[1] == name)

    def calls(self, name: str, since: int = 0) -> int:
        return sum(1 for row in self._rows(since) if row[1] == name)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover.

        Children run on their parent's thread, one after another, so the
        time they cover is the sum of their durations.
        """
        rows = self._rows(since)
        covered: dict[int, float] = defaultdict(float)
        for row in rows:
            if row[4] is not None:
                covered[row[4]] += row[3] - row[2]
        out: dict[str, float] = defaultdict(float)
        for row in rows:
            out[row[1]] += (row[3] - row[2]) - covered.get(row[0], 0.0)
        return dict(out)

    def layer_self_times(self, since: int = 0) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times(since).items():
            out[layer_of(name)] += seconds
        return dict(out)

    def dump(self, path, extra: "dict | None" = None) -> None:
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)
