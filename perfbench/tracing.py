"""Outside-in layer timing for the traced benchmark run.

Nothing in the program is edited.  A layer is timed by replacing one
callable -- a method on an object the benchmark builds or hands in, a
public method on a class, or a function in the module that looks it up --
with a wrapper for the duration of a ``with tracer.installed(...)``
block, and restoring the original afterwards.

Every wrapped call records one span ``(name, start, end, parent)`` in
memory; the benchmark's own regions (``span``) are the roots.  A layer's
self time is the summed duration of its spans minus the part covered by
their child spans, so the self times of all layers plus the roots' self
times add up to the roots' wall time exactly.  A root's self time is the
explicit ``unattributed_s`` remainder: time inside the region that no
wrapped layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Iterator

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with a self-time fold."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1); None while still open.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, _clock(), parent)
                open_.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-owned region, recorded like a wrapped call."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = _clock()
        try:
            yield
        finally:
            self.spans[index] = (name, start, _clock(), parent)
            self._open.pop()

    @contextlib.contextmanager
    def installed(self, layers: Iterable[tuple[Any, str, str]]) -> Iterator[None]:
        """Wrap ``owner.attribute`` as layer ``name`` for each triple, then restore.

        ``owner`` is an object, a class or a module.  An attribute the
        owner only inherits is removed again on exit rather than pinned.
        """
        saved = []
        try:
            for owner, attribute, name in layers:
                own = vars(owner)
                saved.append((owner, attribute, attribute in own, own.get(attribute)))
                setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))
            yield
        finally:
            for owner, attribute, had_own, original in reversed(saved):
                if had_own:
                    setattr(owner, attribute, original)
                else:
                    delattr(owner, attribute)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children's time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def calls(self) -> Counter:
        """Number of spans per name."""
        return Counter(name for name, *_ in self.spans)


class NullTracer:
    """The untraced run: wrappers and regions cost nothing."""

    @staticmethod
    def wrap(name: str, fn: Callable) -> Callable:
        return fn

    @staticmethod
    def span(name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()

    @staticmethod
    def installed(layers: Iterable[tuple[Any, str, str]]) -> contextlib.nullcontext:
        return contextlib.nullcontext()

