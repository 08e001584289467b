"""Span recording for the traced run.

The tracer installs timing wrappers, from outside the program, on public
methods of live objects (instance attributes shadowing the bound
methods), and a ``gc.callbacks`` timer.  Each span records name, start,
end, parent and the schedule step it belongs to; spans stay in memory
until the run ends.  A layer's *self time* is its spans' duration minus
the part their child spans cover, so on a single-threaded schedule the
self times sum to the duration of the root spans — the clocked calls.
"""

from __future__ import annotations

import gc
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``(name, start, end, parent index or -1, step id)``
Span = Tuple[str, float, float, int, int]


class Tracer:
    """Records nested spans of wrapped calls on one thread.

    Span fields live in parallel arrays of numbers, not in one tuple per
    span: a tuple is a container the cyclic collector must track, and on
    the history workloads half a million of them made full collections
    frequent enough to slow the traced run by a fifth.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        #: Index of the first span of each schedule step, in step order.
        self._step_starts: List[int] = [0]
        self._stack: List[int] = []
        self._wrapped: List[Tuple[object, str]] = []
        self._gc_span = -1

    def next_step(self) -> None:
        """The spans recorded from now on belong to the next schedule step."""
        self._step_starts.append(len(self._names))

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper named ``name``.

        ``on_result`` sees each return value (counts measured where the
        work happens, e.g. roots per batch)."""
        inner = getattr(obj, attr)
        names, starts, ends = self._names, self._starts, self._ends
        parents, stack = self._parents, self._stack

        def traced(*args, **kwargs):
            # The clock is read first and last, so the bookkeeping is
            # inside the span: the tracer's own cost shows as self time
            # of the layer it wraps, not as a gap between spans.
            start = perf_counter()
            index = len(names)
            names.append(name)
            starts.append(start)
            ends.append(start)
            parents.append(stack[-1] if stack else -1)
            stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def _on_gc(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_span = len(self._names)
            self._names.append("runtime.gc")
            self._starts.append(perf_counter())
            self._ends.append(0.0)
            self._parents.append(self._stack[-1] if self._stack else -1)
        else:
            self._ends[self._gc_span] = perf_counter()

    def install_gc_timer(self) -> None:
        """Time every cyclic-GC pass as a ``runtime.gc`` span."""
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Remove every wrapper and the GC timer."""
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def spans(self) -> List[Span]:
        """Every span recorded, in call-entry order."""
        bounds = self._step_starts + [len(self._names)]
        steps = [
            step
            for step, (first, after) in enumerate(zip(bounds, bounds[1:]))
            for _ in range(after - first)
        ]
        return list(zip(self._names, self._starts, self._ends, self._parents, steps))


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"self_s", "total_s", "calls"}}`` over ``spans``.

    A span's parent always precedes it in the list (indices are handed
    out at call entry), so one pass attributes every child's duration to
    its parent before the parent's self time is taken.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _step in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    for index, (name, start, end, _parent, _step) in enumerate(spans):
        layer = layers[name]
        layer["self_s"] += (end - start) - covered[index]
        layer["total_s"] += end - start
        layer["calls"] += 1
    return dict(layers)
