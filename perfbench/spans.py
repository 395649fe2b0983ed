"""Span tracing from outside the program.

The tracer replaces module attributes that the pipeline calls through
(``hanjoint.joint.prefix_beam_search``, ``hanjoint.ctc._kernels.ctc_alpha``,
...) with timing wrappers, and restores them afterwards.  Each span records
its name, layer, start, end, parent span and utterance id.  Spans stay in
memory until the run ends.

Self time is attributed by sweeping over span boundaries: in every interval
between two boundaries, the time goes to the open spans that have no open
child, split evenly among them.  A thread waiting for its workers therefore
gets no time, and two workers sharing the interpreter lock each get half,
so the layers' self times add up to the wall time of the traced command.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    utt: str | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap.  ``describe(args, kwargs, result)``
    returns counters for the span; ``utt_of(args)`` names the utterance a
    call starts, for calls that reveal it (lattice loads)."""

    module: Any
    attr: str
    layer: str
    name: str
    describe: Callable[[tuple, dict, Any], dict] | None = None
    utt_of: Callable[[tuple], str | None] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._command_stack: list[int] | None = None
        self._installed: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # -- installation --------------------------------------------------------

    def install(self, targets: list[Target]) -> list[str]:
        """Wrap every target that exists; returns the names that were
        missing, which then simply record no calls."""
        missing = []
        for target in targets:
            original = getattr(target.module, target.attr, None)
            if original is None:
                missing.append(target.name)
                continue
            # Restore the attribute exactly as found (a classmethod, not the
            # bound method getattr returns).
            self._installed.append((target.module, target.attr, inspect.getattr_static(target.module, target.attr)))
            setattr(target.module, target.attr, self._wrap(original, target))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, utt: str | None) -> int:
        stack = self._stack()
        if utt is not None:
            self._local.utt = utt
        elif stack:
            utt = self.spans[stack[-1]].utt
        else:
            utt = getattr(self._local, "utt", None)
        # A worker thread's outermost span belongs to the span that the
        # command's own thread has open, which is waiting for the worker.
        if stack:
            parent = stack[-1]
        elif self._command_stack:
            parent = self._command_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, layer, time.perf_counter(), parent, utt))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, original: Callable, target: Target) -> Callable:
        def traced(*args, **kwargs):
            utt = target.utt_of(args) if target.utt_of else None
            index = self._open(target.name, target.layer, utt)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if target.describe is not None:
                self.spans[index].attrs = target.describe(args, kwargs, result)
            return result

        return traced

    def command(self, name: str, utt: str | None = None) -> "_Command":
        """Root span around one command the benchmark issues."""
        return _Command(self, name, utt)


class _Command:
    def __init__(self, tracer: Tracer, name: str, utt: str | None):
        self.tracer, self.name, self.utt = tracer, name, utt

    def __enter__(self) -> int:
        self.index = self.tracer._open(self.name, "bench", self.utt)
        self.tracer._command_stack = self.tracer._stack()
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index)
        self.tracer._command_stack = None


def attribute(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Self and inclusive time of every span, by the boundary sweep in the
    module docstring."""
    n = len(spans)
    events = sorted(
        [(s.end, 0, i) for i, s in enumerate(spans)] + [(s.start, 1, i) for i, s in enumerate(spans)]
    )
    self_time = [0.0] * n
    open_children = [0] * n
    is_open = [False] * n
    leaves: set[int] = set()
    previous = events[0][0] if events else 0.0
    for t, opening, i in events:
        if leaves and t > previous:
            share = (t - previous) / len(leaves)
            for j in leaves:
                self_time[j] += share
        previous = t
        parent = spans[i].parent
        if opening:
            is_open[i] = True
            leaves.add(i)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[i] = False
            leaves.discard(i)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and is_open[parent]:
                    leaves.add(parent)

    inclusive = list(self_time)
    for i in range(n - 1, -1, -1):  # a child is recorded after its parent
        parent = spans[i].parent
        if parent is not None:
            inclusive[parent] += inclusive[i]
    return self_time, inclusive
