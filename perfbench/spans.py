"""Nested timing spans recorded from outside the program.

A span is opened around a call by replacing the module attribute through
which callers reach the function (``Patcher.set``). Spans nest on one
stack; a span's self time is its duration minus the time covered by the
spans opened inside it. Each span may carry a *scope* label that spans
opened inside it inherit, which is how autodiff ops recorded in the
forward pass are tied to the model layer that recorded them.
"""

import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-name aggregates over the traced passes."""

    def __init__(self):
        self._stack: list[list] = []  # frame: [name, start, child_seconds, scope]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)  # per-call durations (s) for percentiles

    def enter(self, name: str, scope: str | None = None) -> list:
        if scope is None and self._stack:
            scope = self._stack[-1][3]
        frame = [name, 0.0, 0.0, scope]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order (top was {popped[0]})")
        name, start, child, _scope = frame
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def scope(self) -> str | None:
        return self._stack[-1][3] if self._stack else None

    def wrap(self, name, fn, scope: str | None = None, after=None, keep_samples=False):
        """Return fn wrapped in a span.

        name is a string or a callable (args, kwargs) -> string. after, if
        given, is called as after(args, kwargs, result, seconds) once the
        span has closed.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = tracer.enter(label, scope)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit(frame)
            if keep_samples:
                tracer.samples[label].append(dur)
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        return wrapper


class Patcher:
    """Replaces module attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
