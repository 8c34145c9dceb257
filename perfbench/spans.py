"""Span tracing installed from outside the package.

Each traced function is replaced, at every module attribute or class
attribute through which callers look it up, by a wrapper that counts its
calls and adds up its self time (the span's duration minus the time
covered by its child spans).  Counts of calls made directly under
another span are kept too, so ratios such as line-search trials per
optimizer iteration are measured where the work happens.

The statistics live in memory and are read out when the traced passes
end; the package itself is not modified.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span statistics for one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.bytes = defaultdict(int)
        self.calls_under = defaultdict(int)  # (parent span, child span) -> calls
        self.counters = defaultdict(int)
        self._stack = []  # [name, child seconds] of the open spans

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_return(tracer, result, args, kwargs)`` runs after the span
        closes, so its own cost is charged to the caller, not to the span.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                self.calls_under[(stack[-1][0], name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result

        return traced


def count_csv_bytes(tracer, result, args, kwargs):
    """Bytes written by ``write_field_csv(field, path)``."""
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.bytes["grid.write_field_csv"] += os.path.getsize(path)


def count_iterations(tracer, result, args, kwargs):
    """Iterations and accepted steps of one ``minimize`` call."""
    rows = len(result.trace.rows)
    tracer.counters["optimizer.iterations"] += rows
    tracer.counters["optimizer.accepted_steps"] += max(rows - 1, 0)


@contextmanager
def installed(tracer, targets):
    """Wrap every target for the duration of the block, then restore.

    ``targets`` holds ``(span name, [(owner, attribute), ...], on_return, ...)``;
    the first owner defines the function and the others import it by name.
    Every alias must hold the same function as the definition, so that no
    caller reaches the unwrapped original.  A definition the package no
    longer has is skipped and reported in ``absent``.
    """
    saved = []
    absent = []
    try:
        for name, places, on_return, *_ in targets:
            owner, attr = places[0]
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                absent.append(name)
                continue
            wrapped = tracer.wrap(name, original, on_return)
            for alias_owner, alias_attr in places:
                current = getattr(alias_owner, alias_attr, None)
                if current is None:
                    continue
                if current is not original:
                    raise RuntimeError(
                        f"{alias_owner.__name__}.{alias_attr} is not the function "
                        f"defined at {owner.__name__}.{attr}; span {name} would "
                        "miss its calls")
                saved.append((alias_owner, alias_attr, current))
                setattr(alias_owner, alias_attr, wrapped)
        yield absent
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
