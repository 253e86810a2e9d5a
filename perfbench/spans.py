"""Spans recorded from outside the oddflow package.

The traced run replaces the public names each oddflow module looks up at
call time (for example ``oddflow.stepping.solve_pressure``) with wrappers
that open and close a span, and replaces the ``scipy.fft`` reference held by
``oddflow.spectral._fft`` and ``oddflow.pressure._fft`` with a counting
proxy.  Nothing under ``src/`` is edited; every attribute is put back when
the ``patched`` block exits.

Spans stay in memory and are written out once, when the run ends.  The
package is single-threaded, so spans nest strictly and siblings never
overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

C2C = frozenset({"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"})
R2C = frozenset({"rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                 "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn"})


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "info")

    def __init__(self, sid, name, start, parent, op):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  ``op`` is the step or call id that new
    spans are tagged with; the benchmark advances it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order "
                               f"(innermost open span is {top.name})")

    def end_open(self, name: str) -> None:
        """Close the innermost open span if it has this name, or drop it
        when no span was opened inside it (it held no work)."""
        if not self._stack or self._stack[-1].name != name:
            return
        span = self._stack[-1]
        if span.id == len(self.spans) - 1:
            self._stack.pop()
            self.spans.pop()
        else:
            self.close(span)

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span; ``on_return(span, bound_args, result)`` may
        attach details to the span after the call."""
        sig = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(span, bound.arguments, out)
            return out

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     "info": s.info}) + "\n")


class FFTProxy:
    """Stands in for the ``scipy.fft`` module: each transform call becomes a
    ``spectral.<fn>`` span carrying its kind (c2c or r2c) and the bytes of
    its input plus output array, computed from the array sizes.  Other
    attributes pass through unchanged."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        kind = "c2c" if name in C2C else "r2c" if name in R2C else None
        if kind is None:
            return fn
        tracer = self._tracer
        span_name = "spectral." + name

        def counted(x, *args, **kwargs):
            span = tracer.open(span_name)
            try:
                out = fn(x, *args, **kwargs)
            finally:
                tracer.close(span)
            span.info = {"kind": kind, "bytes": x.nbytes + out.nbytes}
            return out

        setattr(self, name, counted)  # later lookups skip __getattr__
        return counted


@contextmanager
def patched(targets):
    """Set each ``(module, attribute, value)`` for the duration of the block
    and restore the original attributes afterwards, whatever happens."""
    saved = []
    try:
        for module, attr, value in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def self_time(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its direct children cover.
    Children of one span run one after another, so their durations add."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]
