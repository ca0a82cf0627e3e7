"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: around the calls it
makes, and around library functions reached through module attributes
(``proxycause.anm.kernel_ridge_fit`` and the like), which the tracer
replaces with timing wrappers for the length of a traced run.  Nothing
under ``src/`` is edited.

A span is (id, name, start, end, parent, thread, op, phase, extra).  Spans
opened on a pool thread with no open span of its own get the innermost
span open on the main thread as parent: the ``frames_order`` or
``nlp-eval`` call that is waiting on the pool.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time


class NullTracer:
    """Tracing off: spans cost one no-op context manager per call."""

    def span(self, name):
        return contextlib.nullcontext({})

    def op(self, op_id):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "primary"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._op = None
        self._restore = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block; the block may add fields to
        the dict it receives, also after the block has ended."""
        extra = {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield extra
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "thread": threading.get_ident(),
                "op": self._op,
                "phase": self.phase,
                "extra": extra,
            })

    def wrap(self, module_name, attr, name, note=None):
        """Replace module.attr with a spanning wrapper until ``unwrap``.

        ``name`` is a span name or a function of the call's arguments;
        ``note(args, kwargs, result)`` returns fields stored on the span.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as extra:
                result = original(*args, **kwargs)
            if note is not None:
                extra.update(note(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def self_times(spans):
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children.get(s["id"], ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None
