"""Spans recorded around the benchmark's calls into fixlab.

A span holds its name, start and end (``perf_counter``), process CPU
time, the index of its parent span and the question it belongs to. Spans
stay in memory and are written out once, when the run ends. With tracing
off, ``call`` is a plain call.
"""

import functools
import time


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.question = None
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1, cpu1 = time.perf_counter(), time.process_time()
            self._open.pop()
            self.spans[index] = {"name": name, "start": t0, "end": t1, "cpu": cpu1 - cpu0,
                                 "parent": parent, "question": self.question}

    def wrap(self, name, fn):
        """``fn`` with a span around every call, for patching into a module."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def duration(span):
    return span["end"] - span["start"]


def self_time(spans, index):
    """A span's duration minus the time its direct children cover."""
    children = sum(duration(s) for s in spans if s["parent"] == index)
    return duration(spans[index]) - children


def named(spans, name):
    return [(i, s) for i, s in enumerate(spans) if s["name"] == name]
