"""In-memory spans for the traced benchmark run.

A span records one call the benchmark makes into a public fpualt
function: its name (``<module>.<function>``), start and end times, the
span that enclosed it, the job it belongs to and the round of the run.
Spans stay in memory and are written once, when the run ends.
"""

import json
import time
from contextlib import nullcontext

_NULL_SPAN = nullcontext()


class NullTracer:
    """Tracing off: ``span`` costs one method call and records nothing."""

    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1] if stack else None
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Tracing on: every ``span`` appends a record to ``spans``."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None      # job id shared by the spans of one job
        self.round = None    # round index; None during set-up

    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name, "job": self.job,
                  "round": self.round, **attrs}
        self.spans.append(record)
        return _Span(self, record)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    The benchmark is single-threaded, so the children of a span never
    overlap and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    return [duration(s) - c for s, c in zip(spans, child)]
