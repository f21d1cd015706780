"""In-memory span tracer and the probes that time each layer from outside.

A span is one call into a layer: its name, start, end and the span that
caused it.  Spans nest on one stack, so a span's *self time* is its
duration minus the time its child spans cover.  Two kinds exist:

* coarse spans (a case, a simulator run, a pre-scan, an HTTP request)
  are kept one record each and written out when the run ends;
* hot spans (a pipeline stage, a predictor lookup, a cache access: once
  per simulated cycle or instruction) fold into per-name totals of
  calls, time and self time, which keeps memory bounded on runs of
  millions of calls.

:func:`probe_layers` installs the probes by wrapping the program's
public methods for the duration of a ``with`` block and restores them
afterwards; with no probe installed the program runs untouched.
"""

import contextlib
import json
import time

_clock = time.perf_counter_ns


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out."""

    def __init__(self):
        self.spans = []   # finished coarse span records
        self.hot = {}     # name -> [calls, total_ns, self_ns]
        self._stack = []  # one [child_ns] frame per open span
        self._open = []   # ids of the open coarse spans

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Time the ``with`` body as one coarse span named *name*."""
        span_id = len(self.spans) + len(self._open) + 1
        parent = self._open[-1] if self._open else None
        frame = [0]
        self._stack.append(frame)
        self._open.append(span_id)
        start = _clock()
        try:
            yield attrs
        finally:
            end = _clock()
            self._stack.pop()
            self._open.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][0] += duration
            record = {"id": span_id, "parent": parent, "name": name,
                      "start_ns": start, "end_ns": end,
                      "self_ns": duration - frame[0]}
            record.update(attrs)
            self.spans.append(record)

    def wrap(self, name, fn):
        """*fn* wrapped as a hot span: calls fold into ``hot[name]``."""
        acc = self.hot.setdefault(name, [0, 0, 0])
        stack = self._stack

        def probe(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return probe

    def wrap_coarse(self, name, fn):
        """*fn* wrapped so that every call records one coarse span."""
        def probe(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return probe

    # -- readers ----------------------------------------------------

    def calls(self, name):
        """How many times span *name* ran (hot or coarse)."""
        if name in self.hot:
            return self.hot[name][0]
        return sum(1 for span in self.spans if span["name"] == name)

    def total_s(self, name):
        """Summed duration of span *name*, in seconds."""
        if name in self.hot:
            return self.hot[name][1] / 1e9
        return sum(span["end_ns"] - span["start_ns"]
                   for span in self.spans if span["name"] == name) / 1e9

    def self_s(self, name):
        """Summed self time of span *name*, in seconds."""
        if name in self.hot:
            return self.hot[name][2] / 1e9
        return sum(span["self_ns"]
                   for span in self.spans if span["name"] == name) / 1e9

    def dump(self, path):
        """Write every coarse span and the hot totals as one JSON file."""
        hot = {name: {"calls": calls, "total_ns": total, "self_ns": own}
               for name, (calls, total, own) in sorted(self.hot.items())}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "hot": hot}, fh)
            fh.write("\n")


#: Pipeline stage methods and the span each call records.
STAGES = ("fetch", "rename", "issue", "memory", "complete", "retire")


@contextlib.contextmanager
def probe_layers(tracer):
    """Time calls into every simulator layer while the block runs.

    Class-level entry points (``Pipeline.run``/``run_slice``, the warm
    pre-scan, trace materialize and warm replay) are swapped for
    probing wrappers; each new :class:`Pipeline` additionally gets
    per-instance probes on its stages, its retire-time checker, its
    branch predictor and its memory hierarchy, so that the pre-scan's
    own functional executor stays unprobed.
    """
    from repro.core import pipeline as pipeline_mod
    from repro.core import warm as warm_mod
    from repro.perf import sample as sample_mod

    Pipeline = pipeline_mod.Pipeline
    PortableWarmTrace = warm_mod.PortableWarmTrace
    original_init = Pipeline.__init__
    record = sample_mod.record_portable_trace
    recorded = [0]

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        for stage in STAGES:
            method = "stage_" + stage
            setattr(self, method, tracer.wrap(
                "core.pipeline." + stage, getattr(self, method)))
        checker = self.checker
        checker.step = tracer.wrap("arch.checker_step", checker.step)
        predictor = self.predictor
        predictor.predict = tracer.wrap("branch.predict", predictor.predict)
        predictor.update = tracer.wrap("branch.update", predictor.update)
        memory = self.memory
        memory.access_data = tracer.wrap("memsys.access",
                                         memory.access_data)
        memory.access_inst = tracer.wrap("memsys.access",
                                         memory.access_inst)

    def record_probe(pipeline, limit, *args, **kwargs):
        with tracer.span("core.warm.record"):
            trace = record(pipeline, limit, *args, **kwargs)
        recorded[0] += trace.total
        return trace

    patches = [
        (Pipeline, "__init__", init),
        (Pipeline, "run",
         tracer.wrap_coarse("core.pipeline.run", Pipeline.run)),
        (Pipeline, "run_slice",
         tracer.wrap_coarse("core.pipeline.slice", Pipeline.run_slice)),
        (PortableWarmTrace, "materialize",
         tracer.wrap_coarse("core.warm.materialize",
                            PortableWarmTrace.materialize)),
        (sample_mod, "record_portable_trace", record_probe),
        (sample_mod, "replay_warm_events",
         tracer.wrap("core.warm.replay", sample_mod.replay_warm_events)),
    ]
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield recorded
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
