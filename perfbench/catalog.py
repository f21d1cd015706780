"""The benchmark's metric catalogue and its output line.

``BENCHMARK.json`` at the repository root is the one list of the
workloads and of every metric's name, unit and direction; this module
reads it.  The ``service`` workload is kept out of it and is described,
in the same format, by ``service.json`` beside this module: a race in
the program makes a varying number of its jobs fail from run to run
(see the README), so its runs cannot agree with each other.  What those
files cannot carry (their format fixes the keys of their entries) is
kept in :data:`LAYERS`: the end-to-end metric each per-layer metric
feeds, and the workloads that enter its layer.  :func:`result_line`
refuses to print a metric set that differs from the files.
"""

import json
import math
import os
import statistics
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SERVICE_JSON = os.path.join(HERE, "service.json")

#: What one workload run measured: its metric values, how many
#: operations it attempted and how many failed, whether every output
#: the program gave was right, and notes on each failure for stderr.
Outcome = namedtuple("Outcome", "values attempted failed correct notes")

_DETAIL = ("detail",)
_SAMPLED = ("sampled",)
_IN_PROCESS = ("detail", "sampled")
_SERVICE = ("service",)
_ALL = ("detail", "sampled", "service")

#: ``{per-layer metric: (what it feeds, workloads that enter its layer)}``.
#: "What it feeds" names the end-to-end metric, on a workload, that a
#: change to the layer should move.  A traced run reports every metric
#: of the layers its workload enters; the others, and only those, read 0.
LAYERS = {
    "core.pipeline.run_s": ("detail/kips", _DETAIL),
    "core.pipeline.fetch_s": ("detail/kips", _IN_PROCESS),
    "core.pipeline.rename_s": ("detail/kips", _IN_PROCESS),
    "core.pipeline.issue_s": ("detail/kips", _IN_PROCESS),
    "core.pipeline.memory_s": ("detail/kips", _IN_PROCESS),
    "core.pipeline.complete_s": ("detail/kips", _IN_PROCESS),
    "core.pipeline.retire_s": ("detail/kips", _IN_PROCESS),
    "arch.checker_step_s": ("detail/kips", _IN_PROCESS),
    "arch.checker_steps": ("detail/kips", _IN_PROCESS),
    "branch.predict_s": ("detail/kips", _IN_PROCESS),
    "branch.update_s": ("detail/kips", _IN_PROCESS),
    "branch.lookups": ("detail/kips", _IN_PROCESS),
    "memsys.access_s": ("detail/kips", _IN_PROCESS),
    "memsys.accesses": ("detail/kips", _IN_PROCESS),
    "core.us_per_cycle": ("detail/kips", _IN_PROCESS),
    "core.retired": ("detail/kips", _IN_PROCESS),
    "core.cycles": ("detail/kips", _IN_PROCESS),
    "branch.mispredicts": ("detail/kips", _IN_PROCESS),
    "memsys.l1d_misses": ("detail/kips", _IN_PROCESS),
    "core.warm.record_s": ("sampled/kips", _SAMPLED),
    "core.warm.recorded_instructions": ("sampled/kips", _SAMPLED),
    "core.warm.materialize_s": ("sampled/kips", _SAMPLED),
    "core.warm.replay_s": ("sampled/kips", _SAMPLED),
    "core.warm.replays": ("sampled/kips", _SAMPLED),
    "core.pipeline.slice_s": ("sampled/kips", _SAMPLED),
    "perf.sample.windows": ("sampled/output check", _SAMPLED),
    "perf.sample.measured_fraction": ("sampled/kips", _SAMPLED),
    "perf.sample.ipc_error_pct": ("sampled/output check", _SAMPLED),
    "perf.sample.ipc_ci95_pct": ("sampled/output check", _SAMPLED),
    "workloads.build_s": ("detail+sampled/setup_s", _IN_PROCESS),
    "serve.api.post_s": ("service/job_latency", _SERVICE),
    "serve.api.get_s": ("service/job_latency", _SERVICE),
    "serve.queue.wait_s": ("service/job_latency", _SERVICE),
    "serve.queue.run_s": ("service/job_latency", _SERVICE),
    "rel.supervise.point_s": ("service/job_latency", _SERVICE),
    "serve.daemon.rounds": ("service/job_latency", _SERVICE),
    "serve.daemon.jobs_per_round": ("service/job_latency", _SERVICE),
    "perf.cache.hits": ("service/job_latency", _SERVICE),
    "perf.cache.misses": ("service/job_latency", _SERVICE),
    "perf.cache.hit_ratio": ("service/job_latency", _SERVICE),
    "serve.api.errors": ("service/failed", _SERVICE),
    "serve.lost_jobs": ("service/failed", _SERVICE),
    "serve.queue.dedup_submits": ("service/failed", _SERVICE),
    "serve.client.jobs": ("service/job_latency", _SERVICE),
    "serve.client.late_s": ("service/job_latency", _SERVICE),
    "host.calib_s": ("all/kips", _ALL),
    "host.wall_s": ("all/kips", _ALL),
    # The service's daemon is never probed: only the client's own HTTP
    # calls are timed, so there is no tracing overhead to measure there.
    "trace.overhead_pct": ("detail+sampled/per-layer", _IN_PROCESS),
}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _catalogues(workload=None):
    """The parsed ``BENCHMARK.json``, and ``service.json`` when it lists
    *workload* (or when *workload* is None)."""
    service = _load(SERVICE_JSON)
    listed = {entry["name"] for entry in service["workloads"]}
    return [_load(BENCHMARK_JSON)] + ([service] if workload is None
                                      or workload in listed else [])


def workloads():
    """The names of every workload a run can be asked for."""
    return [entry["name"] for doc in _catalogues()
            for entry in doc["workloads"]]


def units(workload, trace):
    """``{name: unit}`` of the metrics a run of *workload* with *trace*
    prints."""
    section = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"]
            for doc in _catalogues(workload) for metric in doc[section]}


def entered(workload):
    """The per-layer metrics of the layers *workload* enters."""
    return {name for name, (_, workloads) in LAYERS.items()
            if workload in workloads}


def result_line(workload, values, trace, attempted, failed, correct):
    """The JSON object a run prints last.

    *values* must hold every end-to-end metric (*trace* 0), or every
    per-layer metric of the layers *workload* enters (*trace* 1); the
    per-layer metrics of the other layers are printed as 0.
    """
    expected = units(workload, trace)
    want = entered(workload) if trace else set(expected)
    if set(values) != want:
        raise ValueError("metric set mismatch: missing %s, extra %s"
                         % (sorted(want - set(values)),
                            sorted(set(values) - want)))
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number: %r"
                             % (name, value))
    full = dict.fromkeys(expected, 0)
    full.update(values)
    metrics = {name: {"value": full[name], "unit": expected[name]}
               for name in expected}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# -- small statistics used by every workload ---------------------------

def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, pct):
    """The *pct* percentile of *values* (inclusive interpolation)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[pct - 1]


def median(values):
    return statistics.median(values) if values else 0.0
