"""The ``detail`` and ``sampled`` workloads: in-process simulation.

Both run the four reference cases round-robin in one process, in an
order drawn from the seed, with the calibration loop timed right
before each case.  ``detail`` calls :meth:`Simulator.run` (``repro
run`` traffic); ``sampled`` calls :meth:`SampledSimulator.run` with the
pre-scan done inline (``repro run --sample`` traffic).  Each run starts
with a warm-up simulation of every case outside the timed region,
because the first simulation of a binary in a process runs measurably
slower than the rest.
"""

import random
import resource
import time

import cases
from calibrate import CALIB_REF_S, Calibrator
from catalog import Outcome, entered, geomean, median
from spans import STAGES, Tracer, probe_layers

#: Set-up repetitions; ``setup_s`` is their median (plus the imports).
SETUP_REPEATS = 3
#: Calibration before a case lasts this share of the case's last host
#: time (and at least :data:`MIN_CALIB_S`).
CALIB_SHARE = 0.15
MIN_CALIB_S = 0.1


def _max_rss_mb():
    """This process's resident high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CaseRun:
    """One timed simulation of one case, reduced to what is reported."""

    __slots__ = ("case", "seconds", "calib_s", "calib_reps", "stats", "ipc",
                 "sampling", "l1d_misses", "problems")

    def __init__(self, case, result, seconds, calib, problems):
        self.case = case
        self.seconds = seconds
        self.calib_s, self.calib_reps = calib
        self.stats = result.stats
        self.ipc = result.ipc
        self.sampling = getattr(result, "sampling", None)
        self.l1d_misses = result.pipeline.memory.l1d.misses
        self.problems = problems


def host_scale(runs):
    """Reference-host seconds per host second over *runs*.

    From the mean of every calibration repetition of the runs: they are
    interleaved with the cases, in proportion to the cases' durations,
    so they see the same mix of fast and slow host spells as the cases.
    """
    return _scale([(run.calib_s, run.calib_reps) for run in runs])


def _scale(calibs):
    """Reference-host seconds per host second from ``(mean_s, reps)``
    calibration samples."""
    reps = sum(count for _, count in calibs)
    return CALIB_REF_S * reps / sum(mean * count for mean, count in calibs)


class InProcessWorkload:
    """Set-up, timed rounds and output checks of one in-process mode."""

    def __init__(self, mode, seed):
        if mode not in ("detail", "sampled"):
            raise ValueError("unknown in-process mode %r" % mode)
        self.mode = mode
        self.cases = cases.DETAIL_CASES if mode == "detail" \
            else cases.SAMPLED_CASES
        order = list(self.cases)
        random.Random(seed).shuffle(order)
        self.order = order
        self.builds = {}
        self.setup_s = None
        self.build_s = None
        self.calibrator = Calibrator()
        # The interpreter and the calibration heap are the benchmark's,
        # not the program's: peak_rss_mb is the peak above this mark.
        self.rss_base_mb = _max_rss_mb()
        self.last_seconds = {}

    # -- set-up -------------------------------------------------------

    def setup(self):
        """Import, build and warm up; ``setup_s`` is normalized like the
        case times, from calibrations taken before each step."""
        calibs = [self.calibrator.sample(MIN_CALIB_S)]
        start = time.perf_counter()
        from repro.core.simulator import Simulator
        from repro.perf.sample import SampledSimulator, SamplingPlan
        from repro.workloads import get_workload

        self._simulator = Simulator
        self._sampled = SampledSimulator
        self._plan = SamplingPlan.from_spec(cases.SAMPLED_PLAN)
        import_s = time.perf_counter() - start
        totals, builds = [], []
        warm_case = next(case for case in self.cases
                         if case.name == cases.WARMUP_CASE[self.mode])
        for _ in range(SETUP_REPEATS):
            calibs.append(self.calibrator.sample(MIN_CALIB_S))
            rep_start = time.perf_counter()
            self.builds = {
                case.name: get_workload(case.workload).build(
                    case.variant, case.input_name, case.scale, 1)
                for case in self.cases
            }
            builds.append(time.perf_counter() - rep_start)
            self._warm_up(warm_case)
            totals.append(time.perf_counter() - rep_start)
        self.setup_s = (import_s + median(totals)) * _scale(calibs)
        self.build_s = median(builds)
        # The first simulation of a binary in a process runs slower than
        # the rest, so the other cases run once too before the timed
        # rounds: otherwise their first run would weigh 1/2 or 1/3 of a
        # run's time, by how many rounds fit in it.
        for case in self.cases:
            if case is not warm_case:
                self._warm_up(case)

    def _warm_up(self, case):
        """Simulate *case* once, untimed; its time sets how long the
        calibration before its first timed run lasts."""
        start = time.perf_counter()
        self._simulate(case)
        self.last_seconds[case.name] = time.perf_counter() - start

    # -- one case -----------------------------------------------------

    def _simulate(self, case):
        program = self.builds[case.name].program
        config = cases.make_config(case.config)
        if self.mode == "detail":
            return self._simulator(program, config).run(case.budget)
        return self._sampled(program, config, self._plan).run(case.budget)

    def check(self, case, result):
        """Output check of one case; returns the problems found."""
        if self.mode == "detail":
            stats = result.stats
            seen = {"retired": stats.retired, "cycles": stats.cycles,
                    "mispredicts": stats.mispredicts}
            want = cases.DETAIL_REFERENCE[case.name]
            return ["%s %s=%s, reference %s" % (case.name, key, seen[key],
                                                 want[key])
                    for key in sorted(want) if seen[key] != want[key]]
        problems = []
        ipc = result.ipc
        full = cases.FULL_DETAIL_IPC[case.name]
        error = abs(ipc - full) / full * 100.0
        if error > cases.IPC_GATE_PCT:
            problems.append("%s IPC error %.3f%% over the %.1f%% gate"
                            % (case.name, error, cases.IPC_GATE_PCT))
        # Bit-for-bit equality with the banked estimate also makes every
        # repetition in the run equal.
        if ipc != cases.SAMPLED_IPC[case.name]:
            problems.append("%s sampled IPC %r, reference %r"
                            % (case.name, ipc, cases.SAMPLED_IPC[case.name]))
        return problems

    def run_case(self, case, tracer=None):
        calib = self.calibrator.sample(
            max(MIN_CALIB_S, CALIB_SHARE * self.last_seconds[case.name]))
        start = time.perf_counter()
        if tracer is None:
            result = self._simulate(case)
        else:
            with tracer.span("case", case=case.name, mode=self.mode):
                result = self._simulate(case)
        seconds = time.perf_counter() - start
        self.last_seconds[case.name] = seconds
        return CaseRun(case, result, seconds, calib,
                       self.check(case, result))

    def run_round(self, tracer=None):
        return [self.run_case(case, tracer) for case in self.order]

    def measure(self, seconds):
        """Whole rounds until *seconds* have passed (at least one)."""
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            runs.extend(self.run_round())
        return runs


def end_to_end(workload, runs):
    """The end-to-end metrics of one untraced measurement.

    ``kips`` normalizes each timed case by the calibration taken right
    before it, takes the median per case over the run and the geomean
    over the four cases.  The median keeps a case run that a slow host
    spell hit from moving the figure, as it would in a sum of times.
    Per-case latencies would restate the same wall clock, so job
    latency is a ``service`` metric only.
    """
    kips = {}
    for run in runs:
        kips.setdefault(run.case.name, []).append(
            run.stats.retired * run.calib_s / CALIB_REF_S / run.seconds
            / 1000.0)
    return {
        "kips": geomean(median(values) for values in kips.values()),
        "setup_s": workload.setup_s,
        "peak_rss_mb": _max_rss_mb() - workload.rss_base_mb,
    }


#: ``{per-layer metric: (probe, reading)}`` of the metrics read off the
#: probes of :func:`spans.probe_layers`: a call count, the summed span
#: time or the summed self time.
PROBE_METRICS = {
    **{"core.pipeline.%s_s" % stage: ("core.pipeline." + stage, "self_s")
       for stage in STAGES},
    "core.pipeline.run_s": ("core.pipeline.run", "total_s"),
    "arch.checker_step_s": ("arch.checker_step", "self_s"),
    "arch.checker_steps": ("arch.checker_step", "calls"),
    "branch.predict_s": ("branch.predict", "self_s"),
    "branch.update_s": ("branch.update", "self_s"),
    "branch.lookups": ("branch.predict", "calls"),
    "memsys.access_s": ("memsys.access", "self_s"),
    "memsys.accesses": ("memsys.access", "calls"),
    "core.warm.record_s": ("core.warm.record", "total_s"),
    "core.warm.materialize_s": ("core.warm.materialize", "total_s"),
    "core.warm.replay_s": ("core.warm.replay", "total_s"),
    "core.warm.replays": ("core.warm.replay", "calls"),
    "core.pipeline.slice_s": ("core.pipeline.slice", "total_s"),
}


def dead_probes(mode, tracer):
    """Notes on the probes of layers *mode* enters that never fired.

    A probe that stops firing (say, because a layer starts calling a
    method it captured before the probe was installed) would otherwise
    read as a layer that costs nothing.
    """
    layers = entered(mode)
    probes = sorted({probe for metric, (probe, _) in PROBE_METRICS.items()
                     if metric in layers})
    return ["probe %s recorded no call on %s: its layer is no longer timed"
            % (probe, mode) for probe in probes if not tracer.calls(probe)]


def per_layer(workload, plain, traced, tracer, recorded):
    """Per-layer metrics of one traced round, against an untraced one."""
    layers = entered(workload.mode)
    values = {metric: getattr(tracer, reading)(probe)
              for metric, (probe, reading) in PROBE_METRICS.items()
              if metric in layers}
    plain_s = sum(run.seconds for run in plain) * host_scale(plain)
    traced_s = sum(run.seconds for run in traced) * host_scale(traced)
    cycles = sum(run.stats.cycles for run in traced)
    values.update({
        "core.us_per_cycle": plain_s / cycles * 1e6,
        "core.retired": sum(run.stats.retired for run in traced),
        "core.cycles": cycles,
        "branch.mispredicts": sum(run.stats.mispredicts for run in traced),
        "memsys.l1d_misses": sum(run.l1d_misses for run in traced),
        "workloads.build_s": workload.build_s,
        "host.calib_s": CALIB_REF_S / host_scale(plain),
        "host.wall_s": sum(run.seconds for run in plain),
        "trace.overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
    })
    if workload.mode == "sampled":
        reports = [run.sampling for run in traced]
        values["core.warm.recorded_instructions"] = recorded[0]
        values["perf.sample.windows"] = sum(r["intervals"] for r in reports)
        values["perf.sample.measured_fraction"] = (
            sum(r["measured_instructions"] for r in reports)
            / sum(r["total_instructions"] for r in reports))
        values["perf.sample.ipc_error_pct"] = geomean(
            abs(run.ipc - cases.FULL_DETAIL_IPC[run.case.name])
            / cases.FULL_DETAIL_IPC[run.case.name] * 100.0
            for run in traced)
        values["perf.sample.ipc_ci95_pct"] = geomean(
            r["ipc_rel_ci95"] * 100.0 for r in reports)
    return values


def _outcome(values, runs, dead=()):
    """The outcome of *runs*; each note in *dead* is one more failure."""
    notes = [problem for run in runs for problem in run.problems]
    return Outcome(values, len(runs),
                   sum(1 for run in runs if run.problems) + len(dead),
                   not notes, notes + list(dead))


def run(mode, seed, seconds, trace, trace_path):
    """Run one in-process workload; returns its :class:`Outcome`."""
    workload = InProcessWorkload(mode, seed)
    workload.setup()
    if not trace:
        runs = workload.measure(seconds)
        return _outcome(end_to_end(workload, runs), runs)
    plain = workload.run_round()
    tracer = Tracer()
    with tracer.span("round", mode=mode, seed=seed), \
            probe_layers(tracer) as recorded:
        traced = workload.run_round(tracer)
    tracer.dump(trace_path)
    return _outcome(per_layer(workload, plain, traced, tracer, recorded),
                    plain + traced, dead_probes(mode, tracer))
