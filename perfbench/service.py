"""The ``service`` workload: open-loop job traffic to ``repro serve``.

One client process (one thread, one connection at a time) plays two
tenants against a ``repro serve --port 0`` daemon with default knobs.
Jobs arrive as a seeded Poisson process at :data:`cases.SERVICE_RATE`;
each is a short full-detail point of a figure-style sweep (the four
reference binaries x the ROB axis).  Two shares of the
traffic are fixed: :data:`cases.WARM_SHARE` of the fresh points have
their results put in the result cache during set-up, and
:data:`cases.DUP_SHARE` of the arrivals are the second tenant
re-submitting a point the first already sent.  The client waits for
every job the way ``repro submit --url --wait`` does, polling
``GET /jobs/<id>`` every :data:`cases.POLL_S` seconds, and times each
job from when it was due, so a stalled submit also delays the jobs
behind it.

After the traffic, the daemon's own durable records are read: WAL
record timestamps (queue wait and run time), ``/healthz`` counters
(scheduling rounds) and the telemetry spool (cache hits, per-point
worker time and memory).  Every accepted job must settle exactly once,
with the statistics a direct in-process simulation of its spec gives.
"""

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import cases
from calibrate import Calibrator
from catalog import Outcome, median, percentile
from spans import Tracer

#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds of calibration after the traffic of a traced run.
CALIB_S = 1.0
#: How long the daemon may take to come up, and to drain.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
HTTP_TIMEOUT_S = 10.0
TERMINAL = ("done", "failed", "dead")
#: The closing line of a logged traceback, such as ``KeyError: 'ab'``.
_EXCEPTION_LINE = re.compile(r"[A-Za-z_][\w.]*(Error|Exception)\b")


class Arrival:
    """One scheduled submit and what became of it."""

    __slots__ = ("due", "spec", "tenant", "kind", "job_id", "created",
                 "state", "payload", "seen", "error", "phase", "next_poll")

    def __init__(self, due, spec, tenant, kind, phase=0.0):
        self.due = due
        self.spec = spec
        self.tenant = tenant
        self.kind = kind  # "fresh", "warm" (pre-cached) or "dup"
        self.job_id = None
        self.created = None
        self.state = None
        self.payload = None
        self.seen = None
        self.error = None
        self.phase = phase  # first poll this long after the submit
        self.next_poll = None

    @property
    def failed(self):
        return self.state != "done"


# -- the schedule -------------------------------------------------------

def sweep_grid():
    """Every point of the figure-style sweep, as job specs per case."""
    return {
        case.name: [{
            "workload": case.workload, "variant": case.variant,
            "input": case.input_name, "config": case.config,
            "scale": cases.SERVICE_SCALE, "rob": rob,
            "max_instructions": cases.SERVICE_BUDGETS[case.name],
        } for rob in cases.ROB_AXIS]
        for case in cases.DETAIL_CASES
    }


def _spec_id(spec):
    return json.dumps(spec, sort_keys=True)


def make_schedule(seed, seconds):
    """The seeded arrivals of one traffic pass over *seconds*.

    A Poisson process with ``round(SERVICE_RATE * seconds)`` arrivals:
    their times are that many uniform draws over the pass, sorted.
    Fixing the count keeps the sample size of the latency percentiles
    the same in every run.  Fresh points take the four binaries in turn
    (in a seeded order), each with a ROB size not drawn before, so every
    run offers the same mix of work.  Each job's poll clock starts at a
    seeded phase within the poll period: a client's clock is not in step
    with the daemon's, and a shared phase would round every latency to
    the same 0.2 s grid and make the percentiles jump between its steps.
    """
    rng = random.Random(seed)
    count = max(2, round(cases.SERVICE_RATE * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    phases = [rng.uniform(0.0, cases.POLL_S) for _ in range(count)]
    dup_slots = set(rng.sample(range(1, count),
                               round(cases.DUP_SHARE * count)))
    fresh_count = count - len(dup_slots)
    warm = set(rng.sample(range(fresh_count),
                          round(cases.WARM_SHARE * fresh_count)))
    pools = []
    for specs in sweep_grid().values():
        pool = list(specs)
        rng.shuffle(pool)
        pools.append(pool)
    rng.shuffle(pools)
    if -(-fresh_count // len(pools)) > len(cases.ROB_AXIS):
        raise ValueError("a %.0f s pass needs %d fresh points; the sweep "
                         "grid has too few" % (seconds, fresh_count))
    arrivals, fresh = [], []
    for index, due in enumerate(dues):
        if index in dup_slots:
            arrivals.append(Arrival(due, fresh[-1].spec, cases.TENANTS[1],
                                    "dup", phases[index]))
            continue
        spec = pools[len(fresh) % len(pools)][len(fresh) // len(pools)]
        kind = "warm" if len(fresh) in warm else "fresh"
        arrival = Arrival(due, spec, cases.TENANTS[0], kind, phases[index])
        fresh.append(arrival)
        arrivals.append(arrival)
    return arrivals


# -- HTTP ---------------------------------------------------------------

def _request(url, body=None):
    """``(status, document)`` of one request.

    Raises :class:`OSError` for a request that got no usable answer: a
    dropped connection, a timeout or a body that is not JSON.
    """
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request,
                                    timeout=HTTP_TIMEOUT_S) as response:
            raw = response.read()
            status = response.status
    except urllib.error.HTTPError as exc:
        return exc.code, None
    try:
        return status, json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise OSError("answer is not JSON: %s" % exc) from exc


class Daemon:
    """One ``repro serve --port 0`` process over a fresh directory."""

    def __init__(self, base, src):
        self.root = os.path.join(base, "service")
        self.cache = os.path.join(base, "cache")
        for path in (self.root, self.cache):
            shutil.rmtree(path, ignore_errors=True)
        os.makedirs(self.root)
        self.log = os.path.join(base, "daemon.log")
        env = dict(os.environ, PYTHONPATH=src, REPRO_CACHE_DIR=self.cache)
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", self.root,
                 "--port", "0"],
                env=env, stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)
        self.url = None

    def wait_healthy(self):
        addr_path = os.path.join(self.root, "http.addr")
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited with code %s"
                                   % self.proc.returncode)
            try:
                with open(addr_path) as fh:
                    address = fh.read().strip()
            except OSError:
                address = ""
            if address:
                self.url = "http://" + address
                try:
                    status, doc = _request(self.url + "/healthz")
                except OSError:
                    status, doc = None, None
                if status == 200 and doc.get("ok"):
                    return
            time.sleep(0.02)
        raise RuntimeError("repro serve did not become healthy in %.0f s"
                           % START_TIMEOUT_S)

    def health(self):
        return _request(self.url + "/healthz")[1]

    def tracebacks(self):
        """The last line of each traceback the daemon logged."""
        try:
            with open(self.log, "rb") as fh:
                lines = fh.read().decode("utf-8", "replace").splitlines()
        except OSError:
            return []
        return [line for line in lines if _EXCEPTION_LINE.match(line)]

    def peak_rss_mb(self):
        """The daemon process's resident high-water mark."""
        try:
            with open("/proc/%d/status" % self.proc.pid) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self):
        """Drain the daemon; kill its process group if it will not go."""
        if self.proc.poll() is None and self.url is not None:
            try:
                _request(self.url + "/drain", body={})
            except OSError:
                pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        # Pool workers share the daemon's session: make sure none
        # outlives it, then reap the daemon.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


# -- set-up -------------------------------------------------------------

def prewarm(daemon, specs):
    """Put the results of *specs* in the daemon's result cache."""
    from repro.perf.cache import ResultCache
    from repro.rel.supervise import run_supervised_sweep
    from repro.serve.queue import point_from_spec

    points = [point_from_spec(spec) for spec in specs]
    outcomes = run_supervised_sweep(
        points, jobs=1, cache=ResultCache(root=daemon.cache))
    bad = [outcome for outcome in outcomes if not outcome.ok]
    if bad:
        raise RuntimeError("cache pre-warm failed: %s" % bad[0].error)


def setup(base, src, warm_specs):
    """Start a healthy, pre-warmed daemon; returns it and ``setup_s``.

    The whole set-up (daemon start to a healthy ``/healthz``, then the
    cache pre-warm) runs :data:`SETUP_REPEATS` times on fresh
    directories; all but the last daemon are stopped again.
    """
    times = []
    daemon = None
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        daemon = Daemon(base, src)
        try:
            daemon.wait_healthy()
            prewarm(daemon, warm_specs)
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            daemon.stop()
    return daemon, median(times)


# -- the load generator -------------------------------------------------

def drive(daemon, arrivals, tracer=None):
    """Send *arrivals* on schedule and wait for every job to settle.

    A ``GET`` that is dropped or answered with an error ends the wait
    for its job, as it ends ``repro submit --url --wait``, and the job
    counts as failed; a 404 is polled again until the job's deadline.
    Returns the largest lateness of a submit behind its due time, the
    daemon's peak resident set seen while it ran and the seconds the
    pass took.
    """
    url = daemon.url
    origin = time.monotonic()
    pending = []
    queue = list(arrivals)
    queue.reverse()
    late = 0.0
    peak_rss = 0.0
    next_rss = 0.0

    def call(name, job_id, target, body=None):
        if tracer is None:
            return _request(target, body)
        with tracer.span(name, job=job_id) as attrs:
            status, doc = _request(target, body)
            if doc and not attrs["job"]:
                attrs["job"] = doc.get("job_id")
            return status, doc

    while queue or pending:
        now = time.monotonic() - origin
        while queue and queue[-1].due <= now:
            arrival = queue.pop()
            late = max(late, now - arrival.due)
            try:
                status, doc = call(
                    "serve.api.post", None, url + "/jobs",
                    dict(arrival.spec, tenant=arrival.tenant))
            except OSError as exc:
                status, doc = None, None
                arrival.error = "POST dropped: %s" % exc
            if status in (200, 201):
                arrival.job_id = doc["job_id"]
                arrival.created = doc.get("created")
                arrival.next_poll = time.monotonic() - origin + arrival.phase
                pending.append(arrival)
            else:
                arrival.state = "rejected"
                arrival.seen = time.monotonic() - origin
                if arrival.error is None:
                    arrival.error = "POST answered HTTP %s" % status
            now = time.monotonic() - origin
        for arrival in list(pending):
            if arrival.next_poll > now:
                continue
            if now - arrival.due > cases.JOB_DEADLINE_S:
                arrival.state = "lost"
                arrival.error = ("job %s not settled %.0f s after it was "
                                 "due" % (arrival.job_id,
                                          cases.JOB_DEADLINE_S))
                pending.remove(arrival)
                continue
            try:
                status, doc = call("serve.api.get", arrival.job_id,
                                   url + "/jobs/" + arrival.job_id)
            except OSError:
                status, doc = None, None
            now = time.monotonic() - origin
            if status not in (200, 404):
                arrival.state = "unanswered"
                arrival.seen = now
                arrival.error = "GET /jobs/%s %s" % (
                    arrival.job_id, "dropped" if status is None
                    else "answered HTTP %s" % status)
                pending.remove(arrival)
                continue
            if status == 200 and doc["state"] in TERMINAL:
                arrival.state = doc["state"]
                arrival.payload = doc.get("result")
                arrival.seen = now
                if arrival.state != "done":
                    arrival.error = "job %s %s: %s" % (
                        arrival.job_id, arrival.state, doc.get("error"))
                pending.remove(arrival)
            else:
                arrival.next_poll += cases.POLL_S
        if now >= next_rss:
            peak_rss = max(peak_rss, daemon.peak_rss_mb())
            next_rss = now + 1.0
        wake = [arrival.next_poll for arrival in pending]
        if queue:
            wake.append(queue[-1].due)
        if wake:
            delay = min(wake) - (time.monotonic() - origin)
            if delay > 0:
                time.sleep(delay)
    return (late, max(peak_rss, daemon.peak_rss_mb()),
            time.monotonic() - origin)


def latencies(arrivals):
    """Due-to-seen seconds; a failed job counts as the deadline."""
    return [cases.JOB_DEADLINE_S if arrival.failed
            else arrival.seen - arrival.due for arrival in arrivals]


# -- what the daemon wrote down ----------------------------------------

def _jsonl(path):
    docs = []
    try:
        with open(path, "rb") as fh:
            raw_lines = fh.read().splitlines()
    except OSError:
        return docs
    for raw in raw_lines:
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            continue
        if isinstance(doc, dict):
            docs.append(doc)
    return docs


def read_records(daemon):
    """WAL ops per job and every telemetry event of the spool."""
    wal = {}
    for doc in _jsonl(os.path.join(daemon.root, "wal.jsonl")):
        wal.setdefault(doc.get("job_id"), []).append(doc)
    spool = os.path.join(daemon.root, "spool")
    events = []
    for name in sorted(os.listdir(spool)) if os.path.isdir(spool) else ():
        if name.endswith(".jsonl"):
            events.extend(_jsonl(os.path.join(spool, name)))
    return wal, events


# -- output checks ------------------------------------------------------

def direct_stats(spec, builds):
    """The stats snapshot, as JSON carries it, of a direct in-process
    simulation of job *spec*; *builds* caches the built binaries."""
    from repro.core.simulator import Simulator
    from repro.workloads import get_workload

    key = (spec["workload"], spec["variant"], spec["input"], spec["scale"])
    if key not in builds:
        builds[key] = get_workload(spec["workload"]).build(
            spec["variant"], spec["input"], spec["scale"], 1)
    config = cases.make_config(spec["config"], rob_size=spec["rob"])
    result = Simulator(builds[key].program, config).run(
        spec["max_instructions"])
    return json.loads(json.dumps(result.stats.to_snapshot()))


def check(arrivals, wal):
    """Notes on every failed job; marks a failing arrival failed.

    A job whose statistics differ from a direct simulation is marked
    ``wrong``: the program gave a wrong answer, not just no answer.
    """
    notes = []
    truth = {}
    builds = {}
    for arrival in arrivals:
        if arrival.error:
            notes.append(arrival.error)
        if arrival.job_id is None:
            continue
        settles = [doc for doc in wal.get(arrival.job_id, ())
                   if doc.get("op") in TERMINAL]
        if arrival.state in TERMINAL and len(settles) != 1:
            notes.append("job %s settled %d times in the WAL"
                         % (arrival.job_id, len(settles)))
            arrival.state = "unsettled"
        if arrival.state != "done":
            continue
        key = _spec_id(arrival.spec)
        if key not in truth:
            truth[key] = direct_stats(arrival.spec, builds)
        if arrival.payload is None or arrival.payload.get("stats") != \
                truth[key]:
            notes.append("job %s stats differ from a direct simulation "
                         "of %s" % (arrival.job_id, key))
            arrival.state = "wrong"
    return notes


# -- metrics ------------------------------------------------------------

def _settled_points(events, job_ids):
    return [event for event in events
            if event.get("kind") == "point_settled"
            and event.get("key") in job_ids]


def end_to_end(arrivals, events, setup_s, peak_rss):
    """The end-to-end metrics of one untraced pass.

    ``kips`` is the service's goodput: the retired instructions of every
    job the client saw settle ``done``, per second from the start of the
    pass until the last of them settled.  Below saturation it follows
    the offered load, and it falls when jobs fail or the service falls
    behind.  Like the latencies it is not scaled by the calibration,
    because the pass includes fixed sleeps.
    """
    job_ids = {arrival.job_id for arrival in arrivals}
    worker_rss = [event["resources"]["maxrss_kb"] / 1024.0
                  for event in _settled_points(events, job_ids)
                  if event.get("resources") and not event.get("cached")]
    done = [arrival for arrival in arrivals if not arrival.failed]
    retired = sum(arrival.payload["stats"]["counters"]["retired"]
                  for arrival in done)
    lat = latencies(arrivals)
    return {
        "kips": retired / max((arrival.seen for arrival in done),
                              default=1.0) / 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": max([peak_rss] + worker_rss),
        "job_latency_p50_s": percentile(lat, 50),
        "job_latency_p90_s": percentile(lat, 90),
    }


def per_layer(arrivals, wal, events, tracer, health_before, health_after,
              late):
    """Per-layer metrics of one traced pass, and notes on every layer
    the pass enters that left no record of its work."""
    job_ids = {arrival.job_id for arrival in arrivals if arrival.job_id}
    waits, runs = [], []
    for job_id in job_ids:
        ops = wal.get(job_id, ())
        submitted = next((d["ts"] for d in ops if d.get("op") == "submit"),
                         None)
        leased = next((d["ts"] for d in ops if d.get("op") == "lease"), None)
        done = next((d["ts"] for d in ops if d.get("op") == "done"), None)
        if submitted is not None and leased is not None:
            waits.append(leased - submitted)
        if leased is not None and done is not None:
            runs.append(done - leased)
    settled = _settled_points(events, job_ids)
    simulated = [event["seconds"] for event in settled
                 if not event.get("cached")]
    hits = sum(1 for event in events if event.get("kind") == "cache_hit"
               and event.get("key") in job_ids)
    leases = [event for event in events if event.get("kind") == "daemon_lease"
              and job_ids.intersection(event.get("jobs", ()))]
    leased = sum(len(event["jobs"]) for event in leases)
    rounds = (health_after["counters"]["rounds_total"]
              - health_before["counters"]["rounds_total"])
    spans = {name: [(s["end_ns"] - s["start_ns"]) / 1e9
                    for s in tracer.spans if s["name"] == name]
             for name in ("serve.api.post", "serve.api.get")}
    records = {
        "serve.api.post spans": len(spans["serve.api.post"]),
        "serve.api.get spans": len(spans["serve.api.get"]),
        "WAL lease records": len(waits),
        "WAL done records": len(runs),
        "spool point_settled events of simulated points": len(simulated),
        "spool cache_hit events": hits,
        "spool daemon_lease events": len(leases),
        "/healthz scheduling rounds": rounds,
    }
    notes = ["the traced pass left no %s: that layer is no longer measured"
             % what for what, count in records.items() if not count]
    values = {
        "serve.api.post_s": median(spans["serve.api.post"]),
        "serve.api.get_s": median(spans["serve.api.get"]),
        "serve.queue.wait_s": median(waits),
        "serve.queue.run_s": median(runs),
        "rel.supervise.point_s": median(simulated),
        "serve.daemon.rounds": rounds,
        "serve.daemon.jobs_per_round": leased / len(leases) if leases else 0,
        "perf.cache.hits": hits,
        "perf.cache.misses": len(simulated),
        "perf.cache.hit_ratio": hits / (hits + len(simulated))
        if hits + len(simulated) else 0.0,
        "serve.api.errors": sum(
            1 for arrival in arrivals
            if arrival.state in ("rejected", "unanswered")),
        "serve.lost_jobs": sum(1 for arrival in arrivals
                               if arrival.state == "lost"),
        "serve.queue.dedup_submits": sum(1 for arrival in arrivals
                                         if arrival.created is False),
        "serve.client.jobs": len(arrivals),
        "serve.client.late_s": late,
    }
    return values, notes


def run(seed, seconds, trace, trace_path, run_dir, src):
    """Run the service workload; returns its :class:`Outcome`.

    With *trace*, the one pass is timed by the client's spans.  Only the
    client's own HTTP calls are traced and the daemon is never probed,
    so this workload reports no tracing overhead.
    """
    base = os.path.join(run_dir, "service-%d" % os.getpid())
    arrivals = make_schedule(seed, seconds)
    daemon, setup_s = setup(
        base, src, [a.spec for a in arrivals if a.kind == "warm"])
    tracer = Tracer()
    try:
        health = [daemon.health()]
        with tracer.span("pass", seed=seed):
            late, peak_rss, elapsed = drive(
                daemon, arrivals, tracer if trace else None)
        health.append(daemon.health())
        # The host's speed, for the record: nothing here is scaled by it.
        calib_s = Calibrator().sample(CALIB_S)[0] if trace else None
        wal, events = read_records(daemon)
    finally:
        daemon.stop()
    try:
        notes = ["daemon logged %s" % line for line in daemon.tracebacks()]
        notes.extend(check(arrivals, wal))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    failed = sum(1 for a in arrivals if a.failed)
    correct = not any(a.state == "wrong" for a in arrivals)
    if not trace:
        values = end_to_end(arrivals, events, setup_s, peak_rss)
        return Outcome(values, len(arrivals), failed, correct, notes)
    tracer.dump(trace_path)
    values, silent = per_layer(arrivals, wal, events, tracer, health[0],
                               health[1], late)
    values["host.calib_s"] = calib_s
    values["host.wall_s"] = elapsed
    return Outcome(values, len(arrivals), failed + len(silent), correct,
                   notes + silent)
