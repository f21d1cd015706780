"""Sweep determinism and robustness through the sweep driver.

The pool must be an implementation detail: the same points run serially
and via worker processes produce statistics byte-identical to a direct
``Simulator.run``, results come back in input order regardless of
completion order, and one crashing point surfaces as ``outcome.error``
without killing the sweep.
"""

from repro.perf import ResultCache, SweepPoint
from repro.rel import SupervisionPolicy, run_supervised_sweep
from tests.perf.helpers import direct_stats_blobs, stats_blobs


#: Two small, distinct points (different workloads and configs exercise
#: the per-point build + config plumbing through the process boundary).
def _points():
    return [
        SweepPoint(workload="astar_r1", variant="base", input_name="Rivers",
                   scale=0.125, max_instructions=2000),
        SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                   scale=0.125, max_instructions=2000),
    ]


def test_serial_and_pool_identical():
    serial = run_supervised_sweep(_points(), jobs=1)
    pooled = run_supervised_sweep(_points(), jobs=2)
    assert all(o.ok for o in serial)
    assert all(o.ok for o in pooled)
    reference = direct_stats_blobs(_points())
    assert stats_blobs(serial) == reference
    assert stats_blobs(pooled) == reference


def test_results_in_input_order():
    points = _points()
    outcomes = run_supervised_sweep(points, jobs=2)
    assert [o.point.label() for o in outcomes] == [p.label() for p in points]


def test_error_capture_does_not_kill_the_sweep():
    points = _points()
    points.insert(1, SweepPoint(workload="no-such-workload"))
    outcomes = run_supervised_sweep(points, jobs=2,
                                    policy=SupervisionPolicy(retries=0))
    assert outcomes[0].ok and outcomes[2].ok
    assert not outcomes[1].ok
    assert "no-such-workload" in outcomes[1].error
    assert outcomes[1].result is None


def test_cache_round_trip(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    first = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert all(o.ok and not o.cached for o in first)
    second = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert all(o.ok and o.cached for o in second)
    assert stats_blobs(first) == stats_blobs(second)


def test_progress_callback_sees_every_point():
    # The pool path; tests/rel/test_supervise.py covers the inline one.
    seen = []
    run_supervised_sweep(
        _points(), jobs=2,
        progress=lambda outcome, done, total: seen.append((done, total)),
    )
    assert sorted(seen) == [(1, 2), (2, 2)]


def test_success_records_seconds_and_attempts():
    for jobs in (1, 2):
        outcomes = run_supervised_sweep(_points(), jobs=jobs)
        assert all(o.ok for o in outcomes)
        assert all(o.seconds > 0 for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)
        # elapsed is parent-observed per point (submit to completion), so
        # it can never undercut the worker's own measurement by much.
        assert all(o.elapsed + 0.05 >= o.seconds for o in outcomes)


def test_cache_hits_record_zero_seconds_and_attempts(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    run_supervised_sweep(_points(), jobs=1, cache=cache)
    cached = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert all(o.cached and o.seconds == 0.0 and o.attempts == 0
               for o in cached)


def test_telemetry_on_and_off_identical(tmp_path):
    off = run_supervised_sweep(_points(), jobs=2)
    on = run_supervised_sweep(_points(), jobs=2,
                              telemetry=str(tmp_path / "spool"))
    assert stats_blobs(off) == stats_blobs(on)


# -- trace-store scheduling ------------------------------------------------

def _sampled_points():
    """Two sampled points, same workload under two machine sizes: one
    trace group (warm pre-scan is timing-config independent)."""
    from repro.core import sandy_bridge_config
    from repro.core.config import scale_window

    plan = "interval=200,warmup=50,period=5000,head=300,tail=300"
    return [
        SweepPoint(workload="astar_r1", variant="base", input_name="Rivers",
                   config=scale_window(sandy_bridge_config(), rob),
                   scale=0.125, max_instructions=30_000, sampling=plan)
        for rob in (64, 128)
    ]


def test_trace_store_records_once_then_every_point_hits(tmp_path):
    from repro.perf.tracestore import TraceStore

    store = TraceStore(root=str(tmp_path / "traces"))
    outcomes = run_supervised_sweep(_sampled_points(), jobs=1,
                                    trace_store=store)
    assert all(o.ok for o in outcomes)
    # The scheduler records the shared group trace exactly once...
    counters = store.counters()
    assert counters["stores"] == 1
    # ...and every point then loads it instead of re-scanning.
    assert [(o.trace or {}).get("source") for o in outcomes] == ["hit", "hit"]
    assert counters["hits"] >= len(outcomes)


def test_trace_store_second_sweep_prewarm_hits(tmp_path):
    from repro.perf.tracestore import TraceStore

    root = str(tmp_path / "traces")
    run_supervised_sweep(_sampled_points(), jobs=1,
                         trace_store=TraceStore(root=root))
    warm = TraceStore(root=root)
    outcomes = run_supervised_sweep(_sampled_points(), jobs=1,
                                    trace_store=warm)
    # Steady state: even the group recording is served from disk.
    counters = warm.counters()
    assert counters["stores"] == 0 and counters["misses"] == 0
    assert all((o.trace or {}).get("source") == "hit" for o in outcomes)


def test_trace_reuse_stats_identical_to_inline(tmp_path):
    baseline = run_supervised_sweep(_sampled_points(), jobs=1)
    assert all((o.trace or {}).get("source") == "inline" for o in baseline)
    reused = run_supervised_sweep(_sampled_points(), jobs=1,
                                  trace_store=str(tmp_path / "traces"))
    assert stats_blobs(baseline) == stats_blobs(reused)


def test_trace_telemetry_counters(tmp_path):
    from repro.obs.telemetry import SweepAggregator

    root = str(tmp_path / "traces")
    cold_spool = str(tmp_path / "cold")
    run_supervised_sweep(_sampled_points(), jobs=1, telemetry=cold_spool,
                         trace_store=root)
    cold = SweepAggregator(cold_spool)
    cold.poll()
    assert cold.counters["trace_records"] == 1
    assert cold.counters["trace_hits"] == 0
    assert cold.counters["trace_reuses"] == len(_sampled_points())

    warm_spool = str(tmp_path / "warm")
    run_supervised_sweep(_sampled_points(), jobs=1, telemetry=warm_spool,
                         trace_store=root)
    warm = SweepAggregator(warm_spool)
    warm.poll()
    assert warm.counters["trace_records"] == 0
    assert warm.counters["trace_hits"] == 1
    assert warm.counters["trace_reuses"] == len(_sampled_points())


def test_prewarm_records_each_group_on_its_own(tmp_path, monkeypatch):
    """Two trace groups of different sizes, the second failing to
    record: the first group is still stored, and its ``trace_record``
    event counts its own points, not the last group's."""
    from repro.core import warm
    from repro.perf.sweep import prewarm_traces
    from repro.perf.tracestore import TraceStore

    failing = SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                         scale=0.125, max_instructions=20_000,
                         sampling=_sampled_points()[0].sampling)
    record = warm.record_portable_trace

    def record_or_fail(pipeline, limit, *args, **kwargs):
        if limit == failing.max_instructions:
            raise RuntimeError("recording failed")
        return record(pipeline, limit, *args, **kwargs)

    monkeypatch.setattr(warm, "record_portable_trace", record_or_fail)

    class Events:
        def __init__(self):
            self.emitted = []

        def emit(self, kind, **fields):
            self.emitted.append(dict(fields, kind=kind))

    events = Events()
    store = TraceStore(root=str(tmp_path / "traces"))
    summary = prewarm_traces(_sampled_points() + [failing], store,
                             telemetry=events)
    assert summary == {"groups": 2, "hits": 0, "recorded": 1}
    assert store.counters()["stores"] == 1
    [recorded] = [e for e in events.emitted if e["kind"] == "trace_record"]
    assert recorded["point"] == _sampled_points()[0].label()
    assert recorded["points"] == len(_sampled_points())
