"""A wrong output counts as a failed operation."""

import copy

import pytest

import cases
import inprocess
import service
import spans


@pytest.fixture(scope="module")
def detail():
    workload = inprocess.InProcessWorkload("detail", 1)
    workload.setup()
    return workload


def _case(name, pool=cases.DETAIL_CASES):
    return next(case for case in pool if case.name == name)


def test_reference_stats_pass(detail):
    run = detail.run_case(_case("soplex_cfd"))
    assert run.problems == []


@pytest.mark.parametrize("stat", ["retired", "cycles", "mispredicts"])
def test_corrupted_reference_stat_fails_the_case(detail, monkeypatch, stat):
    reference = copy.deepcopy(cases.DETAIL_REFERENCE)
    reference["soplex_cfd"][stat] += 1
    monkeypatch.setattr(cases, "DETAIL_REFERENCE", reference)
    run = detail.run_case(_case("soplex_cfd"))
    assert len(run.problems) == 1 and stat in run.problems[0]
    outcome = inprocess._outcome({}, [run])
    assert outcome.failed == 1 and outcome.attempted == 1
    assert outcome.correct is False


def test_corrupted_sampled_reference_fails_the_case(monkeypatch):
    workload = inprocess.InProcessWorkload("sampled", 1)
    workload.setup()
    case = _case("bzip2_tq", cases.SAMPLED_CASES)
    assert workload.run_case(case).problems == []
    ipc = dict(cases.SAMPLED_IPC)
    ipc["bzip2_tq"] += 1e-12
    monkeypatch.setattr(cases, "SAMPLED_IPC", ipc)
    problems = workload.run_case(case).problems
    assert len(problems) == 1 and "reference" in problems[0]


def _settled_arrival():
    spec = service.sweep_grid()["soplex_cfd"][0]
    arrival = service.Arrival(0.0, spec, cases.TENANTS[0], "fresh")
    arrival.job_id = "job-1"
    arrival.state = "done"
    arrival.seen = 1.0
    return arrival


def _true_payload(spec):
    return {"stats": service.direct_stats(spec, {})}


def test_service_check_accepts_a_true_result_settled_once():
    arrival = _settled_arrival()
    arrival.payload = _true_payload(arrival.spec)
    wal = {"job-1": [{"op": "submit"}, {"op": "lease"}, {"op": "done"}]}
    assert service.check([arrival], wal) == []
    assert not arrival.failed


def test_service_check_fails_a_corrupted_result():
    arrival = _settled_arrival()
    arrival.payload = _true_payload(arrival.spec)
    arrival.payload["stats"]["counters"]["cycles"] += 1
    wal = {"job-1": [{"op": "submit"}, {"op": "lease"}, {"op": "done"}]}
    notes = service.check([arrival], wal)
    assert len(notes) == 1 and "direct simulation" in notes[0]
    assert arrival.failed and arrival.state == "wrong"


def test_service_check_fails_a_job_settled_twice():
    arrival = _settled_arrival()
    arrival.payload = _true_payload(arrival.spec)
    wal = {"job-1": [{"op": "submit"}, {"op": "done"}, {"op": "done"}]}
    notes = service.check([arrival], wal)
    assert len(notes) == 1 and "settled 2 times" in notes[0]
    assert arrival.failed


def test_failed_and_lost_jobs_miss_every_limit():
    ok, lost = _settled_arrival(), _settled_arrival()
    lost.state = "lost"
    assert service.latencies([ok, lost]) == [1.0, cases.JOB_DEADLINE_S]


def test_a_service_layer_that_left_no_record_fails_the_run():
    arrival = _settled_arrival()
    health = {"counters": {"rounds_total": 0}}
    values, notes = service.per_layer([arrival], {}, [], spans.Tracer(),
                                      health, health, 0.0)
    assert len(notes) == 8
    assert values["serve.queue.wait_s"] == 0
