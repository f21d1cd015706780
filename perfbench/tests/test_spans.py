"""Self times never exceed their parent span; probes leave no trace."""

import time

import cases
import inprocess
import spans


def _children(tracer):
    children = {}
    for span in tracer.spans:
        children.setdefault(span["parent"], []).append(span)
    return children


def _check_nesting(tracer):
    children = _children(tracer)
    for span in tracer.spans:
        duration = span["end_ns"] - span["start_ns"]
        assert 0 <= span["self_ns"] <= duration
        inner = sum(c["end_ns"] - c["start_ns"]
                    for c in children.get(span["id"], ()))
        assert inner <= duration
        for child in children.get(span["id"], ()):
            assert span["start_ns"] <= child["start_ns"]
            assert child["end_ns"] <= span["end_ns"]
    for _calls, total, own in tracer.hot.values():
        assert 0 <= own <= total


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    sleepy = tracer.wrap("leaf", lambda: time.sleep(0.01))
    with tracer.span("outer"):
        with tracer.span("inner"):
            sleepy()
            sleepy()
        time.sleep(0.005)
    _check_nesting(tracer)
    inner = next(s for s in tracer.spans if s["name"] == "inner")
    outer = next(s for s in tracer.spans if s["name"] == "outer")
    assert inner["parent"] == outer["id"]
    assert tracer.calls("leaf") == 2
    assert inner["self_ns"] < 0.005e9
    assert outer["self_ns"] >= 0.005e9


def test_probed_simulation_nests_and_is_undone():
    from repro.core.pipeline import Pipeline
    from repro.core.simulator import Simulator
    from repro.core import sandy_bridge_config
    from repro.workloads import get_workload

    case = next(c for c in cases.DETAIL_CASES if c.name == "soplex_cfd")
    built = get_workload(case.workload).build(
        case.variant, case.input_name, case.scale, 1)
    plain = Simulator(built.program, sandy_bridge_config()).run(3000)
    original_init = Pipeline.__init__
    tracer = spans.Tracer()
    with tracer.span("case"), spans.probe_layers(tracer):
        traced = Simulator(built.program, sandy_bridge_config()).run(3000)
    assert Pipeline.__init__ is original_init
    assert traced.stats.to_dict() == plain.stats.to_dict()
    _check_nesting(tracer)
    assert tracer.calls("arch.checker_step") == traced.stats.retired
    stage_self = sum(tracer.self_s("core.pipeline." + stage)
                     for stage in spans.STAGES)
    assert stage_self <= tracer.total_s("core.pipeline.run")
    assert tracer.total_s("core.pipeline.run") <= tracer.total_s("case")
    assert inprocess.dead_probes("detail", tracer) == []


def test_a_probe_that_never_fires_fails_the_run():
    dead = inprocess.dead_probes("sampled", spans.Tracer())
    assert any("core.warm.replay" in note for note in dead)
    assert any("memsys.access" in note for note in dead)
    assert not any("core.pipeline.run " in note for note in dead)
    outcome = inprocess._outcome({}, [], dead)
    assert outcome.failed == len(dead) and outcome.correct
