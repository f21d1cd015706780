"""The printed metrics match ``BENCHMARK.json`` (and ``service.json``
for the ``service`` workload); the run's exit contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import catalog
from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _service_json():
    with open(os.path.join(BENCH, "service.json")) as fh:
        return json.load(fh)


def test_every_per_layer_metric_has_its_feeds_and_layers():
    docs = (_benchmark_json(), _service_json())
    workloads = {w["name"] for doc in docs for w in doc["workloads"]}
    assert workloads == set(catalog.workloads())
    assert set(catalog.LAYERS) == {m["name"] for doc in docs
                                   for m in doc["per_layer"]}
    for _feeds, entered_by in catalog.LAYERS.values():
        assert entered_by and set(entered_by) <= workloads


def test_names_are_unique_and_well_formed():
    doc = _benchmark_json()
    service = _service_json()
    names = [m["name"] for d in (doc, service)
             for m in d["workloads"] + d["end_to_end"] + d["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in doc["end_to_end"]} >= {"setup_s"}
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def test_result_line_refuses_a_metric_set_that_differs():
    values = {name: 1.0 for name in catalog.units("detail", trace=0)}
    line = json.loads(catalog.result_line("detail", values, 0, 3, 0, True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    del values["kips"]
    with pytest.raises(ValueError, match="kips"):
        catalog.result_line("detail", values, 0, 3, 0, True)
    values["kips"] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        catalog.result_line("detail", values, 0, 3, 0, True)


def test_only_layers_a_workload_never_enters_read_zero():
    entered = catalog.entered("service")
    values = dict.fromkeys(entered, 1.0)
    line = json.loads(catalog.result_line("service", values, 1, 3, 0, True))
    assert set(line["metrics"]) == {
        m["name"] for doc in (_benchmark_json(), _service_json())
        for m in doc["per_layer"]}
    for name, metric in line["metrics"].items():
        assert metric["value"] == (1.0 if name in entered else 0)
    del values["serve.queue.wait_s"]
    with pytest.raises(ValueError, match="serve.queue.wait_s"):
        catalog.result_line("service", values, 1, 3, 0, True)
    values["serve.queue.wait_s"] = 1.0
    values["core.pipeline.run_s"] = 0
    with pytest.raises(ValueError, match="core.pipeline.run_s"):
        catalog.result_line("service", values, 1, 3, 0, True)


def _run(trace, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, runner, "--workload", "detail", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_names_and_units_match_benchmark_json(trace, section):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 4
    want = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    got = {name: metric["unit"] for name, metric in line["metrics"].items()}
    assert got == want


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path, runner=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
