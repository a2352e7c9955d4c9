"""Self-tests of the benchmark (``python -m pytest perfbench -q``)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from layers import PER_LAYER
from run import END_TO_END, HERE, ROOT
from tracer import Tracer, wrapped_targets
from workloads import WORKLOADS, behaviour_record, make_run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_benchmark(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_slicing_reproduces_run_all(workload):
    from repro.sim.clock import seconds_to_ticks
    from repro.snapshot.driver import RunDriver

    whole = make_run(workload, 1)
    RunDriver(whole).run_all()
    expected = (behaviour_record(whole), whole.digest(), whole.bed.sim.seq)

    sliced = make_run(workload, 1)
    driver = RunDriver(sliced)
    step = seconds_to_ticks(0.01)
    tick = 0
    while tick < driver.end_tick:
        tick = min(tick + step, driver.end_tick)
        driver.run_to(tick)
    assert (behaviour_record(sliced), sliced.digest(),
            sliced.bed.sim.seq) == expected


def test_tracer_is_a_pure_observer_and_removes_every_wrapper():
    from repro.sim.clock import seconds_to_ticks
    from repro.snapshot.driver import RunDriver

    until = seconds_to_ticks(0.05)          # 40 ms of flood after settle
    plain = make_run("syn_flood", 3)
    RunDriver(plain).run_to(until)

    tracer = Tracer()
    tracer.install()
    try:
        traced = make_run("syn_flood", 3)
        driver = RunDriver(traced)
        tracer.install_run(traced.bed)
        nic = traced.bed.syn_attacker.nic
        assert "send" in vars(nic)
        driver.run_to(until)
        assert len(tracer.start) > 1000
    finally:
        tracer.remove()
    assert tracer.installed == 0
    assert wrapped_targets() == []
    assert "send" not in vars(nic)
    assert traced.digest() == plain.digest()


def test_every_name_is_well_formed():
    doc = _benchmark_json()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    names += list(WORKLOADS) + [n for n, _ in END_TO_END]
    names += [n for n, _u, _b in PER_LAYER]
    assert all(NAME.fullmatch(n) for n in names), names


def test_benchmark_json_matches_the_tables():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_output_names_match_benchmark_json(trace):
    doc = _benchmark_json()
    section = doc["per_layer"] if trace else doc["end_to_end"]
    proc = _run_benchmark("static_http", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in section}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark("static_http", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
