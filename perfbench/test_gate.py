"""Tests of the benchmark's correctness gate.

    python3 -m pytest perfbench/test_gate.py
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import lcim
from lcim.knapcuts import yvar, zvar

import gate
from run import run_task
from tracer import Tracer
from workloads import Outcome


@pytest.fixture(scope="module")
def solved():
    inst = lcim.generate_small_world(8, 4, 0.1, 1.0, seed=42)
    optimum = lcim.brute_force_optimum(inst)[0]
    return inst, lcim.solve(inst, "cb"), optimum


def test_sound_report_passes(solved):
    inst, report, optimum = solved
    assert gate.check_report(inst, report, optimum) == []


def test_wrong_ub_is_flagged(solved):
    inst, report, optimum = solved
    doctored = dataclasses.replace(report, ub=report.ub + 1, lb=report.ub + 1)
    problems = gate.check_report(inst, doctored, optimum)
    assert any("activation cost" in p for p in problems)
    assert any("!= optimum" in p for p in problems)


def test_open_gap_and_time_limit_are_flagged(solved):
    inst, report, _ = solved
    doctored = dataclasses.replace(report, status="time_limit", lb=report.ub - 2)
    problems = gate.check_report(inst, doctored)
    assert any("status time_limit" in p for p in problems)
    assert any("lb" in p for p in problems)


def test_cyclic_point_is_flagged():
    triangle = lcim.make_instance(
        3, {(i, j): 2 for i in (1, 2, 3) for j in (1, 2, 3) if i != j}, {1: 3, 2: 3, 3: 3}, 3
    )
    point = {zvar(i): 1.0 for i in (1, 2, 3)}
    point.update({yvar(1, 2): 1.0, yvar(2, 3): 1.0, yvar(3, 1): 1.0})
    assert gate.check_incumbent(triangle, {"point": point}, 3) == [
        "influence support has a cycle"
    ]
    # with one arc dropped the support is acyclic: activating 1, 2, 3 in
    # that order costs 3 + 1 + 0
    del point[yvar(3, 1)]
    assert gate.check_incumbent(triangle, {"point": point}, 4) == []


def test_short_order_is_flagged(solved):
    inst, report, _ = solved
    order = lcim.brute_force_optimum(inst)[1][:-1]
    problems = gate.check_incumbent(inst, {"order": order}, report.ub)
    assert any("covers" in p for p in problems)


def test_crashing_solve_counts_as_failed():
    class Crashing:
        name = "crash"

        def run(self, task, tracer):
            raise RuntimeError("boom")

    class Task:
        label = "t"

    outcome = run_task(Crashing(), Task(), Tracer())
    assert isinstance(outcome, Outcome)
    assert outcome.problems


def test_over_limit_solve_counts_as_failed():
    from workloads import WORKLOADS

    hasty = dataclasses.replace(WORKLOADS["small-oracle"], time_limit=1e-6)
    task = next(t for t in hasty.build(42) if t.mode == "def")
    hasty.prepare([task])
    outcome = run_task(hasty, task, Tracer())
    assert "status time_limit" in outcome.problems


def test_tracer_records_only_inside_spans_and_refuses_double_wrap():
    import types

    from tracer import TraceError

    ns = types.SimpleNamespace(inner=lambda x: x + 1)
    tracer = Tracer()
    tracer.wrap(ns, "inner", "layer.inner")
    with pytest.raises(TraceError):
        tracer.wrap(ns, "inner", "layer.inner")
    assert ns.inner(1) == 2  # outside any span: passes through unrecorded
    assert tracer.layer("layer.inner") == (0, 0.0)
    result, _ = tracer.span("solve", lambda: ns.inner(1) + ns.inner(2))
    assert result == 5
    assert tracer.layer("layer.inner")[0] == 2
    assert tracer.self_seconds("solve") >= 0.0
    tracer.uninstall()
    assert ns.inner(1) == 2 and tracer.layer("layer.inner")[0] == 2
