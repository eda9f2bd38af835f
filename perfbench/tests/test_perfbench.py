"""Tests of the benchmark itself, at tiny caps.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json

import pytest

import harness
import oracle
import workloads
from qsu2 import operator_core
from qsu2.equivalence import difference
from tracer import Tracer

TINY = {"tails": 5, "relations": 6, "near_one": 4, "kmax": 20, "irrep_dim": 8,
        "coproduct": 3, "crystal": 6}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    spec = harness.load_spec()
    result = harness.run(workload, seed=7, seconds=0, trace=trace, caps=TINY)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"], result["lines"]
    assert result["attempted"] >= 1
    if trace:
        for inv in workloads.invocations(workload, 7, TINY):
            assert result["metrics"][f"cli.{inv.name}.s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _tails_pass(values, name="tails-alpha"):
    items = [{"name": f"m={m}", "value": v, "bound": v, "pass": True, "witness": None}
             for m, v in enumerate(values)]
    text = json.dumps({"command": "tails", "params": {}, "items": items, "pass": True,
                       "max_residual": 0.0, "elapsed_ms": 0})
    return {name: harness.Outcome(0, text, 0.0, 0.0, "")}


def test_tails_oracle_flags_a_perturbed_value():
    q, cap = -0.45, 5
    inv = workloads.Invocation("tails-alpha", ("tails",), q=q, cap=cap, tail_gen="alpha")
    exact = oracle.tail_norms(q, cap, "alpha")
    problems = []
    assert harness.check_outputs([inv], [_tails_pass(exact)], problems) == (cap + 1, 0)
    perturbed = list(exact)
    perturbed[3] *= 1 + 2 * oracle.TAIL_RTOL
    assert harness.check_outputs([inv], [_tails_pass(perturbed)], problems) == (cap + 1, 1)
    assert not problems


@pytest.mark.parametrize("gen", ["alpha", "beta"])
@pytest.mark.parametrize("q", [0.5, -0.43])
def test_oracle_rebuilds_the_program_difference(gen, q):
    cap = 5
    d = difference(q, cap, gen)
    pts = d.domain.points
    program = {(tuple(pts[i]), tuple(pts[j])): v for i, j, v in d.entries()}
    rebuilt = oracle.difference_entries(q, cap, gen)
    assert program.keys() == rebuilt.keys()
    assert max(abs(program[k] - rebuilt[k]) for k in program) < 1e-15


def test_nondeterministic_report_is_a_problem():
    inv = workloads.Invocation("tails-alpha", ("tails",), q=0.5, cap=2, tail_gen="alpha")
    exact = oracle.tail_norms(0.5, 2, "alpha")
    changed = list(exact)
    changed[0] += 1.0
    problems = []
    harness.check_outputs([inv], [_tails_pass(exact), _tails_pass(changed)], problems)
    assert problems == ["tails-alpha: report of pass 2 differs from pass 1"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_reports_are_identical(workload):
    invs = workloads.invocations(workload, 11, TINY)
    original = operator_core.compose
    untraced = harness.run_pass(invs)
    tracer = Tracer()
    tracer.install()
    try:
        assert operator_core.compose is not original
        traced = harness.run_pass(invs, tracer)
    finally:
        tracer.uninstall()
    assert operator_core.compose is original
    assert tracer.spans
    for inv in invs:
        assert traced[inv.name][:2] == untraced[inv.name][:2]
