"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import ckmeans.partition  # noqa: E402

TINY = {
    "batch-gather": dict(n=60, r=10, budget=2),
    "stream-classical": dict(n=600, budget=2),
    "cli-stream-aspect": dict(n=600, budget=2),
}


def tiny(name):
    return replace(workloads.WORKLOADS[name], **TINY[name])


def solved(name, tmp_path, seed=3):
    runner = child.Runner(tiny(name), seed, tmp_path)
    out, code = runner.solve(0)
    return runner, out, code


# inputs ----------------------------------------------------------------------

def test_same_seed_gives_byte_identical_inputs():
    a = workloads.make_inputs(500, 7)
    b = workloads.make_inputs(500, 7)
    assert workloads.csv_bytes(a.points) == workloads.csv_bytes(b.points)
    assert np.array_equal(a.labels, b.labels)
    c = workloads.make_inputs(500, 8)
    assert workloads.csv_bytes(a.points) != workloads.csv_bytes(c.points)


def test_csv_round_trips_exactly(tmp_path):
    from ckmeans.data import read_dataset_csv
    pts = workloads.make_inputs(50, 1).points
    path = tmp_path / "input.csv"
    path.write_bytes(workloads.csv_bytes(pts))
    assert np.array_equal(read_dataset_csv(path).points, pts)


def test_reference_cost_of_planted_centroids():
    inp = workloads.make_inputs(90, 2)
    w = tiny("batch-gather")
    ft = replace(w, variant="fault_tolerant", r=None, l=2)
    assert 0 < workloads.reference_cost(w, inp) < workloads.reference_cost(ft, inp)


# output checks ---------------------------------------------------------------

def _good_gather():
    w = tiny("batch-gather")
    inp = workloads.make_inputs(w.n, 4)
    mu = np.stack([inp.points[inp.labels == g].mean(axis=0) for g in range(3)])
    owners = [[int(g)] for g in inp.labels]
    cost = workloads.assignment_cost(inp.points, mu, np.asarray(owners))
    return w, inp.points, owners, mu, cost


def test_check_accepts_a_valid_assignment():
    w, pts, owners, mu, cost = _good_gather()
    problems, real = workloads.check_output(w, pts, owners, mu, cost)
    assert problems == [] and real == pytest.approx(cost, rel=1e-12)


def test_check_rejects_a_dropped_owner():
    w, pts, owners, mu, cost = _good_gather()
    assert workloads.check_output(w, pts, owners[:-1], mu, cost)[0]
    owners[5] = []
    assert workloads.check_output(w, pts, owners, mu, cost)[0]


def test_check_rejects_r_gather_count_below_r():
    w, pts, owners, mu, cost = _good_gather()
    moved = [[0] if own == [1] else own for own in owners]
    real = workloads.assignment_cost(pts, mu, np.asarray(moved))
    problems, _ = workloads.check_output(w, pts, moved, mu, real)
    assert any("below r" in p for p in problems)


def test_check_rejects_a_wrong_cost():
    w, pts, owners, mu, cost = _good_gather()
    problems, _ = workloads.check_output(w, pts, owners, mu, cost * (1 + 1e-6))
    assert any("cost" in p for p in problems)


def test_check_rejects_bad_fault_tolerant_tuples_and_passes():
    w = tiny("cli-stream-aspect")
    inp = workloads.make_inputs(30, 5)
    mu = np.zeros((3, 2))
    dup = [[1, 1]] * 30
    cost = workloads.assignment_cost(inp.points, mu, np.asarray(dup))
    problems, _ = workloads.check_output(w, inp.points, dup, mu, cost, passes=5)
    assert any("sorted and distinct" in p for p in problems)
    ok = [[0, 2]] * 30
    cost = workloads.assignment_cost(inp.points, mu, np.asarray(ok))
    assert workloads.check_output(w, inp.points, ok, mu, cost, passes=5)[0] == []
    problems, _ = workloads.check_output(w, inp.points, ok, mu, cost, passes=4)
    assert any("passes" in p for p in problems)


# the solve loop --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_solves_and_checks(name, tmp_path):
    runner, out, code = solved(name, tmp_path)
    problems, real = runner.check(out, code)
    assert problems == [] and real > 0
    out2, code2 = runner.solve(1)
    assert runner.check(out2, code2)[0] == []


def test_runner_flags_a_changed_output(tmp_path):
    runner, out, code = solved("batch-gather", tmp_path)
    assert runner.check(out, code)[0] == []
    runner.first = (b"other",) + runner.first[1:]
    out2, code2 = runner.solve(1)
    assert any("differs" in p for p in runner.check(out2, code2)[0])


# tracing ---------------------------------------------------------------------

def test_trace_counts_layers_and_restores_hooks(tmp_path):
    original = ckmeans.partition.solve_min_cost_flow
    runner = child.Runner(tiny("cli-stream-aspect"), 3, tmp_path)
    tracer = layertrace.Tracer()
    tracer.begin_solve(0)
    tracer.install()
    try:
        out, code = tracer.call("bench.solve", None, runner.solve, (0,), {})
    finally:
        tracer.uninstall()
    assert ckmeans.partition.solve_min_cost_flow is original
    assert runner.check(out, code)[0] == []
    m = tracer.solve_metrics(0)
    assert tracer.missing == []
    assert m["data.rows_parsed"] == 5 * runner.w.n
    assert m["streaming.passes"] == 5
    assert m["flow.calls"] == m["hyperbucket.vertices"] > 0
    assert m["hyperbucket.rows_bucketed"] >= runner.w.n * m["hyperbucket.graphs_solved"]
    assert m["data.read_s"] > 0 and m["hyperbucket.self_s"] > 0
    spans = tracer.spans[0]
    assert spans[0][0] == "bench.solve" and spans[0][3] == -1
    assert all(0 <= parent < i for i, (_n, _s, _e, parent) in enumerate(spans) if i)


def test_missing_hook_reports_metrics_missing_not_zero():
    hooks = [h for h in layertrace.HOOKS if h.name != "solve_min_cost_flow"]
    hooks.append(layertrace.Hook("flow", "ckmeans.flow", "solve_min_cost_flow_renamed"))
    tracer = layertrace.Tracer(tuple(hooks))
    tracer.install()
    tracer.uninstall()
    missing = tracer.missing_metrics()
    assert {"flow.self_s", "flow.calls", "flow.arcs", "flow.infeasible"} <= set(missing)
    assert "hyperbucket.self_s" not in missing
    raw = {"missing": missing, "walls": [1.0], "traced_walls": [1.1], "cost_ratios": [1.2],
           "layers": [{"hyperbucket.self_s": 0.5}]}
    values = run.per_layer(raw)
    assert "flow.self_s" not in values and values["hyperbucket.self_s"] == 0.5


def test_benchmark_json_names_every_workload_and_metric():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layertrace.LAYER_METRICS.items()}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 10) is None
    p, _ = run.tail_percentile([float(i) for i in range(100)])
    assert p == 90
