"""The benchmark's per-layer hooks still find their targets and count.

perfbench/layertrace.py wraps package functions by name; a hook whose
target was deleted or renamed turns its layer metrics "missing", and a
callback that reads a changed structure miscounts.  These tests load
that file without importing it from the benchmark directory, so they
run with the package's own tests.
"""

import sys
import types
from pathlib import Path

import numpy as np

import ckmeans.cli
import ckmeans.streaming
from ckmeans.data import gaussian_groups
from ckmeans.listgen import GoodCentersConfig
from ckmeans.partition import Variant

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace(monkeypatch):
    # read, never imported from its directory: no bytecode is written there
    mod = types.ModuleType("layertrace")
    monkeypatch.setitem(sys.modules, mod.__name__, mod)  # its dataclasses look it up
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), mod.__dict__)
    return mod


def test_every_layertrace_hook_resolves(monkeypatch):
    before = (ckmeans.streaming.good_centers, ckmeans.cli.main)
    tracer = load_layertrace(monkeypatch).Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert ckmeans.streaming.good_centers is not before[0]
    finally:
        tracer.uninstall()
    assert (ckmeans.streaming.good_centers, ckmeans.cli.main) == before


def test_a_traced_stream_solve_counts_its_graphs(monkeypatch):
    # the compressed_partition callback reads every solved graph's vertices;
    # of the stream variants only r_gather and r_capacity build graphs
    ds, _info = gaussian_groups(300, 3, rng=np.random.default_rng(7))
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk", eta=16, tau=1,
                            repetitions=2, subset_budget=4)
    tracer = load_layertrace(monkeypatch).Tracer()
    tracer.install()
    try:
        tracer.begin_solve(0)
        res = ckmeans.streaming.full_pipeline(ckmeans.streaming.ArraySource(ds, block=64), 3,
                                              Variant.r_gather(50), cfg,
                                              np.random.default_rng(1))
    finally:
        tracer.uninstall()
    m = tracer.solve_metrics(0)
    assert m["hyperbucket.graphs_solved"] == res.list_size > 0
    assert m["hyperbucket.vertices"] > 0
    assert m["hyperbucket.points"] == ds.n * m["hyperbucket.graphs_solved"]
