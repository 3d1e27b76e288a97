"""The benchmark's per-layer hooks still find their targets.

perfbench/layertrace.py wraps package functions by name; a hook whose
target was deleted or renamed turns its layer metrics "missing".  This
test loads that file without importing it from the benchmark directory,
so it runs with the package's own tests.
"""

import sys
import types
from pathlib import Path

import ckmeans.cli
import ckmeans.streaming

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
