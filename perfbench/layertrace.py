"""Outside-in per-layer tracing of the ckmeans package.

Each hooked public function is replaced, in every ckmeans module that
holds it by name, with a wrapper that records a span (name, start, end,
parent) and bumps the hook's counters.  Methods are wrapped on their
class.  Spans stay in memory; layer metrics are computed from them at
the end.  Nothing inside the package changes.

A hook whose target no longer exists makes every metric that depends on
it missing, never 0: a refactor that renames a function must not read
as "this layer became free".
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

_ABSENT = object()


def _count_rows(key):
    def count(c, args, kw, res, err):
        c[key] += len(args[1])
    return count


def _count_flow(c, args, kw, res, err):
    c["flow.calls"] += 1
    c["flow.arcs"] += len(args[0].arcs)
    if res is not None and not res.feasible:
        c["flow.infeasible"] += 1


def _count_scored(c, args, kw, res, err):
    c["partition.candidates_scored"] += 1
    if err is None and math.isfinite(res):
        c["partition.feasible"] += 1


def _count_compressed(c, args, kw, res, err):
    c["partition.candidates_scored"] += 1
    c["partition.feasible"] += err is None
    g = args[0]
    c["hyperbucket.graphs_solved"] += 1
    c["hyperbucket.vertices"] += len(g.vertices)
    c["hyperbucket.points"] += sum(g.vertices.values())


def _count_pipeline(c, args, kw, res, err):
    if res is not None:
        c["streaming.passes"] += res.passes_used
        c["streaming.peak_points"] += res.space["peak_points"]
        c["streaming.peak_words"] += res.space["peak_words"]


def _count_pairs(c, args, kw, res, err):
    if res is not None:
        c["geometry.pairs"] += res.size
        c["geometry.flops_computed"] += 3 * res.size * np.shape(args[1])[-1]


def _count_candidates(c, args, kw, res, err):
    if res is not None:
        c["listgen.candidates"] += len(res if not isinstance(res, tuple) else res[0])


def _count_graph(c, args, kw, res, err):
    c["hyperbucket.graphs_built"] += 1


def _count_read(c, args, kw, res, err):
    if res is not None:
        c["data.rows_parsed"] += res.n


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    name: str               # function name, or Class.method
    count: object = None    # counter callback, or None
    source: bool = False    # wraps an iterator factory: one span per next()


HOOKS = (
    Hook("cli", "ckmeans.cli", "main"),
    Hook("streaming", "ckmeans.streaming", "full_pipeline", _count_pipeline),
    Hook("streaming", "ckmeans.streaming", "two_pass_good_centers", _count_candidates),
    Hook("streaming", "ckmeans.streaming", "select_best"),
    Hook("streaming", "ckmeans.streaming", "StreamSource.open", source=True),
    Hook("data", "ckmeans.data", "read_dataset_csv", _count_read),
    Hook("seeding", "ckmeans.seeding", "d2_seed"),
    Hook("seeding", "ckmeans.seeding", "merge_reduce_seed"),
    Hook("listgen", "ckmeans.listgen", "good_centers", _count_candidates),
    Hook("sampling", "ckmeans.sampling", "d2_sample"),
    Hook("sampling", "ckmeans.sampling", "ReservoirBank.offer_block",
         _count_rows("sampling.rows_offered")),
    Hook("geometry", "ckmeans.geometry", "pairwise_sqdist", _count_pairs),
    Hook("hyperbucket", "ckmeans.hyperbucket", "CompressedGraph.__post_init__", _count_graph),
    Hook("hyperbucket", "ckmeans.hyperbucket", "CompressedGraph.add_block",
         _count_rows("hyperbucket.rows_bucketed")),
    Hook("hyperbucket", "ckmeans.hyperbucket", "aspect_guesses"),
    Hook("hyperbucket", "ckmeans.hyperbucket", "aspect_graph"),
    Hook("partition", "ckmeans.partition", "partition_cost", _count_scored),
    Hook("partition", "ckmeans.partition", "partition_assign"),
    Hook("partition", "ckmeans.partition", "compressed_partition", _count_compressed),
    Hook("partition", "ckmeans.partition", "CompressedSolution.assign_block"),
    Hook("flow", "ckmeans.flow", "solve_min_cost_flow", _count_flow),
)

ASSIGN_SPANS = ("partition.partition_assign", "partition.CompressedSolution.assign_block")
SOURCE_SPAN = "streaming.StreamSource.open"

# metric -> (unit, better, hooks it needs: a layer name means every hook of it)
LAYER_METRICS = {
    "flow.self_s": ("s", "lower", ["flow"]),
    "flow.calls": ("count", "lower", ["flow"]),
    "flow.arcs": ("count", "lower", ["flow"]),
    "flow.infeasible": ("count", "lower", ["flow"]),
    "partition.self_s": ("s", "lower", ["partition"]),
    "partition.assign_s": ("s", "lower", ["partition"]),
    "partition.candidates_scored": ("count", "lower", ["partition"]),
    "partition.feasible_ratio": ("ratio", "higher", ["partition"]),
    "hyperbucket.self_s": ("s", "lower", ["hyperbucket"]),
    "hyperbucket.rows_bucketed": ("count", "lower", ["hyperbucket"]),
    "hyperbucket.graphs_built": ("count", "lower", ["hyperbucket"]),
    "hyperbucket.graphs_solved": ("count", "lower", ["partition.compressed_partition"]),
    "hyperbucket.vertices": ("count", "lower", ["partition.compressed_partition"]),
    "hyperbucket.points_per_vertex": ("points/vertex", "higher",
                                      ["partition.compressed_partition"]),
    "streaming.self_s": ("s", "lower", ["streaming"]),
    "streaming.source_s": ("s", "lower", [SOURCE_SPAN]),
    "streaming.passes": ("count", "lower", ["streaming.full_pipeline"]),
    "streaming.peak_points": ("points", "lower", ["streaming.full_pipeline"]),
    "streaming.peak_words": ("words", "lower", ["streaming.full_pipeline"]),
    "data.read_s": ("s", "lower", ["data"]),
    "data.rows_parsed": ("count", "lower", ["data"]),
    "cli.self_s": ("s", "lower", ["cli"]),
    "geometry.self_s": ("s", "lower", ["geometry"]),
    "geometry.pairs": ("count", "lower", ["geometry"]),
    "geometry.flops_computed": ("flop", "lower", ["geometry"]),
    "seeding.self_s": ("s", "lower", ["seeding"]),
    "listgen.self_s": ("s", "lower", ["listgen"]),
    "listgen.candidates": ("count", "lower", ["listgen.good_centers",
                                              "streaming.two_pass_good_centers"]),
    "sampling.self_s": ("s", "lower", ["sampling"]),
    "sampling.rows_offered": ("count", "lower", ["sampling.ReservoirBank.offer_block"]),
    "trace.overhead_s": ("s", "lower", []),
    "quality.cost_ratio": ("ratio", "lower", []),
}


def span_name(h: Hook) -> str:
    return f"{h.layer}.{h.name}"


class _TimedIter:
    """Iterator proxy that records one span per next() call."""

    def __init__(self, tracer, name, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._name, None, next, (self._it,), {})


class Tracer:
    """Installs the hooks, records spans and counters, removes the hooks.

    Spans and counters are keyed by solve, the identifier the spans of
    one solve call share."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: dict[int, list] = {}    # solve -> [name, start, end, parent]
        self.counters: dict[int, defaultdict] = {}
        self.missing: list[str] = []        # span names of hooks whose target is gone
        self._solve = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin_solve(self, solve_id: int) -> None:
        self._solve = solve_id
        self.spans[solve_id] = []
        self.counters[solve_id] = defaultdict(int)
        self._stack = []

    def call(self, name, count, fn, args, kw):
        spans = self.spans[self._solve]
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(spans))
        spans.append(span)
        res = err = None
        try:
            res = fn(*args, **kw)
            return res
        except Exception as exc:
            err = exc
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if count is not None:
                count(self.counters[self._solve], args, kw, res, err)

    def _wrap(self, h: Hook, fn):
        name, count = span_name(h), h.count
        if h.source:
            def wrapper(*args, **kw):
                return _TimedIter(self, name, iter(fn(*args, **kw)))
        else:
            def wrapper(*args, **kw):
                return self.call(name, count, fn, args, kw)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every hook; a hook whose module or name is gone is recorded
        in `missing`."""
        self.missing = []
        packages = [m for k, m in list(sys.modules.items())
                    if k == "ckmeans" or k.startswith("ckmeans.")]
        for h in self.hooks:
            try:
                owner = importlib.import_module(h.module)
            except ImportError:
                self.missing.append(span_name(h))
                continue
            cls_name, _, attr = h.name.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(span_name(h))
                continue
            wrapped = self._wrap(h, fn)
            if cls_name:
                self._set(owner, attr, wrapped)
                continue
            # every module that imported the function by name
            for mod in packages:
                if getattr(mod, attr, None) is fn:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def solve_metrics(self, solve_id: int) -> dict:
        """Per-layer self times and counters of one traced solve; a
        layer's self time is its spans' durations minus their children's."""
        spans = self.spans[solve_id]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _parent), inner in zip(spans, child):
            dur = end - start
            own = dur - inner
            out[name.split(".", 1)[0] + ".self_s"] += own
            if name in ASSIGN_SPANS:
                out["partition.assign_s"] += own
            elif name == SOURCE_SPAN:
                out["streaming.source_s"] += dur
            elif name == "data.read_dataset_csv":
                out["data.read_s"] += dur
        c = self.counters[solve_id]
        out.update(c)
        scored = c["partition.candidates_scored"]
        out["partition.feasible_ratio"] = c["partition.feasible"] / scored if scored else 0.0
        vertices = c["hyperbucket.vertices"]
        out["hyperbucket.points_per_vertex"] = (c["hyperbucket.points"] / vertices
                                                if vertices else 0.0)
        return out

    def missing_metrics(self) -> list[str]:
        """Layer metrics that depend on a hook whose target is gone."""
        gone = set(self.missing)
        return [metric for metric, (_unit, _better, needs) in LAYER_METRICS.items()
                if any(g == need or g.startswith(need + ".") for need in needs for g in gone)]
