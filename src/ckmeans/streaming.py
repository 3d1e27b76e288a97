"""Stream sources, space accounting, and the two solve pipelines.

The full pipeline spends one pass seeding, one filling reservoirs, one
scoring every candidate (plus an optional scale pass when aspect-ratio
removal is on), and one assigning the winner's owners: 4 passes, 5 with
aspect removal.  The seed pass seeds runs of chunks as one stack.  The
sample pass joins blocks into arrays of max(block, ENTRIES // (2k·d))
rows, the later passes into arrays of max(block, ENTRIES // (|U|·d))
rows, U the list's distinct centers, which the scale and scoring passes
measure once for all candidates.  classical, fault_tolerant and
semi_supervised are scored in closed form, with no graph: one exact
running total per candidate (and target matching), each point's owned
costs summed left to right; the assign pass applies the winner's owner
rule.  r_gather and r_capacity key a compressed graph per candidate,
from a table of up to a block's distinct rows, solve the graphs offline
between passes and peel the winner's flow.  batch_solve is the
in-memory pipeline behind `ckmeans solve`; in argmin mode it solves
candidates exactly in ascending order of a lower bound on their cost,
and stops once no bound can beat the best.  Both build their candidate
list with listgen.candidate_list, from D^2 samples drawn in memory or
from reservoirs filled in one pass, and pick the winner by the same rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, iter_dataset_csv
from .geometry import ENTRIES, as_points, check_overflow, pairwise_sqdist
from .hyperbucket import CompressedGraph, KeyBuilder, aspect_floor, aspect_graph, distinct_centers
from .listgen import CandidateList, GoodCentersConfig, candidate_list, good_centers
from .partition import (
    InfeasiblePartitionError,
    Variant,
    _owner_tuples,
    _running_sum,
    check_precision_bits,
    compressed_partition,
    owner_mask,
    partition_assign,
    partition_bound,
    partition_cost,
    semi_supervised_cost_terms,
    variant_groups,
)
from .sampling import ReservoirBank
from .seeding import SeedSolution, chunks, d2_seed, merge_reduce_seed

STREAM_VARIANTS = ("classical", "r_gather", "r_capacity", "fault_tolerant", "semi_supervised")
# the stream variants scored by their closed form; the others build graphs
CLOSED_FORM = ("classical", "fault_tolerant", "semi_supervised")


class StreamSource:
    """Replayable source of (points, colors, targets) blocks of at most
    `block` rows.

    open() hands out a fresh single-use iterator over the records in a
    fixed order and bumps the pass counter; n is None when the length is
    not known without reading.  Every pass read to its end is
    fingerprinted by its row count and a blake2b hash of its blocks'
    points, colors and targets; a pass that differs from the first
    raises ValueError, so owners are never peeled from other data than
    the candidates were scored on.
    """

    def __init__(self, block: int):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.block = block
        self.passes = 0
        self._fingerprint = None

    @property
    def n(self):
        return None

    def open(self):
        self.passes += 1
        return self._checked(self._blocks(), self.passes)

    def _checked(self, blocks, pass_no: int):
        import hashlib  # on first use: its OpenSSL binding adds ~4 ms to start-up

        h = hashlib.blake2b(digest_size=16)
        rows = 0
        for pts, colors, targets in blocks:
            rows += len(pts)
            for a in (pts, colors, targets):
                h.update(b"-" if a is None else np.ascontiguousarray(a).data)
            yield pts, colors, targets
        seen = (rows, h.digest())
        if self._fingerprint is None:
            self._fingerprint = seen
        elif seen != self._fingerprint:
            before = self._fingerprint[0]
            what = (f"{rows} rows against {before}" if rows != before
                    else f"other values in its {rows} rows")
            raise ValueError(f"stream changed between passes: pass {pass_no} read {what}")

    def open_points(self):
        for pts, _colors, _targets in self.open():
            yield pts

    def _blocks(self):  # pragma: no cover
        raise NotImplementedError


class ArraySource(StreamSource):
    def __init__(self, data, block: int = 256):
        super().__init__(block)
        self.ds = data if isinstance(data, Dataset) else Dataset(as_points(data))

    @property
    def n(self):
        return self.ds.n

    def _blocks(self):
        ds = self.ds
        for lo in range(0, ds.n, self.block):
            hi = lo + self.block
            yield (ds.points[lo:hi],
                   None if ds.colors is None else ds.colors[lo:hi],
                   None if ds.targets is None else ds.targets[lo:hi])


class CSVSource(StreamSource):
    """Replays a dataset CSV.  Each pass reads the file one block at a
    time (data.iter_dataset_csv), so memory holds one block of rows,
    never the file; a bad line fails the pass that reaches it, which is
    the first one."""

    def __init__(self, path, block: int = 256):
        super().__init__(block)
        self.path = path

    def _blocks(self):
        for ds in iter_dataset_csv(self.path, self.block):
            yield ds.points, ds.colors, ds.targets


@dataclass
class SpaceMeter:
    """Counts resident point slots and auxiliary scalar words.

    Modules route allocations of retained state through this; transient
    I/O buffers are not charged.  Peaks are tracked globally and per
    named phase.
    """

    current_points: int = 0
    peak_points: int = 0
    current_words: int = 0
    peak_words: int = 0
    phases: list = field(default_factory=list)

    def alloc_points(self, c: int):
        self._add("points", int(c))

    def free_points(self, c: int):
        self._add("points", -int(c))

    def alloc_words(self, c: int):
        self._add("words", int(c))

    def free_words(self, c: int):
        self._add("words", -int(c))

    def _add(self, kind: str, c: int):
        now = getattr(self, f"current_{kind}") + c
        if now < 0:
            raise ValueError(f"freed more {kind} than allocated")
        setattr(self, f"current_{kind}", now)
        setattr(self, f"peak_{kind}", max(getattr(self, f"peak_{kind}"), now))
        if self.phases and self.phases[-1].get("open"):
            ph = self.phases[-1]
            ph[f"peak_{kind}"] = max(ph[f"peak_{kind}"], now)

    @contextmanager
    def phase(self, name: str):
        ph = {"name": name, "peak_points": self.current_points,
              "peak_words": self.current_words, "open": True}
        self.phases.append(ph)
        try:
            yield self
        finally:
            ph["open"] = False

    def report(self) -> dict:
        return {
            "peak_points": self.peak_points,
            "peak_words": self.peak_words,
            "phases": [{k: v for k, v in ph.items() if k != "open"} for ph in self.phases],
        }


def default_chunk(n: int | None, k: int) -> int:
    return 4096 if n is None else max(k, math.ceil(math.sqrt(n * k)))


def two_pass_good_centers(source: StreamSource, k: int, cfg: GoodCentersConfig, rng,
                          chunk: int | None = None, meter: SpaceMeter | None = None
                          ) -> tuple[CandidateList, SeedSolution, int]:
    """Streaming good_centers: pass 1 seeds, pass 2 fills one bank of
    reservoirs per repetition, one reservoir per needed sample.  While
    the potential seen so far is zero a bank samples uniformly, so a zero
    potential degrades to uniform sampling like the batch path.  Returns
    (candidates, seed, points_seen)."""
    meter = meter if meter is not None else SpaceMeter()
    if cfg.preset != "desk":
        raise ValueError("streaming list generation needs the desk preset")
    p = cfg.resolved()
    rng_seed, rng_sample = rng.spawn(2)

    if chunk is None:
        chunk = default_chunk(source.n, k)
    with meter.phase("seed"):
        seed = merge_reduce_seed(source.open_points(), k, chunk, rng_seed, meter=meter)
    C = seed.centers
    d = C.shape[1]

    t, reps = p["t"], p["repetitions"]
    R = p["eta"] * t
    # one (bank, tuple) rng pair per repetition
    streams = [rs.spawn(2) for rs in rng_sample.spawn(reps)]
    with meter.phase("sample"):
        banks = [ReservoirBank(R, d, s[0]) for s in streams]
        meter.alloc_points(reps * R)
        meter.alloc_words(sum(bank.words for bank in banks))
        seen = 0
        rows = max(source.block, ENTRIES // C.size)
        for (pts,) in chunks(((pts,) for pts in source.open_points()), rows):
            w = pairwise_sqdist(pts, C).min(axis=1)
            for bank in banks:
                # an offer grows or shrinks the bank's pending draws
                meter.free_words(bank.words)
                bank.offer_block(pts, w)
                meter.alloc_words(bank.words)
            seen += len(w)

        cands = candidate_list([bank.sampled_points() for bank in banks], C, p,
                               [s[1] for s in streams])
        meter.free_points(reps * R)
        meter.free_words(sum(bank.words for bank in banks))
        meter.alloc_points(len(cands) * t)
    return cands, seed, seen


def check_select(mode: str, epsilon: float | None) -> None:
    """The winner rule's settings: argmin, or range mode with epsilon in
    (0, 1).  The pipelines call it before their first pass."""
    if mode not in ("argmin", "range"):
        raise ValueError(f"unknown selection mode {mode!r}")
    if mode == "range" and (epsilon is None or not (0.0 < epsilon < 1.0)):
        raise ValueError("range mode needs epsilon in (0, 1)")


def select_best(costs, mode: str = "argmin", epsilon: float | None = None) -> int:
    """Pick the winning candidate index from real costs (inf = infeasible).

    argmin is exact.  Range mode caps at the largest finite cost, groups
    costs into geometric ranges ((1-eps)^(i+1) * cap, (1-eps)^i * cap]
    and returns the first member of the deepest occupied range.  No cost
    exceeds the cap, so that range holds the minimum and the winner's
    cost is within 1/(1-eps) of it.  When every feasible cost is 0,
    argmin decides.
    """
    check_select(mode, epsilon)
    c = np.asarray(costs, dtype=np.float64)
    finite = np.isfinite(c)
    if not finite.any():
        raise InfeasiblePartitionError("no feasible candidate to select from")
    cap = float(c[finite].max())
    if mode == "argmin" or not cap > 0.0:
        return int(np.argmin(c))
    shrink = 1.0 - epsilon
    best_depth, best_idx = -1.0, None
    for i, v in enumerate(c):
        if not math.isfinite(v):
            continue
        if v <= 0.0:
            depth = math.inf
        else:
            depth = math.floor(math.log(v / cap) / math.log(shrink))
            while shrink**depth * cap < v:
                depth -= 1
            while shrink ** (depth + 1) * cap >= v:
                depth += 1
        if depth > best_depth:
            best_depth, best_idx = depth, i
    return int(best_idx)


def _check_t(cfg: GoodCentersConfig, k: int) -> None:
    # a t-tuple below k would be emitted as a (t, d) center set
    if cfg.t > k:
        raise ValueError(f"t={cfg.t} centers per candidate exceeds k={k}")
    if cfg.t < k:
        raise ValueError(f"t={cfg.t} centers per candidate is below k={k}")


@dataclass
class PipelineResult:
    centers: np.ndarray
    owners: list
    cost: float              # recomputed real cost of the emitted assignment
    flow_cost: float         # the winner's score: its exact total, or its flow's objective
    selected: int
    list_size: int
    passes_used: int
    seed_cost: float
    n: int
    space: dict
    d_star: float | None = None


def full_pipeline(source: StreamSource, k: int, variant: Variant,
                  cfg: GoodCentersConfig, rng, *, chunk: int | None = None,
                  aspect_removal: bool = False, select_mode: str = "argmin",
                  precision_bits: int = 32, meter: SpaceMeter | None = None
                  ) -> PipelineResult:
    """The streaming solver: seed, sample, score every candidate, assign."""
    if variant.kind not in STREAM_VARIANTS:
        raise ValueError(f"variant {variant.kind!r} is not streamable "
                         "(chromatic needs same-colored points batched per color)")
    _check_t(cfg, k)
    check_precision_bits(precision_bits)
    check_select(select_mode, cfg.epsilon)
    meter = meter if meter is not None else SpaceMeter()
    cands, seed, n = two_pass_good_centers(source, k, cfg, rng, chunk=chunk, meter=meter)
    if not len(cands):
        raise InfeasiblePartitionError("candidate list came back empty")
    eps = cfg.epsilon

    # the passes after sampling measure arrays of `rows` joined points
    # against the list's distinct centers U; owners are assigned and
    # costs summed in point order, so the join moves no output
    m = len(cands)
    U, col = distinct_centers(np.vstack([e.centers for e in cands.entries]))
    rows = max(source.block, ENTRIES // U.size)

    def grouped(blocks):
        # each block's groups are checked as it arrives, before a join reads on
        return chunks(((pts, variant_groups(variant, c, t)) for pts, c, t in blocks), rows)

    def candidate_sq(pts):
        # (m, rows, k): each candidate's squared distances, gathered from U
        sq = pairwise_sqdist(pts, U)
        check_overflow(sq)
        return sq[:, col].reshape(len(pts), m, k).transpose(1, 0, 2)

    d_star = None
    if aspect_removal:
        with meter.phase("scale"):
            worst = np.zeros(m)
            for (pts,) in chunks(((pts,) for pts, _c, _t in source.open()), rows):
                worst = np.maximum(worst, candidate_sq(pts).min(axis=2).max(axis=1))
            d_star = np.sqrt(worst)

    closed = variant.kind in CLOSED_FORM
    l = variant.l if variant.kind == "fault_tolerant" else 1
    perms = list(itertools.permutations(range(k))) if variant.kind == "semi_supervised" else [None]

    def rule_costs(sq, groups, perm, floor):
        # the costs a closed form ranks: zeroed below the floor, blended under perm
        if aspect_removal:
            sq = np.where(sq < floor, 0.0, sq)
        return sq if perm is None else semi_supervised_cost_terms(sq, groups, variant.alpha, perm)

    with meter.phase("graph"):
        if closed:
            floors = np.zeros(m) if d_star is None else np.array(
                [aspect_floor(e.centers, d, max(n, 1)) for e, d in zip(cands.entries, d_star)])
            totals = np.zeros((len(perms), m))
            meter.alloc_words(totals.size)
            for pts, groups in grouped(source.open()):
                D = candidate_sq(pts)
                for total, perm in zip(totals, perms):
                    w = rule_costs(D, groups, perm, floors[:, None, None])
                    # each point's owned costs in owner order: one owner pays its row's
                    # minimum, column by column (a min over a short last axis is slow)
                    owned = (functools.reduce(np.minimum, np.moveaxis(w, 2, 0)) if l == 1
                             else w[owner_mask(w, l)].reshape(m, -1))
                    owned[:, 0] += total
                    total[:] = np.add.accumulate(owned, axis=1)[:, -1]
            costs = totals.min(axis=0) if l <= k else np.full(m, math.inf)
        else:
            graphs = [aspect_graph(e.centers, eps, float(d_star[i]), max(n, 1)) if aspect_removal
                      else CompressedGraph(e.centers, eps) for i, e in enumerate(cands.entries)]
            kb = KeyBuilder(graphs)
            for pts, _groups in grouped(source.open()):
                # the row table stays within one source block
                kb.bucket_block(pairwise_sqdist(pts, kb.centers), source.block)
            kb.flush()
            meter.alloc_words(sum(g.words for g in graphs))
            costs, solutions = np.full(m, math.inf), [None] * m
            for i, g in enumerate(graphs):
                try:
                    solutions[i] = compressed_partition(g, variant, precision_bits=precision_bits)
                except InfeasiblePartitionError:
                    continue
                costs[i] = solutions[i].cost
    winner = select_best(costs, select_mode, eps)
    centers = cands.entries[winner].centers
    # only the winner's state stays: its total, or its graph and solution
    meter.free_words(totals.size - 1 if closed else
                     sum(g.words for i, g in enumerate(graphs) if i != winner))
    if not closed:
        sol = solutions[winner]
        del kb, graphs, solutions

    owners: list = []
    with meter.phase("assign"):
        blocks = source.open()
        if closed:
            perm, cost = perms[int(totals[:, winner].argmin())], 0.0
            for pts, groups in grouped(blocks):
                sq = pairwise_sqdist(pts, centers)
                owns = owner_mask(rule_costs(sq, groups, perm, floors[winner]), l)
                owners.extend(_owner_tuples(owns))
                cost = _running_sum(cost, rule_costs(sq, groups, perm, 0.0)[owns])
            flow_cost = float(costs[winner])
        else:
            for pts, _groups in grouped(blocks):
                try:
                    owners.extend(sol.assign_block(pts))
                except InfeasiblePartitionError:
                    # a source changed since the graph pass can overdraw a
                    # vertex: the pass read to its end names the change
                    for _ in blocks:
                        pass
                    raise
            cost, flow_cost = sol.peeled_cost, sol.cost

    return PipelineResult(centers, owners, cost, flow_cost, winner, m, source.passes, seed.cost,
                          n, meter.report(), None if d_star is None else float(d_star[winner]))


@dataclass
class BatchResult:
    centers: np.ndarray
    owners: list
    cost: float
    flow_cost: float
    selected: int
    seed_cost: float
    candidates: CandidateList

    @property
    def list_size(self) -> int:
        return len(self.candidates)


def batch_solve(data, k: int, variant: Variant, cfg: GoodCentersConfig, rng, *,
                select_mode: str = "argmin", precision_bits: int = 32) -> BatchResult:
    """Offline reference pipeline: batch seed, batch candidate list,
    exact (uncompressed) partitions, best one wins; what `ckmeans solve`
    runs.  argmin mode solves candidates in ascending (partition_bound,
    index) order until no bound can beat the best (cost, index); the
    rest keep cost +inf, so the argmin and its tie-break stay.  Range
    mode caps at the largest finite cost, known only after every solve,
    so it solves every candidate."""
    _check_t(cfg, k)
    check_precision_bits(precision_bits)
    check_select(select_mode, cfg.epsilon)
    ds = data if isinstance(data, Dataset) else Dataset(as_points(data))
    if ds.n < k:
        raise ValueError(f"stream has {ds.n} points, need at least k={k}")
    seed = d2_seed(ds.points, k, rng=rng)
    cands = good_centers(ds.points, seed.centers, cfg, rng)
    if not len(cands):
        raise InfeasiblePartitionError("candidate list came back empty")
    m = len(cands)
    bounds = ([-math.inf] * m if select_mode == "range" else
              [partition_bound(ds, e.centers, variant, precision_bits=precision_bits)
               for e in cands.entries])
    costs = np.full(m, math.inf)
    best = (math.inf, m)
    for i in sorted(range(m), key=lambda j: (bounds[j], j)):
        if (bounds[i], i) >= best:
            break
        costs[i] = partition_cost(ds, cands.entries[i].centers, variant,
                                  precision_bits=precision_bits)
        best = min(best, (costs[i], i))
    winner = select_best(costs, select_mode, cfg.epsilon)
    asg = partition_assign(ds, cands.entries[winner].centers, variant,
                           precision_bits=precision_bits)
    return BatchResult(cands.entries[winner].centers, asg.owners, asg.cost,
                       float(costs[winner]), winner, seed.cost, cands)
