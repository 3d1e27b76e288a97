"""Stream sources, space accounting, and the two solve pipelines.

The full pipeline spends one pass seeding, one filling reservoirs, one
scoring every candidate (plus an optional scale pass when aspect-ratio
removal is on), and one assigning the winner's owners: 4 passes, 5 with
aspect removal.  The seed pass seeds stacks of chunks of at most
ENTRIES entries each as one.  The later passes ask the source for joins
(StreamSource.open(rows)): the sample pass for max(block, ENTRIES //
(2k·d)) rows, each offered once to one reservoir bank with a segment per
repetition; the scale, scoring and assign passes for max(block, ENTRIES
// (|U|·d)) rows, U the list's distinct centers, which the scale and
scoring passes measure once for all candidates.  classical,
fault_tolerant and semi_supervised are scored and assigned with no
graph, by partition.closed_form_totals and closed_form_assign, the one
exact rule of batch_solve and `ckmeans partition` too: the scoring
pass keeps one running total per candidate (and target matching), the
assign pass applies the winner's owner rule.
r_gather and r_capacity key a compressed graph per candidate, from a
table of up to a block's distinct rows, solve the graphs offline
between passes and peel the winner's flow.  batch_solve is the
in-memory pipeline behind `ckmeans solve`; it scores a closed form's
candidates in one pass over the points, and bounds a flow's every
candidate from below in one blocked pass over the list's distinct
centers, solves candidates exactly in ascending bound order, and stops
once no bound can beat the best (range mode then solves lower indices
whose bound is within 1/(1-eps) of it).  Both build their candidate
list with listgen.candidate_list, from D^2 samples drawn in memory or
from reservoirs filled in one pass, and pick the winner by the same rule.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, iter_dataset_csv
from .geometry import ENTRIES, as_points, block_rows, pairwise_sqdist, row_min
from .hyperbucket import CompressedGraph, KeyBuilder, aspect_floor, aspect_graph, distinct_centers
from .listgen import CandidateList, GoodCentersConfig, candidate_list, good_centers
from .partition import (
    CLOSED_FORM,
    InfeasiblePartitionError,
    Variant,
    candidate_sq,
    check_precision_bits,
    closed_form_assign,
    closed_form_totals,
    compressed_partition,
    partition_assign,
    partition_bounds,
    partition_cost,
    point_blocks,
    target_matchings,
    variant_groups,
)
from .sampling import ReservoirBank
from .seeding import SeedSolution, chunks, d2_seed, merge_reduce_seed

STREAM_VARIANTS = ("classical", "r_gather", "r_capacity", "fault_tolerant", "semi_supervised")


class StreamSource:
    """Replayable source of (points, colors, targets) records.

    open(rows) hands out a fresh single-use iterator over the records in
    a fixed order, in joins of `rows` rows (`block` by default; the last
    join may be shorter), and bumps the pass counter; n is None when the
    length is not known without reading.  Every pass read to its end is
    fingerprinted by its row count and one sha256 per column over the
    column's bytes in row order, which no join size moves; a pass that
    differs from the first raises ValueError, so owners are never peeled
    from other data than the candidates were scored on.
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

    def open(self, rows: int | None = None):
        self.passes += 1
        return self._checked(self._joins(rows or self.block), self.passes)

    def _checked(self, joins, pass_no: int):
        import hashlib  # on first use: its OpenSSL binding adds ~4 ms to start-up

        # faster than blake2b where the CPU hashes SHA-256 itself
        hashes = [hashlib.sha256() for _ in range(3)]
        rows = 0
        for join in joins:
            rows += len(join[0])
            for h, a in zip(hashes, join):
                if a is not None:
                    h.update(np.ascontiguousarray(a).data)
            yield join
        seen = (rows, [h.digest() for h in hashes])
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

    def _joins(self, rows: int):
        """The source's blocks joined into `rows` rows (a join of one
        block is that block)."""
        return chunks(self._blocks(), rows)

    def _blocks(self):  # pragma: no cover
        raise NotImplementedError


class ArraySource(StreamSource):
    """Streams an array or Dataset: a join is a slice of its columns,
    a view, not a copy."""

    def __init__(self, data, block: int = 256):
        super().__init__(block)
        self.ds = data if isinstance(data, Dataset) else Dataset(as_points(data))

    @property
    def n(self):
        return self.ds.n

    def _joins(self, rows: int):
        ds = self.ds
        for lo in range(0, ds.n, rows):
            yield tuple(None if a is None else a[lo:lo + rows]
                        for a in (ds.points, ds.colors, ds.targets))


class CSVSource(StreamSource):
    """Replays a dataset CSV.  Each pass reads the file one block of
    `block` lines at a time (data.iter_dataset_csv) and joins the blocks,
    so memory holds one join of rows, never the file; a bad line fails
    the pass that reaches it, which is the first one."""

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
    reservoirs, one segment per repetition and one reservoir per needed
    sample, so a join's weights are checked and summed once and one jump
    loop serves every repetition.  While the potential seen so far is
    zero the bank samples uniformly, so a zero potential degrades to
    uniform sampling like the batch path.  Returns (candidates, seed,
    points_seen)."""
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
    # one (reservoir segment, tuple) rng pair per repetition
    streams = [rs.spawn(2) for rs in rng_sample.spawn(reps)]
    with meter.phase("sample"):
        bank = ReservoirBank(R, d, *(s[0] for s in streams))
        meter.alloc_points(reps * R)
        meter.alloc_words(bank.words)
        seen = 0
        for pts, _colors, _targets in source.open(block_rows(C.size, ENTRIES, source.block)):
            w = row_min(pairwise_sqdist(pts, C))
            before = bank.words
            bank.offer_block(pts, w)
            # an offer grows or shrinks the segments' pending draws: the
            # bank's total is charged once, the state it holds after the offer
            meter.free_words(before)
            meter.alloc_words(bank.words)
            seen += len(w)

        cands = candidate_list(np.split(bank.sampled_points(), reps), C, p,
                               [s[1] for s in streams])
        meter.free_points(reps * R)
        meter.free_words(bank.words)
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

    argmin returns the first cheapest index.  Range mode returns the
    first index whose cost is at most min / (1-eps), so the winner's
    cost is within 1/(1-eps) of the minimum; when the minimum is 0, that
    is argmin's index.
    """
    check_select(mode, epsilon)
    c = np.asarray(costs, dtype=np.float64)
    if not np.isfinite(c).any():
        raise InfeasiblePartitionError("no feasible candidate to select from")
    low = int(np.argmin(c))
    if mode == "argmin":
        return low
    return int(np.argmax(c <= c[low] / (1.0 - epsilon)))


def _check_t(cfg: GoodCentersConfig, k: int) -> None:
    # a t-tuple below k would be emitted as a (t, d) center set
    if cfg.t > k:
        raise ValueError(f"t={cfg.t} centers per candidate exceeds k={k}")
    if cfg.t < k:
        raise ValueError(f"t={cfg.t} centers per candidate is below k={k}")


@dataclass
class PipelineResult:
    """The stream's emitted solution; owners is one (n, l) array, each
    row a point's owner indices in ascending order."""

    centers: np.ndarray
    owners: np.ndarray
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
    """The streaming solver: seed, sample, score every candidate, assign.
    The seed pass reads the source's blocks; every later pass asks it for
    joins of the rows its budget allows, and the scoring and assign
    passes check each join's label column (variant_groups)."""
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
    col = col.reshape(m, k)
    rows = block_rows(U.size, ENTRIES, source.block)

    def grouped():
        return ((pts, variant_groups(variant, c, t)) for pts, c, t in source.open(rows))

    d_star = None
    if aspect_removal:
        with meter.phase("scale"):
            worst = np.zeros(m)
            for pts, _c, _t in source.open(rows):
                worst = np.maximum(worst, row_min(candidate_sq(pts, U, col)).max(axis=1))
            d_star = np.sqrt(worst)

    closed = variant.kind in CLOSED_FORM
    with meter.phase("graph"):
        if closed:
            floors = None if d_star is None else np.array(
                [aspect_floor(e.centers, d, max(n, 1)) for e, d in zip(cands.entries, d_star)])
            meter.alloc_words(len(target_matchings(variant, k)) * m)
            totals = closed_form_totals(grouped(), U, col, variant, floors)
            costs = totals.min(axis=0)
        else:
            graphs = [aspect_graph(e.centers, eps, float(d_star[i]), max(n, 1)) if aspect_removal
                      else CompressedGraph(e.centers, eps) for i, e in enumerate(cands.entries)]
            kb = KeyBuilder(graphs)
            for pts, _groups in grouped():
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

    with meter.phase("assign"):
        joins = grouped()
        if closed:
            owners, cost = closed_form_assign(joins, centers, variant, totals[:, winner],
                                              0.0 if floors is None else floors[winner])
            flow_cost = float(costs[winner])
        else:
            parts = []
            for pts, _groups in joins:
                try:
                    parts.append(sol.assign_block(pts))
                except InfeasiblePartitionError:
                    # a source changed since the graph pass can overdraw a
                    # vertex: the pass read to its end names the change
                    for _ in joins:
                        pass
                    raise
            owners = np.concatenate(parts)
            cost, flow_cost = sol.peeled_cost, sol.cost

    return PipelineResult(centers, owners, cost, flow_cost, winner, m, source.passes, seed.cost,
                          n, meter.report(), None if d_star is None else float(d_star[winner]))


@dataclass
class BatchResult:
    centers: np.ndarray
    owners: np.ndarray       # (n, l) owner indices, each row ascending
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
    runs.  A closed form scores every candidate in one pass over the
    point_blocks and assigns the winner in one more, in either mode.  A
    flow, in argmin mode, bounds every candidate in one blocked pass
    (partition_bounds), solves candidates in ascending (bound, index)
    order until no bound can beat the best (cost, index), and leaves the
    rest at cost +inf, so the argmin and its tie-break stay.  Range mode
    then walks the indices below the argmin in order, skips a candidate
    whose bound exceeds min / (1-eps), and solves the others until one
    is within it: select_best's first index within the threshold."""
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
    stack = np.stack([e.centers for e in cands.entries])
    if variant.kind in CLOSED_FORM:
        blocks, U, col = point_blocks(ds, stack, variant)
        totals = closed_form_totals(blocks, U, col, variant)
        costs = totals.min(axis=0)
        winner = select_best(costs, select_mode, cfg.epsilon)
        centers = cands.entries[winner].centers
        owners, cost = closed_form_assign(blocks, centers, variant, totals[:, winner])
        return BatchResult(centers, owners, cost, float(costs[winner]), winner, seed.cost, cands)
    m = len(cands)
    bounds = partition_bounds(ds, stack, variant, precision_bits=precision_bits).tolist()
    costs, solved = np.full(m, math.inf), np.zeros(m, dtype=bool)

    def solve(i):
        costs[i] = partition_cost(ds, cands.entries[i].centers, variant,
                                  precision_bits=precision_bits)
        solved[i] = True

    best = (math.inf, m)
    for i in sorted(range(m), key=lambda j: (bounds[j], j)):
        if (bounds[i], i) >= best:
            break
        solve(i)
        best = min(best, (costs[i], i))
    if select_mode == "range":
        # a lower index within the threshold wins; a bound above it cannot
        limit = best[0] / (1.0 - cfg.epsilon)
        for i in range(best[1]):
            if not solved[i] and bounds[i] <= limit:
                solve(i)
            if costs[i] <= limit:
                break
    winner = select_best(costs, select_mode, cfg.epsilon)
    asg = partition_assign(ds, cands.entries[winner].centers, variant,
                           precision_bits=precision_bits)
    return BatchResult(cands.entries[winner].centers, asg.owners, asg.cost,
                       float(costs[winner]), winner, seed.cost, cands)
