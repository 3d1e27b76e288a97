"""Constrained partitioning of points among a fixed center set.

Points (or compressed bucket vertices) sit on the left, centers on the
right, with squared distances as edge costs in fixed-point integers.
The integral min-cost flow on that bipartite graph is the exact
reduction; each variant is solved on it by its own exact kernel:

  classical        row argmin, the Voronoi assignment
  r_gather         every center receives at least r points
  r_capacity       every center receives at most r points
                   (both: the transport kernel, row argmin repaired by
                   shortest paths on the graph contracted to k centers,
                   each center pair's cheapest move kept in a lazy heap)
  chromatic        at most one point of each color per center; the
                   transport kernel with cap 1, once per color class
  fault_tolerant   each point owned by l distinct centers: its l
                   cheapest ones, in closed form
  semi_supervised  cost alpha * dist^2 + (1 - alpha) * [target mismatch],
                   a row argmin for each of the k! matchings of targets
                   to centers

The objective throughout is the cost of assigning to fixed centers, not
the k-means cost of re-centered clusters, and every edge cost is finite.
Batch assignment and stream peeling share one owner/cost rule: raw
points are vertices of count 1, owners are the centers that carry a
vertex's flow, and the real cost is summed left to right in point
order, then owner order.  Peeling takes units off the solver's flow
array, its rows found by vertex key: the bytes a graph keys its
vertices by.  partition_bound is a lower bound on partition_cost at one
distance matrix: the cost of every unit at its row's cheapest center,
or at its l cheapest under fault_tolerant(l), which is the cost itself.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .geometry import as_points, pairwise_sqdist
from .hyperbucket import CompressedGraph, _distinct_rows

# the one parameter each variant kind takes (None: it takes none)
VARIANT_PARAMS = {
    "classical": None,
    "r_gather": "r",
    "r_capacity": "r",
    "chromatic": None,
    "fault_tolerant": "l",
    "semi_supervised": "alpha",
}
VARIANT_KINDS = tuple(VARIANT_PARAMS)
_PARAM_RANGES = {
    "r": ("r >= 1", lambda v: v >= 1),
    "l": ("l >= 1", lambda v: v >= 1),
    "alpha": ("alpha in [0, 1]", lambda v: 0.0 <= v <= 1.0),
}
# the dataset column a kind's kernel reads as left-vertex groups
_LABEL_COLUMNS = {"chromatic": "color", "semi_supervised": "target"}


class InfeasiblePartitionError(Exception):
    """The constraints admit no assignment for this instance."""


@dataclass(frozen=True)
class Variant:
    kind: str
    r: int | None = None
    l: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in VARIANT_PARAMS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        name = VARIANT_PARAMS[self.kind]
        if name is not None:
            text, ok = _PARAM_RANGES[name]
            value = getattr(self, name)
            if value is None or not ok(value):
                raise ValueError(f"{self.kind} needs {text}")

    @staticmethod
    def classical() -> "Variant":
        return Variant("classical")

    @staticmethod
    def r_gather(r: int) -> "Variant":
        return Variant("r_gather", r=r)

    @staticmethod
    def r_capacity(r: int) -> "Variant":
        return Variant("r_capacity", r=r)

    @staticmethod
    def chromatic() -> "Variant":
        return Variant("chromatic")

    @staticmethod
    def fault_tolerant(l: int) -> "Variant":
        return Variant("fault_tolerant", l=l)

    @staticmethod
    def semi_supervised(alpha: float) -> "Variant":
        return Variant("semi_supervised", alpha=alpha)


def variant_groups(variant: Variant, colors, targets):
    """The left-vertex groups the variant's kernel reads: its label
    column, or None when it reads none.  A missing column raises."""
    column = _LABEL_COLUMNS.get(variant.kind)
    if column is None:
        return None
    groups = colors if column == "color" else targets
    if groups is None:
        raise ValueError(f"{variant.kind} needs a {column} column")
    return groups


@dataclass
class Assignment:
    """Owner centers per point (ascending indices, l of them for the
    fault-tolerant variant), the recomputed real cost, and the objective
    of the flow they came from (partition_cost's value)."""

    owners: list
    cost: float
    flow_cost: float


# ---------------------------------------------------------------------------
# shared objective plumbing (the oracle reuses these, its search is its own)

def check_precision_bits(precision_bits: int) -> None:
    """The fixed-point width quantize_costs accepts: 1..62 bits.  The
    pipelines call it before their first pass."""
    if not 1 <= precision_bits <= 62:
        raise ValueError("precision_bits out of range")


def quantize_costs(M, precision_bits: int = 32) -> tuple[np.ndarray, float]:
    """Fixed-point edge costs and the scale that maps them back.

    Costs must be finite and non-negative.  The max lands exactly on
    2**precision_bits, zero stays zero, and order is preserved up to
    quantization; all-zero or empty input maps to zeros.  real cost ==
    int cost * scale exactly as floats.
    """
    a = np.asarray(M, dtype=np.float64)
    if a.size and (not np.all(np.isfinite(a)) or np.any(a < 0)):
        raise ValueError("costs must be finite and non-negative")
    check_precision_bits(precision_bits)
    m = float(a.max(initial=0.0))
    if m == 0.0:
        return np.zeros(a.shape, dtype=np.int64), 0.0
    top = float(2**precision_bits)
    return np.rint(a / m * top).astype(np.int64), m / top


def semi_supervised_cost_terms(W, targets, alpha: float, perm) -> np.ndarray:
    """Blended edge costs for one matching of targets onto centers.

    W is the squared-distance matrix, perm[i] the target id matched to
    center i; a point pays the (1 - alpha) penalty on every center whose
    matched target differs from its own.
    """
    W = np.asarray(W, dtype=np.float64)
    targets = np.asarray(targets)
    mismatch = (targets[:, None] != np.asarray(perm)[None, :]).astype(np.float64)
    return alpha * W + (1.0 - alpha) * mismatch


def _real_costs(sq, variant: Variant, targets, perm) -> np.ndarray:
    """The edge costs an emitted assignment pays: squared distances, or
    under semi_supervised their blend for the winning matching perm."""
    if variant.kind != "semi_supervised":
        return sq
    return semi_supervised_cost_terms(sq, targets, variant.alpha, perm)


def _owner_tuples(owns: np.ndarray) -> list:
    """Owner tuples of the rows of a boolean (rows, k) matrix.  A row is
    coded by its owner set, packed eight centers to a byte so that any
    k fits, and each distinct set's tuple is built once."""
    first, which, _counts = _distinct_rows(np.packbits(owns, axis=1))
    sets = [tuple(np.flatnonzero(owns[r]).tolist()) for r in first.tolist()]
    return [sets[i] for i in which.tolist()]


def _running_sum(start, terms):
    """start + terms[0] + terms[1] + ..., strictly left to right: np.sum
    would pair terms and change the low bits."""
    return np.add.accumulate(np.concatenate([[start], terms]))[-1]


# ---------------------------------------------------------------------------
# left side: the one abstraction the solvers run on

@dataclass
class _LeftSide:
    weights: np.ndarray          # (L, k) real costs, all finite
    counts: np.ndarray           # (L,) multiplicities
    groups: np.ndarray | None    # (L,) color / target ids where relevant

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _left_side(data, centers, variant: Variant) -> _LeftSide:
    """The left side a variant is solved on.

    A Dataset or point array gives one vertex of count 1 per point, with
    the variant's label column as groups; a squared distance that
    overflows float64 raises ValueError.  A CompressedGraph (centers
    ignored) gives its vertices, grouped by the column it was bucketed
    with.
    """
    if isinstance(data, CompressedGraph):
        weights, counts, groups = data.vertex_arrays()
        return _LeftSide(weights, counts, variant_groups(variant, groups, groups))
    ds = data if isinstance(data, Dataset) else Dataset(as_points(data))
    sq = pairwise_sqdist(ds.points, centers)
    if not np.isfinite(sq).all():
        raise ValueError("a squared distance overflows float64")
    return _LeftSide(sq, np.ones(ds.n, dtype=np.int64),
                     variant_groups(variant, ds.colors, ds.targets))


def _exact_total(flows, w_int) -> int:
    """sum(flows * w_int) as an exact Python int, for non-negative flows
    and costs of at most 2**62 in arrays of one shape.  One int64 sum
    would wrap at 62 precision bits, so the costs are split into 31-bit
    limbs: while the units F = flows.sum() stay below 2**32, each limb's
    int64 dot stays below 2**63.  Larger F is summed in Python ints."""
    if int(flows.sum()) < 2**32:
        hi, lo = w_int >> 31, w_int & (2**31 - 1)
        return (int(np.vdot(flows, hi)) << 31) + int(np.vdot(flows, lo))
    nz = np.nonzero(flows)
    return sum(f * w for f, w in zip(flows[nz].tolist(), w_int[nz].tolist()))


def transport_assign(w_int, counts, low: int, cap: int):
    """Cheapest integral assignment of counts[v] units of every left vertex
    v to the centers, each center receiving between low and cap units.
    Returns (int_cost, flows), int_cost an exact Python int, or None when
    infeasible.

    The row argmin (ties to the lowest center) is optimal without bounds.
    Bound violations are then repaired by successive shortest paths on
    the residual graph contracted to the k centers plus the sink: moving
    one unit of vertex v from center a to b costs w[v, b] - w[v, a], and
    sink arcs carry y_j in [low, cap].  Edges go negative after moves, but
    the flow stays optimal for its loads, so Bellman-Ford meets no
    negative cycle.

    The cheapest a -> b move comes from a lazy min-heap per ordered pair
    (a, b) of (w[v, b] - w[v, a], v).  Invariant: every vertex holding
    flow on a has an entry in each heap (a, .); entries of vertices that
    have since left a are stale and popped when they reach the top.  The
    tuple order breaks cost ties to the lowest vertex.  The heaps are
    built at the first repair in O(L*k), so an unbounded call never pays
    for them; a repair then costs O(k^2 log L) amortized.
    """
    L, k = w_int.shape
    n = int(counts.sum())
    if low > cap or k * low > n or k * cap < n:
        return None
    flows = np.zeros((L, k), dtype=np.int64)
    flows[np.arange(L), w_int.argmin(axis=1)] = counts
    load = flows.sum(axis=0).tolist()
    y = [min(max(x, low), cap) for x in load]      # sink arc flows
    sink = k
    heaps = None
    while True:
        # imbalance: positive at nodes with excess, negative at deficits
        excess = [x - t for x, t in zip(load, y)] + [sum(y) - n]
        if not any(excess):
            return _exact_total(flows, w_int), flows
        if heaps is None:
            heaps = [[[] for _ in range(k)] for _ in range(k)]   # (a, a) stays empty
            for a in range(k):
                rows = np.flatnonzero(flows[:, a])
                vs = rows.tolist()
                for b in range(k):
                    if b != a:
                        heaps[a][b] = list(zip((w_int[rows, b] - w_int[rows, a]).tolist(), vs))
                        heapq.heapify(heaps[a][b])
        via = {}
        arcs = []
        for a, row in enumerate(heaps):
            out = []
            for b, heap in enumerate(row):
                while heap and flows[heap[0][1], a] == 0:
                    heapq.heappop(heap)      # stale: its vertex has left a
                if heap:
                    cost, via[a, b] = heap[0]
                    out.append((b, cost))
            arcs.append(out + ([(sink, 0)] if y[a] < cap else []))
        arcs.append([(b, 0) for b in range(k) if y[b] > low])
        # Bellman-Ford from every node with excess (a zero-cost super source)
        dist = [0 if e > 0 else None for e in excess]
        pred = [-1] * (k + 1)
        for _ in range(k + 1):
            changed = False
            for a, da in enumerate(dist):
                if da is None:
                    continue
                for b, c in arcs[a]:
                    if dist[b] is None or da + c < dist[b]:
                        dist[b], pred[b], changed = da + c, a, True
            if not changed:
                break
        ends = [b for b in range(k + 1) if excess[b] < 0 and dist[b] is not None]
        if not ends:
            return None
        b = min(ends, key=lambda j: dist[j])
        path = [b]
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        path.reverse()
        push = min(excess[path[0]], -excess[b])
        for a, b in zip(path, path[1:]):
            if a == sink:
                push = min(push, y[b] - low)
            elif b == sink:
                push = min(push, cap - y[a])
            else:
                push = min(push, int(flows[via[a, b], a]))
        for a, b in zip(path, path[1:]):
            if a == sink:
                y[b] -= push
            elif b == sink:
                y[a] += push
            else:
                v = via[a, b]
                if flows[v, b] == 0:
                    # v arrives on b: enter it in every heap (b, .)
                    wv = w_int[v].tolist()
                    for c in range(k):
                        if c != b:
                            heapq.heappush(heaps[b][c], (wv[c] - wv[b], v))
                flows[v, a] -= push
                flows[v, b] += push
                load[a] -= push
                load[b] += push


def _chromatic(w_int, left, variant):
    total = 0
    flows = np.zeros(w_int.shape, dtype=np.int64)
    for color in np.unique(left.groups):
        rows = np.flatnonzero(left.groups == color)
        sub = transport_assign(w_int[rows], left.counts[rows], 0, 1)
        if sub is None:
            return None
        total += sub[0]
        flows[rows] = sub[1]
    return total, flows


def _fault_tolerant(w_int, left, variant):
    """Closed form: every point takes its l cheapest centers (stable
    sort, so ties go to the lowest index)."""
    L, k = w_int.shape
    if variant.l > k:
        return None
    pick = np.argsort(w_int, axis=1, kind="stable")[:, :variant.l]
    flows = np.zeros((L, k), dtype=np.int64)
    flows[np.arange(L)[:, None], pick] = left.counts[:, None]
    return _exact_total(flows, w_int), flows


_KERNELS = {
    "classical": lambda w, left, v: transport_assign(w, left.counts, 0, left.total),
    "r_gather": lambda w, left, v: transport_assign(w, left.counts, v.r, left.total),
    "r_capacity": lambda w, left, v: transport_assign(w, left.counts, 0, v.r),
    "chromatic": _chromatic,
    "fault_tolerant": _fault_tolerant,
}


def _semi_supervised(left: _LeftSide, alpha: float, precision_bits: int):
    """Unconstrained, so each of the k! target matchings is a row argmin."""
    best = None
    for perm in itertools.permutations(range(left.weights.shape[1])):
        M = semi_supervised_cost_terms(left.weights, left.groups, alpha, perm)
        w_int, scale = quantize_costs(M, precision_bits)
        solved = transport_assign(w_int, left.counts, 0, left.total)
        if solved is None:
            return None
        if best is None or solved[0] * scale < best[0] * best[1]:
            best = (solved[0], scale, solved[1], perm)
    return best


def _solve_left(left: _LeftSide, variant: Variant, precision_bits: int):
    """Dispatch a variant over a left side.

    Returns (int_cost, scale, flows, perm) or None when infeasible.
    flows is (L, k) integral; perm is the winning target matching for
    semi_supervised and None otherwise.
    """
    if variant.kind == "semi_supervised":
        return _semi_supervised(left, variant.alpha, precision_bits)
    w_int, scale = quantize_costs(left.weights, precision_bits)
    solved = _KERNELS[variant.kind](w_int, left, variant)
    return None if solved is None else (solved[0], scale, solved[1], None)


# ---------------------------------------------------------------------------
# public surface

def partition_cost(data, centers, variant: Variant, *, precision_bits: int = 32) -> float:
    """Optimal constrained assignment cost, or +inf when infeasible.

    data may be a Dataset, a raw point array, or a CompressedGraph built
    against the same centers (in which case centers is ignored).
    """
    solved = _solve_left(_left_side(data, centers, variant), variant, precision_bits)
    if solved is None:
        return math.inf
    int_cost, scale, _flows, _perm = solved
    return float(int_cost) * scale


def partition_bound(data, centers, variant: Variant, *, precision_bits: int = 32) -> float:
    """A lower bound on partition_cost at one distance matrix: each
    row's l cheapest quantized costs, summed, where l is fault_tolerant's
    l and 1 for the other variants.  Every kernel but semi_supervised's
    sends each unit at least to its row's cheapest center on one
    quantization, infeasible or not, and fault_tolerant(l) sends it to
    exactly its l cheapest, so for l <= k its bound is its cost;
    semi_supervised quantizes each matching on its own scale, so its
    bound is 0.  It raises where partition_cost raises."""
    left = _left_side(data, centers, variant)
    if variant.kind == "semi_supervised":
        check_precision_bits(precision_bits)
        return 0.0
    w_int, scale = quantize_costs(left.weights, precision_bits)
    if variant.kind != "fault_tolerant":
        return float(_exact_total(left.counts, w_int.min(axis=1))) * scale
    # summed exactly: at 62 bits a row of l costs can pass 2**63
    cheapest = np.sort(w_int, axis=1)[:, :variant.l]
    counts = np.repeat(left.counts[:, None], cheapest.shape[1], axis=1)
    return float(_exact_total(counts, cheapest)) * scale


def partition_assign(data, centers, variant: Variant, *, precision_bits: int = 32) -> Assignment:
    """Optimal constrained assignment with its recomputed real cost.

    Each point is a vertex of count 1, so its owners are the centers
    that carry its flow, and owners and cost come out by the rule that
    CompressedSolution.assign_block peels with.  Raises
    InfeasiblePartitionError when the constraints cannot be met.
    """
    if isinstance(data, CompressedGraph):
        raise TypeError("partition_assign needs points; solve a graph with compressed_partition")
    left = _left_side(data, centers, variant)
    solved = _solve_left(left, variant, precision_bits)
    if solved is None:
        raise InfeasiblePartitionError(f"{variant.kind}: no feasible assignment")
    int_cost, scale, flows, perm = solved
    owns = flows > 0
    cost = _real_costs(left.weights, variant, left.groups, perm)
    return Assignment(_owner_tuples(owns), _running_sum(0.0, cost[owns]), float(int_cost) * scale)


@dataclass
class CompressedSolution:
    """A solved flow over a compressed graph, ready for assignment peeling:
    flows is the solver's (L, k) array in graph.vertices order, row maps
    each vertex key to its row of flows, and each peeled block takes its
    units off in place."""

    graph: CompressedGraph
    variant: Variant
    int_cost: int
    scale: float
    flows: np.ndarray
    row: dict                # vertex key -> its row of flows
    perm: tuple | None = None
    peeled_cost: float = 0.0

    @property
    def cost(self) -> float:
        return float(self.int_cost) * self.scale

    def assign_block(self, points, groups=None) -> list:
        """Peel owners for a block of stream points, in order.

        The rows of one vertex take its remaining units in point order.
        Single-owner variants hand out units lowest center first, so
        rank r gets the first center j with cumsum(units)[j] > r; under
        fault_tolerant, rank r owns every center j with units[j] > r.
        A block that overdraws a vertex raises before any unit is taken.
        """
        kb = self.graph.key_builder
        sq = pairwise_sqdist(as_points(points), kb.centers)
        cost = _real_costs(sq[:, kb.col], self.variant, groups, self.perm)
        M = kb.slot_rows(sq, groups)
        first, run, counts = _distinct_rows(M)
        vertex = self._vertex_rows(M[first], groups is not None)
        units = self.flows[vertex]
        # each point's rank among its row's points, in point order
        by_row = np.argsort(run, kind="stable")
        rank = np.empty(len(run), dtype=np.int64)
        rank[by_row] = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
        rank = rank[:, None]
        c = counts[:, None]
        if self.variant.kind == "fault_tolerant":
            owned = units[run] > rank
            short = counts > units.max(axis=1, initial=0)
            taken = np.minimum(units, c)
        else:
            upto = np.cumsum(units, axis=1)
            below = upto - units
            owned = (below[run] <= rank) & (upto[run] > rank)
            short = counts > upto[:, -1]
            taken = np.minimum(upto, c) - np.minimum(below, c)
        if short.any():
            raise InfeasiblePartitionError("no flow left on this point's vertex")
        self.flows[vertex] -= taken
        # summed in point order, then owner order
        self.peeled_cost = _running_sum(self.peeled_cost, cost[owned])
        return _owner_tuples(owned)

    def _vertex_rows(self, R: np.ndarray, grouped: bool) -> np.ndarray:
        """The flows row of each distinct slot row of R: its key under
        the graph, looked up in self.row.  With one graph distinct rows
        are distinct vertices, so keys[i] is row i's."""
        keys, _counts, _owner = self.graph.key_builder.project(
            R, np.ones(R.shape[0], dtype=np.int64), grouped)
        try:
            return np.array([self.row[key] for key in keys], dtype=np.intp)
        except KeyError:
            raise InfeasiblePartitionError("no flow on this point's vertex") from None


def compressed_partition(graph: CompressedGraph, variant: Variant,
                         *, precision_bits: int = 32) -> CompressedSolution:
    """Solve a variant over a compressed graph; raises when infeasible."""
    solved = _solve_left(_left_side(graph, None, variant), variant, precision_bits)
    if solved is None:
        raise InfeasiblePartitionError(f"{variant.kind}: no feasible flow on compressed graph")
    int_cost, scale, flows, perm = solved
    row = {key: i for i, key in enumerate(graph.vertices)}
    return CompressedSolution(graph, variant, int_cost, scale, flows, row, perm)
