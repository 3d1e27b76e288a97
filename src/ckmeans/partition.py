"""Constrained partitioning of points among a fixed center set.

classical, fault_tolerant(l) and semi_supervised have closed forms, one
exact rule on float costs: each point owned by its cheapest center, its
l cheapest, or its cheapest under the cost alpha * dist^2 + (1 - alpha)
* [target mismatch] for each of the k! matchings of targets to centers,
the cheapest matching winning.  owner_mask is the owner rule, ties to
the lowest index.  closed_form_totals scores a list's candidates from
one distance matrix per row block against the list's distinct centers
(candidate_sq), adding each row's owned costs strictly left to right,
in point order, then owner order; closed_form_assign applies one
candidate's rule and sums its cost the same way, so the cost equals the
total bit for bit.  The stream feeds them its passes; batch_solve,
partition_cost and partition_assign their point_blocks.

r_gather, r_capacity and chromatic are flows: points (or compressed
bucket vertices) on the left, centers on the right, squared distances
as edge costs in fixed-point integers of precision_bits bits, each
variant solved on that bipartite graph by its own exact kernel:

  r_gather     every center receives at least r points
  r_capacity   every center receives at most r points
               (both: the transport kernel, row argmin repaired by
               shortest paths on the graph contracted to k centers,
               each center pair's cheapest move kept in a lazy heap)
  chromatic    at most one point of each color per center; the
               transport kernel with cap 1, once per color class

A compressed graph keeps the flow kernels, classical's too: the
unbounded transport.  Raw points are vertices of count 1, owners are
the centers that carry a vertex's flow, and the real cost is summed in
point order, then owner order, as CompressedSolution.assign_block peels
it.  partition_bounds bounds every candidate's flow from below in one
blocked pass.  The objective throughout is the cost of assigning to
fixed centers, not the k-means cost of re-centered clusters.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .geometry import (BOUND_BLOCKS, ENTRIES, as_points, block_rows, check_overflow,
                       pairwise_sqdist, row_min)
from .hyperbucket import CompressedGraph, _distinct_rows, distinct_centers

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
# the kinds scored and assigned on points by their closed form
CLOSED_FORM = ("classical", "fault_tolerant", "semi_supervised")
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
    """Owner centers per point, as an (n, l) array of ascending indices
    (l owners under fault_tolerant(l), else 1), the recomputed real cost,
    and partition_cost's value: a closed form's total, or the objective
    of their flow."""

    owners: np.ndarray
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
    return _fixed_point(a, m, precision_bits), _fixed_scale(m, precision_bits)


def _fixed_point(a, m, precision_bits: int) -> np.ndarray:
    """a's fixed-point costs on the scale of its maximum m (a float, or
    an array that broadcasts against a): m lands exactly on
    2**precision_bits.  Where m is 0, a is all zeros and maps to zeros."""
    return np.rint(a / np.where(m > 0.0, m, 1.0) * float(2**precision_bits)).astype(np.int64)


def _fixed_scale(m, precision_bits: int):
    """The scale that maps _fixed_point's costs back: real cost == int
    cost * scale exactly as floats; 0 where m is 0."""
    return m / float(2**precision_bits)


def semi_supervised_cost_terms(W, targets, alpha: float, perm) -> np.ndarray:
    """Blended edge costs for one matching of targets onto centers.

    W holds squared distances, points by centers in its last two axes
    (leading axes, such as the stream's candidates, broadcast), perm[i]
    the target id matched to center i; a point pays the (1 - alpha)
    penalty on every center whose matched target differs from its own.
    """
    mismatch = (np.asarray(targets)[:, None] != np.asarray(perm)[None, :]).astype(np.float64)
    return alpha * np.asarray(W, dtype=np.float64) + (1.0 - alpha) * mismatch


def target_matchings(variant: Variant, k: int) -> list:
    """The matchings of targets onto k centers a variant is scored under:
    every permutation under semi_supervised, else one, None."""
    return list(itertools.permutations(range(k))) if variant.kind == "semi_supervised" else [None]


def semi_supervised_row_mins(D, targets, alpha: float, perms):
    """row_min of semi_supervised_cost_terms(D, targets, alpha, perm) for
    each matching in perms, in order, bit for bit, without the blend.
    A row pays alpha * D on its target's center and alpha * D +
    (1 - alpha) on every other; both maps are monotone, so its minimum
    is the lesser of alpha * D on that center and alpha * row_min(D) +
    (1 - alpha), the penalized minimum over all centers, which the
    target's own center cannot undercut once penalized."""
    D = np.asarray(D, dtype=np.float64)
    k = D.shape[-1]
    targets = np.asarray(targets)
    other = alpha * row_min(D) + (1.0 - alpha)
    known = (targets >= 0) & (targets < k)
    target, rows = np.where(known, targets, 0), np.arange(len(targets))
    for perm in perms:
        # each row's cost on the center its target is matched to
        own = D[..., rows, np.argsort(perm)[target]]
        yield np.where(known, np.minimum(alpha * own, other), other)


def _owner_ranks(v) -> np.ndarray:
    """The rank of each entry of the k arrays v among its row's k entries,
    as one (k, ...) array of the smallest unsigned type that holds k.  An
    entry's rank counts the entries that beat it, one comparison per pair
    of columns: of two, the later beats the earlier only when it is
    cheaper."""
    rank = np.zeros(v.shape, dtype=np.min_scalar_type(len(v)))
    for i, j in itertools.combinations(range(len(v)), 2):
        later = v[j] < v[i]
        rank[i] += later
        rank[j] += ~later
    return rank


def owner_mask(w, l: int = 1) -> np.ndarray:
    """Each row's owners along w's last axis, as a mask of w's shape: its
    l cheapest entries, ties to the lowest index (_owner_ranks below l)."""
    return np.moveaxis(_owner_ranks(np.moveaxis(w, -1, 0)) < l, 0, -1)


def _owned_values(w, l: int) -> np.ndarray:
    """w[owner_mask(w, l)] laid out (..., l) for 1 <= l <= k: each row's
    owned entries in index order, picked, so no bit moves.  A row's s-th
    owner is its column j whose owned predecessors number s, and only
    columns s..s + k - l can be: slot s starts from the last of them and
    each earlier owner overwrites the slot it lands in."""
    v = np.moveaxis(w, -1, 0)
    k = len(v)
    own = _owner_ranks(v) < l
    out = np.empty(w.shape[:-1] + (l,))
    for s in range(l):
        out[..., s] = v[s + k - l]
    before = np.zeros(own.shape[1:], dtype=np.min_scalar_type(k))
    for j in range(k - 1):
        for s in range(max(0, j - (k - l) + 1), min(l, j + 1)):
            np.copyto(out[..., s], v[j], where=own[j] & (before == s))
        before += own[j]
    return out


def owned_costs(D, groups, variant: Variant, perms):
    """The costs the rows of an (m, rows, k) stack of candidates' costs
    pay under a closed form's owner rule, one (m, rows * owners) array
    per matching in perms (target_matchings), each row's costs in owner
    order: its minimum, its l cheapest under fault_tolerant(l)
    (owner_mask), or its minimum under the matching's blend
    (semi_supervised)."""
    if variant.kind == "semi_supervised":
        return semi_supervised_row_mins(D, groups, variant.alpha, perms)
    if variant.kind == "fault_tolerant" and variant.l > 1:
        # l > k owns no l centers, and closed_form_totals makes that +inf
        return [_owned_values(D, min(variant.l, D.shape[-1])).reshape(len(D), -1)]
    return [row_min(D)]


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
    """The left side a variant is solved on.  A Dataset or point array
    gives one vertex of count 1 per point, with the variant's label
    column as groups; a squared distance that overflows float64 raises
    ValueError.  A CompressedGraph (centers ignored) gives its vertices,
    which carry no labels: a variant that reads one raises ValueError."""
    if isinstance(data, CompressedGraph):
        weights, counts = data.vertex_arrays()
        return _LeftSide(weights, counts, variant_groups(variant, None, None))
    ds = data if isinstance(data, Dataset) else Dataset(as_points(data))
    sq = pairwise_sqdist(ds.points, centers)
    check_overflow(sq)
    return _LeftSide(sq, np.ones(ds.n, dtype=np.int64),
                     variant_groups(variant, ds.colors, ds.targets))


def _limb_total(w_int, flows=None, axis=None):
    """sum(flows * w_int) over axis as exact Python ints (an object array
    over the other axes), for non-negative flows (1 per entry if None)
    and costs of at most 2**62.  One int64 sum would wrap at 62
    precision bits, so the costs are split into 31-bit limbs: while the
    units summed stay below 2**32, each limb's int64 sum stays below
    2**63."""
    hi, lo = w_int >> 31, w_int & (2**31 - 1)
    if flows is not None:
        hi, lo = flows * hi, flows * lo
    return (hi.sum(axis=axis).astype(object) << 31) + lo.sum(axis=axis).astype(object)


def _exact_total(flows, w_int) -> int:
    """sum(flows * w_int) as an exact Python int, for non-negative flows
    and costs of at most 2**62 in arrays of one shape: by _limb_total
    while the units F = flows.sum() stay below 2**32, larger F in
    Python ints."""
    if int(flows.sum()) < 2**32:
        return int(_limb_total(w_int, flows))
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


_KERNELS = {
    "classical": lambda w, left, v: transport_assign(w, left.counts, 0, left.total),
    "r_gather": lambda w, left, v: transport_assign(w, left.counts, v.r, left.total),
    "r_capacity": lambda w, left, v: transport_assign(w, left.counts, 0, v.r),
    "chromatic": _chromatic,
}


def _solve_left(left: _LeftSide, variant: Variant, precision_bits: int):
    """Solve a flow variant over a left side.  Returns (int_cost, scale,
    flows), flows (L, k) and integral, or None when infeasible."""
    if variant.kind not in _KERNELS:
        raise ValueError(f"{variant.kind} is peeled by its closed form, not from a graph")
    w_int, scale = quantize_costs(left.weights, precision_bits)
    solved = _KERNELS[variant.kind](w_int, left, variant)
    return None if solved is None else (solved[0], scale, solved[1])


# ---------------------------------------------------------------------------
# public surface

def point_blocks(data, stack, variant: Variant) -> tuple[list, np.ndarray, np.ndarray]:
    """(blocks, U, col) of a point set and an (m, k, d) stack: the stack's
    distinct centers U and column map col (hyperbucket.distinct_centers),
    and the (points, groups) row blocks, groups the variant's label column
    (a missing one raises), sized so that a block's distance and gather
    temporaries hold at most BOUND_BLOCKS * ENTRIES entries (1 MB) each."""
    ds = data if isinstance(data, Dataset) else Dataset(as_points(data))
    groups = variant_groups(variant, ds.colors, ds.targets)
    stack = np.asarray(stack, dtype=np.float64)
    m, k, d = stack.shape
    U, col = distinct_centers(stack.reshape(-1, d))
    col = col.reshape(m, k)
    rows = block_rows(max(U.size, col.size), BOUND_BLOCKS * ENTRIES)
    blocks = [(ds.points[lo:lo + rows], None if groups is None else groups[lo:lo + rows])
              for lo in range(0, ds.n, rows)]
    return blocks, U, col


def candidate_sq(points, U, col) -> np.ndarray:
    """(m, rows, k): each candidate's squared distances to the rows of
    points, gathered from pairwise_sqdist(points, U) by the (m, k)
    column map col of hyperbucket.distinct_centers, and bit-equal to
    each candidate's own matrix.  An overflow raises ValueError."""
    sq = pairwise_sqdist(points, U)
    check_overflow(sq)
    # laid out (rows, k, m): a center's column of every candidate is one run
    return sq[:, col.T].transpose(2, 0, 1)


def closed_form_totals(blocks, U, col, variant: Variant, floors=None) -> np.ndarray:
    """(matchings, m): every candidate's total under a closed form, one
    row per target matching.  Each (points, groups) block is measured
    once against U (candidate_sq), its costs zeroed below each
    candidate's floor when floors is given, and each row's owned costs
    (owned_costs) added strictly left to right, so no split into blocks
    moves a bit.  fault_tolerant(l > k) owns no l centers: +inf."""
    m, k = col.shape
    perms = target_matchings(variant, k)
    totals = np.zeros((len(perms), m))
    for pts, groups in blocks:
        D = candidate_sq(pts, U, col)
        if floors is not None:
            D = np.where(D < floors[:, None, None], 0.0, D)
        for total, owned in zip(totals, owned_costs(D, groups, variant, perms)):
            owned[:, 0] += total
            total[:] = np.add.accumulate(owned, axis=1)[:, -1]
        # owned is not held through the next block's gather; D is, since
        # freeing it first makes the allocator hand back and refault its pages
        del owned
    if variant.kind == "fault_tolerant" and variant.l > k:
        totals[:] = math.inf
    return totals


def closed_form_assign(blocks, centers, variant: Variant, totals,
                       floor: float = 0.0) -> tuple[np.ndarray, float]:
    """(owners, cost) of centers under a closed form over (points, groups)
    blocks, in the first cheapest matching of totals (their column of
    closed_form_totals).  A point's owners are the owner_mask of its
    costs zeroed below floor, one (n, l) array of ascending indices in
    point order, and its real costs are added strictly left to right:
    with no floor, cost is that total bit for bit."""
    perm = target_matchings(variant, len(centers))[int(np.argmin(totals))]
    l = variant.l if variant.kind == "fault_tolerant" else 1

    def blend(sq, groups):
        return sq if perm is None else semi_supervised_cost_terms(sq, groups, variant.alpha, perm)

    owners, cost = [np.empty((0, l), dtype=np.intp)], 0.0
    for pts, groups in blocks:
        sq = pairwise_sqdist(pts, centers)
        real = blend(sq, groups)
        owns = owner_mask(blend(np.where(sq < floor, 0.0, sq), groups) if floor else real, l)
        # nonzero walks row by row, each row's owners in ascending order
        owners.append(owns.nonzero()[1].reshape(len(owns), l))
        cost = _running_sum(cost, real[owns])
    return np.concatenate(owners), cost


def partition_cost(data, centers, variant: Variant, *, precision_bits: int = 32) -> float:
    """Optimal constrained assignment cost, or +inf when infeasible.

    data may be a Dataset, a raw point array, or a CompressedGraph built
    against the same centers (in which case centers is ignored).  On
    points a closed form costs its total (closed_form_totals) at any
    precision_bits.
    """
    check_precision_bits(precision_bits)
    if variant.kind in CLOSED_FORM and not isinstance(data, CompressedGraph):
        blocks, U, col = point_blocks(data, as_points(centers)[None], variant)
        return float(closed_form_totals(blocks, U, col, variant).min())
    solved = _solve_left(_left_side(data, centers, variant), variant, precision_bits)
    if solved is None:
        return math.inf
    int_cost, scale, _flows = solved
    return float(int_cost) * scale


def partition_bounds(data, stack, variant: Variant, *, precision_bits: int = 32) -> np.ndarray:
    """A lower bound on a flow's partition_cost (r_gather, r_capacity,
    chromatic) for every candidate of an (m, k, d) stack, each on its own
    quantization: the sum of each row's cheapest fixed-point cost, since
    every flow kernel sends each unit at least to its row's cheapest
    center, feasible or not.  It raises where partition_cost raises.

    The point_blocks are measured against the stack's distinct centers
    U twice.  A first pass takes U's column maxima, which give each
    candidate's largest cost, its quantization scale, with no gather.  A
    second gathers each candidate's costs and sums its row minima,
    quantized as quantize_costs does, exactly in 31-bit limbs
    (_limb_total, as _exact_total sums).  Quantizing is monotone, so a
    row's cheapest quantized cost is its cheapest cost quantized.
    """
    check_precision_bits(precision_bits)
    blocks, U, col = point_blocks(data, stack, variant)
    top = np.zeros(len(U))
    for pts, _groups in blocks:
        sq = pairwise_sqdist(pts, U)
        check_overflow(sq)
        np.maximum(top, sq.max(axis=0, initial=0.0), out=top)
    top = top[col].max(axis=1)
    totals = np.zeros(len(col), dtype=object)
    for pts, _groups in blocks:
        # a block's rows sum in int64 limbs, the blocks in Python ints
        low = row_min(candidate_sq(pts, U, col))
        totals += _limb_total(_fixed_point(low, top[:, None], precision_bits), axis=1)
    return np.array([float(t) * s for t, s in
                     zip(totals.tolist(), _fixed_scale(top, precision_bits).tolist())])


def partition_assign(data, centers, variant: Variant, *, precision_bits: int = 32) -> Assignment:
    """Optimal constrained assignment with its recomputed real cost.

    A closed form's owners and cost come from closed_form_assign, and
    its cost equals its total, flow_cost, bit for bit.  A flow's points
    are vertices of count 1, so their owners are the centers that carry
    their flow, and owners and cost come out by the rule that
    CompressedSolution.assign_block peels with.  Raises
    InfeasiblePartitionError when the constraints cannot be met.
    """
    if isinstance(data, CompressedGraph):
        raise TypeError("partition_assign needs points; solve a graph with compressed_partition")
    check_precision_bits(precision_bits)
    if variant.kind in CLOSED_FORM:
        C = as_points(centers)
        blocks, U, col = point_blocks(data, C[None], variant)
        totals = closed_form_totals(blocks, U, col, variant)[:, 0]
        if math.isinf(totals.min()):
            raise InfeasiblePartitionError(f"{variant.kind}: no feasible assignment")
        return Assignment(*closed_form_assign(blocks, C, variant, totals), float(totals.min()))
    left = _left_side(data, centers, variant)
    solved = _solve_left(left, variant, precision_bits)
    if solved is None:
        raise InfeasiblePartitionError(f"{variant.kind}: no feasible assignment")
    int_cost, scale, flows = solved
    owns = flows > 0
    return Assignment(owns.nonzero()[1].reshape(len(owns), 1),
                      _running_sum(0.0, left.weights[owns]), float(int_cost) * scale)


@dataclass
class CompressedSolution:
    """A solved flow over a compressed graph, ready for assignment peeling:
    cost is the flow's objective, flows the solver's (L, k) array in
    graph.vertices order, one owner per unit, row maps each vertex key to
    its row of flows, and each peeled block takes its units off in place."""

    graph: CompressedGraph
    cost: float
    flows: np.ndarray
    row: dict                # vertex key -> its row of flows
    peeled_cost: float = 0.0

    def assign_block(self, points) -> np.ndarray:
        """Peel owners for a block of stream points, in order: one
        (rows, 1) array of owner indices.

        The rows of one vertex take its remaining units in point order,
        lowest center first: rank r gets the first center j with
        cumsum(units)[j] > r.  A block that overdraws a vertex raises
        before any unit is taken.
        """
        kb = self.graph.key_builder
        sq = pairwise_sqdist(as_points(points), kb.centers)
        M = kb.slot_rows(sq)
        first, run, counts = _distinct_rows(M)
        # with one graph distinct rows are distinct vertices: keys[i] is row i's
        keys, _counts, _owner = kb.project(M[first], counts)
        try:
            vertex = np.array([self.row[key] for key in keys], dtype=np.intp)
        except KeyError:
            raise InfeasiblePartitionError("no flow on this point's vertex") from None
        units = self.flows[vertex]
        # each point's rank among its row's points, in point order
        by_row = np.argsort(run, kind="stable")
        rank = np.empty(len(run), dtype=np.int64)
        rank[by_row] = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
        upto = np.cumsum(units, axis=1)
        below = upto - units
        owned = (below[run] <= rank[:, None]) & (upto[run] > rank[:, None])
        if (counts > upto[:, -1]).any():
            raise InfeasiblePartitionError("no flow left on this point's vertex")
        c = counts[:, None]
        self.flows[vertex] -= np.minimum(upto, c) - np.minimum(below, c)
        # summed in point order, then owner order
        self.peeled_cost = _running_sum(self.peeled_cost, sq[:, kb.col][owned])
        return owned.nonzero()[1].reshape(len(owned), 1)


def compressed_partition(graph: CompressedGraph, variant: Variant,
                         *, precision_bits: int = 32) -> CompressedSolution:
    """Solve a single-owner variant over a compressed graph; raises when
    infeasible.  fault_tolerant's closed form needs no graph to peel."""
    solved = _solve_left(_left_side(graph, None, variant), variant, precision_bits)
    if solved is None:
        raise InfeasiblePartitionError(f"{variant.kind}: no feasible flow on compressed graph")
    int_cost, scale, flows = solved
    row = {key: i for i, key in enumerate(graph.vertices)}
    return CompressedSolution(graph, float(int_cost) * scale, flows, row)
