"""Hyperbucket compression of a point set against a fixed center set.

Squared distances are bucketed geometrically: bucket i holds s with
(1+eps)^i <= s < (1+eps)^(i+1), and the bucket's representative weight
(1+eps)^i is within a (1+eps) factor of every member.  Exact zeros get
their own slot ZERO_ID with weight 0.  A point's key is its tuple of
per-center int slots (a bucket id or ZERO_ID) plus an optional group
id; points sharing a key collapse into one weighted vertex, so
downstream flow problems see a graph whose size no longer depends on
n.  This module alone reads the key layout: the solvers get a graph's
vertices as arrays from CompressedGraph.vertex_arrays.

A stream pass keys a block for every candidate graph at once: one
distance matrix against all graphs' centers stacked, one bucketing of
it, and one int64 key matrix laid out graph-major, a row per (graph,
point).  A row holds the graph id, then the point's slots, then the
group id when groups ride along.  Equal rows are found with one stable
lexsort, so Python objects are built once per distinct vertex of a
block, never per point; a single graph is the case of one.

Aspect-ratio removal is a contraction floor: squared distances below
(u/n^2)^2 count as zero for a scale guess u.  The pipeline's u is at
least every center gap and every point's nearest-center distance, so
every point lies within 2u of every center: bucket ids span a range
independent of the data's aspect ratio, and every weight is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points, pairwise_sqdist

# key slot marker for an exact zero distance, out of reach of any bucket id
ZERO_ID = np.iinfo(np.int64).min


def bucket_index(sqdist: float, epsilon: float) -> int:
    """Bucket id i with (1+eps)^i <= sqdist < (1+eps)^(i+1).

    The lower boundary is inclusive; 0.0 maps to ZERO_ID.
    """
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if not (sqdist >= 0) or not math.isfinite(sqdist):
        raise ValueError("squared distance must be finite and non-negative")
    if sqdist == 0.0:
        return ZERO_ID
    b = 1.0 + epsilon
    i = int(math.floor(math.log(sqdist) / math.log(b)))
    while _edge(b, i + 1) <= sqdist:
        i += 1
    while _edge(b, i) > sqdist:
        i -= 1
    return i


def _edge(b: float, i: int) -> float:
    # b**i, or +inf where Python's float power overflows (near the
    # largest float the top bucket's upper edge does)
    try:
        return b**i
    except OverflowError:
        return math.inf


def bucket_weight(slot: int, epsilon: float) -> float:
    """Representative squared distance of a key slot: 0.0 for ZERO_ID."""
    if slot == ZERO_ID:
        return 0.0
    return (1.0 + epsilon) ** slot


def bucket_indices(sq: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bucket_index.  Returns (ids, zero_mask); ids where zero_mask is junk."""
    sq = np.asarray(sq, dtype=np.float64)
    if not np.all(np.isfinite(sq)):
        # coordinates are finite (the readers reject others), so only
        # their squared distance can have overflowed
        raise ValueError("a squared distance overflows float64")
    if np.any(sq < 0):
        raise ValueError("squared distances must be non-negative")
    zero = sq == 0.0
    b = 1.0 + epsilon
    safe = np.where(zero, 1.0, sq)
    idx = np.floor(np.log(safe) / math.log(b)).astype(np.int64)
    # float log can land a bucket off, and numpy's power can differ from
    # Python's in the last bit: an entry not clearly inside its bucket
    # takes bucket_index's id, computed once per distinct value; an edge
    # past the largest float is +inf, which marks its entry unsure
    with np.errstate(over="ignore"):
        ratio = safe / b ** idx.astype(np.float64)
    unsure = ~zero & ((ratio <= 1.0 + 1e-14) | (ratio >= b * (1.0 - 1e-14)))
    if unsure.any():
        vals, inverse = np.unique(safe[unsure], return_inverse=True)
        idx[unsure] = np.array([bucket_index(v, epsilon) for v in vals.tolist()])[inverse]
    return idx, zero


def _distinct_rows(M: np.ndarray):
    """Group equal rows of an integer matrix: (first, inverse, counts).

    M[first] are the distinct rows in order of first occurrence, row r
    equals M[first[inverse[r]]], and counts[i] rows equal M[first[i]].
    One stable lexsort puts equal rows next to each other with the
    earliest first; np.unique(axis=0) would sort structured voids, which
    is far slower.
    """
    n = M.shape[0]
    order = np.lexsort(M.T)
    S = M[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (S[1:] != S[:-1]).any(axis=1)
    run = np.cumsum(starts) - 1              # run id of each sorted row
    by_first = np.argsort(order[starts])     # runs by first occurrence
    relabel = np.empty_like(by_first)
    relabel[by_first] = np.arange(by_first.size)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = relabel[run]
    counts = np.bincount(inverse, minlength=by_first.size)
    return order[starts][by_first], inverse, counts


@dataclass
class CompressedGraph:
    """Weighted contraction of (X, C): one vertex per occupied bucket key.

    vertices maps (slots, group) -> count in insertion order, where
    slots is a tuple of one int per center (a bucket id or ZERO_ID) and
    group is an optional color/target id riding along with the points,
    or None.  vertex_arrays turns them into arrays.
    """

    centers: np.ndarray
    epsilon: float
    contract_below: float = 0.0  # squared-distance floor; below it counts as zero
    vertices: dict = field(default_factory=dict)

    def __post_init__(self):
        self.centers = as_points(self.centers)
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def n_points(self) -> int:
        return sum(self.vertices.values())

    def add_block(self, points, groups=None) -> None:
        """Bucket a block of points into vertices."""
        bucket_block([self], pairwise_sqdist(as_points(points), self.centers), groups)

    def vertex_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The vertices in insertion order as the arrays the solvers run
        on: weights (L, k), each slot's bucket_weight; counts (L,);
        groups (L,), or None when no vertex has one (a None group reads
        as -1 beside others)."""
        keys = list(self.vertices)
        slots = np.array([s for s, _g in keys], dtype=np.int64).reshape(-1, self.k)
        # one Python pow per distinct slot: numpy's vectorized power can
        # differ in the last bit, which would move quantized costs
        ids, inverse = np.unique(slots.ravel(), return_inverse=True)
        weights = np.array([bucket_weight(i, self.epsilon) for i in ids.tolist()])
        counts = np.fromiter(self.vertices.values(), dtype=np.int64, count=len(keys))
        groups = None
        if any(g is not None for _s, g in keys):
            groups = np.array([-1 if g is None else g for _s, g in keys], dtype=np.int64)
        return weights[inverse].reshape(slots.shape), counts, groups


def block_keys(graphs, sq: np.ndarray, groups=None):
    """Distinct vertex keys of one block under each of several graphs.

    The graphs share k and epsilon.  sq holds the block's squared
    distances to their centers stacked in graph order, shape (b, m*k).
    Each graph's contract_below applies by broadcasting.  The key matrix
    is laid out graph-major, a row per (graph, point) with the graph id in
    front, so one grouping serves every graph.

    Returns (keys, inverse, counts, owner): keys[i] is a (key, group)
    vertex of graphs[owner[i]], in order of first occurrence; row
    j*b + r (point r under graph j) falls into keys[inverse[j*b + r]],
    and counts[i] rows fall into keys[i].  With one graph, inverse maps
    the block's rows.
    """
    m, k, eps = len(graphs), graphs[0].k, graphs[0].epsilon
    if any(g.k != k or g.epsilon != eps for g in graphs):
        raise ValueError("graphs bucketed together need the same k and epsilon")
    b = sq.shape[0]
    s = sq.reshape(b, m, k)
    below = np.array([g.contract_below for g in graphs])
    if (below > 0.0).any():
        s = np.where(s < below[:, None], 0.0, s)
    idx, zero = bucket_indices(s, eps)
    idx[zero] = ZERO_ID
    cols = [np.repeat(np.arange(m, dtype=np.int64), b)[:, None],
            idx.transpose(1, 0, 2).reshape(m * b, k)]
    if groups is not None:
        cols.append(np.tile(np.asarray(groups).astype(np.int64), m)[:, None])
    M = np.hstack(cols)
    first, inverse, counts = _distinct_rows(M)
    rows = M[first].tolist()
    keys = [(tuple(row[1:k + 1]), None if groups is None else row[k + 1]) for row in rows]
    return keys, inverse, counts, [row[0] for row in rows]


def bucket_block(graphs, sq: np.ndarray, groups=None) -> None:
    """Bucket one block into several graphs at once; sq is the block's
    squared distances to their stacked centers (see block_keys)."""
    keys, _inverse, counts, owner = block_keys(graphs, sq, groups)
    for j, key, c in zip(owner, keys, counts.tolist()):
        vertices = graphs[j].vertices
        vertices[key] = vertices.get(key, 0) + c


def build_compressed(points, centers, epsilon: float, groups=None,
                     block: int = 1024) -> CompressedGraph:
    """One pass over points, bucketing everything against centers."""
    P = as_points(points)
    g = CompressedGraph(centers, epsilon)
    for lo in range(0, P.shape[0], block):
        hi = min(lo + block, P.shape[0])
        g.add_block(P[lo:hi], None if groups is None else groups[lo:hi])
    return g


def aspect_guesses(centers, d_star: float | None = None) -> list[float]:
    """Candidate scale guesses u: all pairwise center distances, plus the
    largest nearest-center distance d_star when one pass has computed it.
    At most k^2 + 1 values (k*(k-1)/2 distinct pairs plus d_star)."""
    C = as_points(centers)
    out = []
    for i in range(C.shape[0]):
        for j in range(i + 1, C.shape[0]):
            out.append(math.sqrt(float(np.dot(C[i] - C[j], C[i] - C[j]))))
    if d_star is not None:
        out.append(float(d_star))
    return out


def aspect_graph(centers, epsilon: float, u: float, n: int) -> CompressedGraph:
    """Empty compressed graph whose keys contract below u/n^2; feed it
    blocks like any other graph."""
    if not (u > 0) or n < 1:
        raise ValueError("need a positive scale guess and n >= 1")
    return CompressedGraph(centers, epsilon, contract_below=(u / n**2) ** 2)
