"""Hyperbucket compression of a point set against a fixed center set.

Squared distances are bucketed geometrically: bucket i holds s with
(1+eps)^i <= s < (1+eps)^(i+1), and the bucket's representative weight
(1+eps)^i is within a (1+eps) factor of every member.  Exact zeros get
their own slot ZERO_ID with weight 0.  A point's key is the bytes of
its int64 row, one slot per center, a bucket id or ZERO_ID, and no
group: only r_gather and r_capacity streams build graphs, and their
kernels read no labels.  Points sharing a key collapse into one
weighted vertex, so downstream flow problems see a graph whose size no
longer depends on n.  This module alone reads the key layout: the
solvers get a graph's vertices as arrays from
CompressedGraph.vertex_arrays.

A stream pass keys its blocks for every candidate graph at once, with
one KeyBuilder, so a block is measured and bucketed once per distinct
center.  Its slot rows hold one column per distinct (center, floor)
pair, and its row table, which keeps rows in order of first occurrence
and holds at most a stream block's, is projected onto each graph's
columns when full and at the end of the pass.  First occurrence in the
table is first occurrence in the stream, so every graph's vertices come
out in the same order as if each block were projected alone.

Aspect-ratio removal is a contraction floor: squared distances below
(u/n^2)^2 count as zero for a scale guess u.  aspect_floor takes u as
the largest positive guess of aspect_guesses, 1.0 when none is
positive; aspect_graph keys below that floor, and the stream's closed
forms zero the costs below it.  Given the largest nearest-center
distance d_star, that u is at least every center gap and every point's
nearest-center distance, so every point lies within 2u of every center:
bucket ids span a range independent of the data's aspect ratio, and
every weight is finite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import as_points, check_overflow, pairwise_sqdist

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
    check_overflow(sq)
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

    vertices maps key -> count in insertion order, where a key is the
    bytes of an int64 row: one slot per center, a bucket id or ZERO_ID.
    vertex_arrays turns them into arrays.
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
    def words(self) -> int:
        """The words the vertices hold: each key's int64 row and its count."""
        return len(self.vertices) * (self.k + 1)

    @cached_property
    def key_builder(self) -> "KeyBuilder":
        """The graph's own KeyBuilder, built on first use."""
        return KeyBuilder([self])

    def add_block(self, points) -> None:
        """Bucket a block of points into vertices."""
        kb = self.key_builder
        kb.bucket_block(pairwise_sqdist(as_points(points), kb.centers))
        kb.flush()

    def vertex_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The vertices in insertion order as the arrays the solvers run
        on: weights (L, k), each slot's bucket_weight, and counts (L,)."""
        slots = np.frombuffer(b"".join(self.vertices), dtype=np.int64).reshape(-1, self.k)
        # one Python pow per distinct slot: numpy's vectorized power can
        # differ in the last bit, which would move quantized costs
        ids, inverse = np.unique(slots.ravel(), return_inverse=True)
        weights = np.array([bucket_weight(i, self.epsilon) for i in ids.tolist()])
        counts = np.fromiter(self.vertices.values(), dtype=np.int64, count=slots.shape[0])
        return weights[inverse].reshape(slots.shape), counts


def distinct_centers(C) -> tuple[np.ndarray, np.ndarray]:
    """(U, col): the distinct rows U of a center matrix, in order of
    first occurrence, and the column map with C[j] == U[col[j]] bit for
    bit, so pairwise_sqdist(X, U)[:, col] == pairwise_sqdist(X, C).
    Rows are compared on their int64 bit view; np.unique(axis=0) would
    import numpy.ma on first use."""
    C = np.ascontiguousarray(as_points(C))
    first, col, _counts = _distinct_rows(C.view(np.int64))
    return C[first], col


class KeyBuilder:
    """Keys blocks of points for several graphs of one k and epsilon.

    The graphs' stacked centers are deduplicated into centers (U) with a
    column map col.  A key column is a distinct (center, floor) pair of
    the stacked graphs: its center's slot, or ZERO_ID where the squared
    distance falls below the floor.  A row table's distinct rows are
    projected onto each graph's key columns.
    """

    def __init__(self, graphs):
        k, eps = graphs[0].k, graphs[0].epsilon
        if any(g.k != k or g.epsilon != eps for g in graphs):
            raise ValueError("graphs bucketed together need the same k and epsilon")
        self.graphs, self.k, self.epsilon = graphs, k, eps
        self.centers, self.col = distinct_centers(np.vstack([g.centers for g in graphs]))
        # a floor at or below zero contracts nothing: it keys as 0.0
        below = np.repeat([max(0.0, g.contract_below) for g in graphs], k)
        pairs = np.column_stack([self.col, below.view(np.int64)])
        first, self.key_col, _counts = _distinct_rows(pairs)
        # each key column's center and floor; with no floor the key
        # columns are the distinct centers in order
        self.at, self.floor = self.col[first], below[first]
        # bucket_block's row table: a slot row's bytes -> its points
        self.table: dict = {}

    def slot_rows(self, sq: np.ndarray) -> np.ndarray:
        """The block's int64 slot rows, one per point: a bucket id or
        ZERO_ID per key column.  sq holds the block's squared distances
        to self.centers, shape (b, len(self.centers))."""
        idx, zero = bucket_indices(sq, self.epsilon)
        idx[zero] = ZERO_ID
        if (self.floor > 0.0).any():
            idx = np.where(sq[:, self.at] < self.floor, ZERO_ID, idx[:, self.at])
        return idx

    def project(self, R: np.ndarray, counts: np.ndarray):
        """Distinct slot rows R, counts[i] points on row i, under every
        graph.  Returns (keys, counts, owner): keys[i] is the key of a
        vertex of graphs[owner[i]] holding counts[i] points, graph by
        graph and in R's order of first occurrence.  With one graph,
        keys[i] is row i's vertex, since distinct rows keep distinct keys.
        """
        m, k = len(self.graphs), self.k
        # the distinct rows under every graph, graph-major
        S = R[:, self.key_col].reshape(len(R), m, k).transpose(1, 0, 2).reshape(-1, k)
        owner = np.repeat(np.arange(m), len(R))
        counts = np.tile(counts, m)
        if m > 1:
            # a graph that skips some key columns can merge distinct rows
            first, again, _rows = _distinct_rows(np.hstack([owner[:, None], S]))
            owner, S = owner[first], S[first]
            counts = np.bincount(again, weights=counts).astype(np.int64)
        S = np.ascontiguousarray(S)
        keys = S.view(np.dtype((np.void, 8 * S.shape[1]))).ravel().tolist()
        return keys, counts, owner.tolist()

    def bucket_block(self, sq: np.ndarray, bound: int | None = None) -> None:
        """Count one block's slot rows into the row table; sq as for
        slot_rows.  The table keeps rows in order of first occurrence
        over the stream, so projecting it keeps each graph's vertex
        order.  A new row that finds the table holding `bound` rows
        (default the block's) projects it first.  Call flush at the end
        of the pass."""
        M = np.ascontiguousarray(self.slot_rows(sq))
        table, b = self.table, M.shape[0] if bound is None else bound
        # a row's bytes stand for it: int64 rows are equal iff their bytes are
        rows = Counter(M.view(np.dtype((np.void, 8 * M.shape[1]))).ravel().tolist())
        for row, c in rows.items():
            if row in table:
                table[row] += c
                continue
            if len(table) >= b:
                self.flush()
            table[row] = c

    def flush(self) -> None:
        """Project the row table onto every graph's vertices and empty it."""
        if not self.table:
            return
        R = np.frombuffer(b"".join(self.table), dtype=np.int64).reshape(len(self.table), -1)
        counts = np.fromiter(self.table.values(), dtype=np.int64, count=R.shape[0])
        self.table.clear()
        keys, counts, owner = self.project(R, counts)
        for j, key, c in zip(owner, keys, counts.tolist()):
            vertices = self.graphs[j].vertices
            vertices[key] = vertices.get(key, 0) + c


def build_compressed(points, centers, epsilon: float, block: int = 1024) -> CompressedGraph:
    """One pass over points, bucketing everything against centers."""
    P = as_points(points)
    g = CompressedGraph(centers, epsilon)
    for lo in range(0, P.shape[0], block):
        g.add_block(P[lo:lo + block])
    return g


def aspect_guesses(centers, d_star: float) -> list[float]:
    """Candidate scale guesses u: all pairwise center distances, plus the
    largest nearest-center distance d_star that the scale pass computed.
    At most k^2 + 1 values (k*(k-1)/2 distinct pairs plus d_star)."""
    C = as_points(centers)
    out = []
    for i in range(C.shape[0]):
        for j in range(i + 1, C.shape[0]):
            out.append(math.sqrt(float(np.dot(C[i] - C[j], C[i] - C[j]))))
    out.append(float(d_star))
    return out


def aspect_floor(centers, d_star: float, n: int) -> float:
    """The squared-distance floor of aspect-ratio removal for n points:
    (u/n^2)^2, u the largest positive of aspect_guesses(centers, d_star)
    or 1.0 when none is."""
    if n < 1:
        raise ValueError("need n >= 1")
    u = max((g for g in aspect_guesses(centers, d_star) if g > 0), default=1.0)
    return (u / n**2) ** 2


def aspect_graph(centers, epsilon: float, d_star: float, n: int) -> CompressedGraph:
    """Empty compressed graph of n points whose keys contract below
    aspect_floor(centers, d_star, n); feed it blocks like any other
    graph."""
    return CompressedGraph(centers, epsilon, contract_below=aspect_floor(centers, d_star, n))
