"""Hyperbucket compression of a point set against a fixed center set.

Squared distances are bucketed geometrically: bucket i holds s with
(1+eps)^i <= s < (1+eps)^(i+1), and the bucket's representative weight
(1+eps)^i is within a (1+eps) factor of every member.  Exact zeros get
their own slot ZERO_ID with weight 0.  A point's key is the bytes of
its int64 row: one slot per center (a bucket id or ZERO_ID), then its
group id when groups ride along; points sharing a key collapse into one
weighted vertex, so downstream flow problems see a graph whose size no
longer depends on n.  This module alone reads the key layout: the
solvers get a graph's vertices as arrays from
CompressedGraph.vertex_arrays.

A stream pass keys its blocks for every candidate graph at once, with
one KeyBuilder.  The candidates of a list share most of their centers,
so a block is measured once per distinct center: one distance matrix
and one bucketing into int64 slot rows (plus the group id when groups
ride along).  The graph pass counts the rows, keyed by their bytes,
into the pass's row table, which keeps rows in order of first
occurrence and holds at most as many as a stream block.  When it is
full, and at the end of the pass, the table is projected onto each
graph's columns and regrouped graph-major by a stable lexsort, a row
per (graph, table row) with the graph id in front.  First occurrence in
the table is first occurrence in the stream, so every graph's vertices
come out in the same order as if each block were projected alone.
The table's rows and the graphs' keys are the same kind of bytes, one
per distinct row, never per point; a single graph is the case of one.

Aspect-ratio removal is a contraction floor: squared distances below
(u/n^2)^2 count as zero for a scale guess u.  aspect_graph takes u as
the largest positive guess of aspect_guesses, 1.0 when none is
positive.  Given the largest nearest-center distance d_star, that u is
at least every center gap and every point's nearest-center distance,
so every point lies within 2u of every center: bucket ids span a range
independent of the data's aspect ratio, and every weight is finite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

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

    vertices maps key -> count in insertion order, where a key is the
    bytes of an int64 row: one slot per center (a bucket id or ZERO_ID),
    then the group, a color/target id riding along with the points, on
    graphs bucketed with groups.  vertex_arrays turns them into arrays.
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

    @cached_property
    def key_builder(self) -> "KeyBuilder":
        """The graph's own KeyBuilder, built on first use."""
        return KeyBuilder([self])

    def add_block(self, points, groups=None) -> None:
        """Bucket a block of points into vertices."""
        kb = self.key_builder
        kb.bucket_block(pairwise_sqdist(as_points(points), kb.centers), groups)
        kb.flush()

    def vertex_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The vertices in insertion order as the arrays the solvers run
        on: weights (L, k), each slot's bucket_weight; counts (L,);
        groups (L,), or None when the keys hold no group."""
        width = len(next(iter(self.vertices), bytes(8 * self.k))) // 8
        rows = np.frombuffer(b"".join(self.vertices), dtype=np.int64).reshape(-1, width)
        slots = rows[:, :self.k]
        # one Python pow per distinct slot: numpy's vectorized power can
        # differ in the last bit, which would move quantized costs
        ids, inverse = np.unique(slots.ravel(), return_inverse=True)
        weights = np.array([bucket_weight(i, self.epsilon) for i in ids.tolist()])
        counts = np.fromiter(self.vertices.values(), dtype=np.int64, count=rows.shape[0])
        groups = rows[:, self.k] if width > self.k else None
        return weights[inverse].reshape(slots.shape), counts, groups


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

    The graphs' stacked centers are deduplicated once into centers (U)
    with a column map col, so a block is measured and bucketed once per
    distinct center; its distinct rows, or a row table's, are then
    projected onto each graph's columns.  A graph's floor applies in
    the same rows: each distinct center takes the lowest floor of
    its graphs before bucketing, and a center whose graphs have higher
    floors gets one more column, the count of those floors at or below
    the squared distance; a graph's slot is zero where that count falls
    short of its floor's rank.
    """

    def __init__(self, graphs):
        k, eps = graphs[0].k, graphs[0].epsilon
        if any(g.k != k or g.epsilon != eps for g in graphs):
            raise ValueError("graphs bucketed together need the same k and epsilon")
        self.graphs, self.k, self.epsilon = graphs, k, eps
        self.centers, self.col = distinct_centers(np.vstack([g.centers for g in graphs]))
        width = self.centers.shape[0]
        below = np.repeat([g.contract_below for g in graphs], k)
        floors = [sorted(set(below[self.col == u].tolist())) for u in range(width)]
        lowest = np.array([f[0] for f in floors])
        self.lowest = lowest if (lowest > 0.0).any() else None
        # per distinct center with several floors: its higher floors, and
        # the key column counting them
        self.steps = [(u, np.array(f[1:])) for u, f in enumerate(floors) if len(f) > 1]
        count_col = {u: width + i for i, (u, _f) in enumerate(self.steps)}
        rank = np.array([floors[u].index(f) for u, f in zip(self.col.tolist(), below.tolist())])
        self.floored = np.flatnonzero(rank > 0)    # stacked columns a count can zero
        self.count_of = np.array([count_col[u] for u in self.col[self.floored].tolist()],
                                 dtype=np.int64)
        self.rank = rank[self.floored]
        # bucket_block's row table: a slot row's bytes -> its points, and
        # whether its rows end in a group (None before the first block)
        self.table: dict = {}
        self.grouped = None

    def slot_rows(self, sq: np.ndarray, groups=None) -> np.ndarray:
        """The block's int64 slot rows, one per point: a bucket id or
        ZERO_ID per distinct center under its lowest floor, a count
        column per center with higher floors, and the group last when
        groups ride along.  sq holds the block's squared distances to
        self.centers, shape (b, len(self.centers))."""
        if self.lowest is not None:
            sq = np.where(sq < self.lowest, 0.0, sq)
        idx, zero = bucket_indices(sq, self.epsilon)
        idx[zero] = ZERO_ID
        cols = [idx] + [np.searchsorted(f, sq[:, u], side="right")[:, None]
                        for u, f in self.steps]
        if groups is not None:
            cols.append(np.asarray(groups).astype(np.int64)[:, None])
        return np.hstack(cols) if len(cols) > 1 else idx

    def project(self, R: np.ndarray, counts: np.ndarray, grouped: bool):
        """Distinct slot rows R, counts[i] points on row i, under every
        graph.  Returns (keys, counts, owner): keys[i] is the key of a
        vertex of graphs[owner[i]] holding counts[i] points, graph by
        graph and in R's order of first occurrence.  With one graph,
        keys[i] is row i's vertex: the graph reads every distinct center
        under its one floor, so distinct rows keep distinct keys.
        """
        m, k = len(self.graphs), self.k
        D = R.shape[0]
        slots = R[:, self.col]
        if self.floored.size:
            part = slots[:, self.floored]
            part[R[:, self.count_of] < self.rank] = ZERO_ID
            slots[:, self.floored] = part
        # the D distinct rows under every graph, graph-major, each key's
        # slots then its group
        S = slots.reshape(D, m, k).transpose(1, 0, 2).reshape(m * D, k)
        if grouped:
            S = np.hstack([S, np.tile(R[:, -1:], (m, 1))])
        owner = np.repeat(np.arange(m), D)
        counts = np.tile(counts, m)
        if m > 1:
            # a graph that skips some distinct centers, or zeroes one
            # below its floor, can merge distinct rows
            first, again, _rows = _distinct_rows(np.hstack([owner[:, None], S]))
            owner, S = owner[first], S[first]
            counts = np.bincount(again, weights=counts).astype(np.int64)
        S = np.ascontiguousarray(S)
        keys = S.view(np.dtype((np.void, 8 * S.shape[1]))).ravel().tolist()
        return keys, counts, owner.tolist()

    def bucket_block(self, sq: np.ndarray, groups=None, bound: int | None = None) -> None:
        """Count one block's slot rows into the row table; sq as for
        slot_rows.  The table keeps rows in order of first occurrence
        over the stream, so projecting it keeps each graph's vertex
        order.  A new row that finds the table holding `bound` rows
        (default the block's) projects it first.  Keys with and without
        a group cannot share a graph: a builder given blocks with groups
        and blocks without raises ValueError.  Call flush at the end of
        the pass."""
        if self.grouped is None:
            self.grouped = groups is not None
        elif self.grouped != (groups is not None):
            raise ValueError("blocks bucketed together need groups on all of them or none")
        M = np.ascontiguousarray(self.slot_rows(sq, groups))
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
        keys, counts, owner = self.project(R, counts, self.grouped)
        for j, key, c in zip(owner, keys, counts.tolist()):
            vertices = self.graphs[j].vertices
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


def aspect_graph(centers, epsilon: float, d_star: float, n: int) -> CompressedGraph:
    """Empty compressed graph of n points whose keys contract below
    u/n^2, u the largest positive of aspect_guesses(centers, d_star) or
    1.0 when none is; feed it blocks like any other graph."""
    if n < 1:
        raise ValueError("need n >= 1")
    u = max((g for g in aspect_guesses(centers, d_star) if g > 0), default=1.0)
    return CompressedGraph(centers, epsilon, contract_below=(u / n**2) ** 2)
