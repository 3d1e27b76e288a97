"""Hyperbucket compression of a point set against a fixed center set.

Squared distances are bucketed geometrically: bucket i holds s with
(1+eps)^i <= s < (1+eps)^(i+1), and the bucket's representative weight
(1+eps)^i is within a (1+eps) factor of every member.  Exact zeros get
their own ZERO bucket with weight 0.  A point's key is its tuple of
per-center bucket ids; points sharing a key collapse into one weighted
vertex, so downstream flow problems see a graph whose size no longer
depends on n.

A stream pass keys a block for every candidate graph at once: one
distance matrix against all graphs' centers stacked, one bucketing of
it, and one int64 key matrix laid out graph-major, a row per (graph,
point).  A row holds the graph id, then per center the bucket id or the
sentinel ZERO_ID (exact zero) or EXCLUDED_ID (cut center), then the
group id when groups ride along.  Equal rows are found with one stable
lexsort, so Python objects are built once per distinct vertex of a
block, never per point; a single graph is the case of one.  The tuple
form, with ZERO_BUCKET and EXCLUDED in the slots, is kept only as the
public vertex key.

Aspect-ratio removal replaces raw bucket ids with contracted ones:
given a scale guess u, squared distances below (u/n^2)^2 are treated as
zero and centers farther than 4u (other than the nearest) are cut from
the key entirely, which caps the spread of bucket ids independently of
the data's aspect ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points, pairwise_sqdist

# key slot markers: ZERO_BUCKET for exact zero distance, EXCLUDED for a
# center cut by the aspect-removal filter
ZERO_BUCKET = None
EXCLUDED = "cut"
# the same markers in a block's int64 key matrix; no bucket id reaches them
ZERO_ID = np.iinfo(np.int64).min
EXCLUDED_ID = ZERO_ID + 1
_SLOTS = {ZERO_ID: ZERO_BUCKET, EXCLUDED_ID: EXCLUDED}


def bucket_index(sqdist: float, epsilon: float):
    """Bucket id i with (1+eps)^i <= sqdist < (1+eps)^(i+1).

    The lower boundary is inclusive; 0.0 maps to ZERO_BUCKET.
    """
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if not (sqdist >= 0) or not math.isfinite(sqdist):
        raise ValueError("squared distance must be finite and non-negative")
    if sqdist == 0.0:
        return ZERO_BUCKET
    b = 1.0 + epsilon
    i = int(math.floor(math.log(sqdist) / math.log(b)))
    while b ** (i + 1) <= sqdist:
        i += 1
    while b**i > sqdist:
        i -= 1
    return i


def bucket_weight(index, epsilon: float) -> float:
    """Representative squared distance of a bucket id (0.0 for ZERO_BUCKET)."""
    if index is ZERO_BUCKET:
        return 0.0
    return (1.0 + epsilon) ** index


def bucket_indices(sq: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bucket_index.  Returns (ids, zero_mask); ids where zero_mask is junk."""
    sq = np.asarray(sq, dtype=np.float64)
    if not np.all(np.isfinite(sq)) or np.any(sq < 0):
        raise ValueError("squared distances must be finite and non-negative")
    zero = sq == 0.0
    b = 1.0 + epsilon
    safe = np.where(zero, 1.0, sq)
    idx = np.floor(np.log(safe) / math.log(b)).astype(np.int64)
    # float log can land one bucket off in either direction; nudge until exact
    for _ in range(4):
        lo = b ** idx.astype(np.float64)
        too_high = ~zero & (lo > safe)
        too_low = ~zero & (b ** (idx + 1.0) <= safe)
        if not (too_high.any() or too_low.any()):
            break
        idx[too_high] -= 1
        idx[too_low] += 1
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

    vertices maps (key, group) -> count where key is a tuple with one
    slot per center (a bucket id, ZERO_BUCKET, or EXCLUDED) and group is
    an optional color/target id riding along with the points.
    """

    centers: np.ndarray
    epsilon: float
    contract_below: float = 0.0  # squared-distance floor; below it counts as zero
    cut_above: float = math.inf  # squared-distance ceiling; beyond it centers are cut
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

    def vertex_weights(self, full_key) -> np.ndarray:
        """Representative squared distance per center for one vertex.

        Cut centers get +inf, which downstream partitioners treat as a
        forbidden edge.
        """
        key, _group = full_key
        w = np.empty(self.k)
        for j, slot in enumerate(key):
            if slot is EXCLUDED:
                w[j] = math.inf
            else:
                w[j] = bucket_weight(slot, self.epsilon)
        return w

    def items(self) -> list[tuple[tuple, int]]:
        """Vertices in insertion order as (full_key, count)."""
        return list(self.vertices.items())

    def max_weight_error(self, points) -> float:
        """Largest relative gap between a member's true squared distance
        and its bucket weight; diagnostic for the soundness invariant."""
        P = as_points(points)
        sq = pairwise_sqdist(P, self.centers)
        keys, inverse, _counts, _owner = block_keys([self], sq)
        if not keys:
            return 0.0
        w = np.array([self.vertex_weights(key) for key in keys])[inverse]
        s = np.where(sq < self.contract_below, 0.0, sq)
        live = np.isfinite(w)
        if (live & (s == 0.0) & (w != 0.0)).any():
            return math.inf
        live &= s != 0.0
        return float((np.abs(w[live] - s[live]) / s[live]).max(initial=0.0))


def block_keys(graphs, sq: np.ndarray, groups=None):
    """Distinct vertex keys of one block under each of several graphs.

    The graphs share k and epsilon.  sq holds the block's squared
    distances to their centers stacked in graph order, shape (b, m*k).
    Each graph's contract_below and cut_above apply by broadcasting, and
    each graph's nearest center survives its cut.  The key matrix is
    laid out graph-major, a row per (graph, point) with the graph id in
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
    raw = sq.reshape(b, m, k)
    s = raw
    below = np.array([g.contract_below for g in graphs])
    if (below > 0.0).any():
        s = np.where(raw < below[:, None], 0.0, raw)
    idx, zero = bucket_indices(s, eps)
    idx[zero] = ZERO_ID
    above = np.array([g.cut_above for g in graphs])
    if np.isfinite(above).any():
        cut = s > above[:, None]
        # the nearest center always survives the filter
        np.put_along_axis(cut, raw.argmin(axis=2)[:, :, None], False, axis=2)
        idx[cut] = EXCLUDED_ID
    cols = [np.repeat(np.arange(m, dtype=np.int64), b)[:, None],
            idx.transpose(1, 0, 2).reshape(m * b, k)]
    if groups is not None:
        cols.append(np.tile(np.asarray(groups).astype(np.int64), m)[:, None])
    M = np.hstack(cols)
    first, inverse, counts = _distinct_rows(M)
    rows = M[first].tolist()
    keys = [(tuple(map(_SLOTS.get, row[1:k + 1], row[1:k + 1])),
             None if groups is None else row[k + 1])
            for row in rows]
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
    """Empty compressed graph whose keys contract below u/n^2 and cut
    centers beyond 4u; feed it blocks like any other graph."""
    if not (u > 0) or n < 1:
        raise ValueError("need a positive scale guess and n >= 1")
    return CompressedGraph(
        centers, epsilon,
        contract_below=(u / n**2) ** 2,
        cut_above=(4.0 * u) ** 2,
    )


def aspect_key_survives(point, centers, u: float, n: int, assign_to: int) -> bool:
    """Whether assigning point to center index assign_to survives the
    4u cut for scale guess u (the nearest center always survives)."""
    sq = pairwise_sqdist(point, centers)[0]
    if assign_to == int(np.argmin(sq)):
        return True
    return sq[assign_to] <= (4.0 * u) ** 2
