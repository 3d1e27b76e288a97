"""Hyperbucket compression of a point set against a fixed center set.

Squared distances are bucketed geometrically: bucket i holds s with
(1+eps)^i <= s < (1+eps)^(i+1), and the bucket's representative weight
(1+eps)^i is within a (1+eps) factor of every member.  Exact zeros get
their own ZERO bucket with weight 0.  A point's key is its tuple of
per-center bucket ids; points sharing a key collapse into one weighted
vertex, so downstream flow problems see a graph whose size no longer
depends on n.

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

    def _keys_for(self, sq_block: np.ndarray) -> list[tuple]:
        sq = sq_block
        if self.contract_below > 0.0:
            sq = np.where(sq < self.contract_below, 0.0, sq)
        idx, zero = bucket_indices(sq, self.epsilon)
        cut = np.zeros(sq.shape, dtype=bool)
        if math.isfinite(self.cut_above):
            cut = sq > self.cut_above
            # the nearest center always survives the filter
            nearest = np.argmin(sq_block, axis=1)
            cut[np.arange(sq.shape[0]), nearest] = False
        keys = []
        for r in range(sq.shape[0]):
            keys.append(tuple(
                EXCLUDED if cut[r, j] else (ZERO_BUCKET if zero[r, j] else int(idx[r, j]))
                for j in range(sq.shape[1])
            ))
        return keys

    def key_of(self, point, group=None) -> tuple:
        """Vertex key a single point falls into (used by the assignment pass)."""
        sq = pairwise_sqdist(point, self.centers)
        return (self._keys_for(sq)[0], group)

    def add_block(self, points, groups=None) -> list[tuple]:
        """Bucket a block of points into vertices; returns their keys."""
        P = as_points(points)
        sq = pairwise_sqdist(P, self.centers)
        base = self._keys_for(sq)
        out = []
        for r, key in enumerate(base):
            full = (key, None if groups is None else int(groups[r]))
            self.vertices[full] = self.vertices.get(full, 0) + 1
            out.append(full)
        return out

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
        worst = 0.0
        for r in range(P.shape[0]):
            full = self.key_of(P[r])
            w = self.vertex_weights(full)
            for j in range(self.k):
                if not math.isfinite(w[j]):
                    continue
                s = sq[r, j] if self.contract_below == 0.0 else (
                    0.0 if sq[r, j] < self.contract_below else sq[r, j])
                if s == 0.0:
                    if w[j] != 0.0:
                        worst = math.inf
                    continue
                worst = max(worst, abs(w[j] - s) / s)
        return worst


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
