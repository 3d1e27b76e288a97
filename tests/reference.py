"""Reference code the tests trust the package by, and no pipeline runs.

Brute-force optima in exact arithmetic, per-point checkers and scalar
forms of vectorized steps.  The name does not start with test_, so
pytest imports this module from the tests but never collects it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from ckmeans import streaming
from ckmeans.data import Dataset
from ckmeans.geometry import as_points, pairwise_sqdist
from ckmeans.hyperbucket import _distinct_rows
from ckmeans.oracle import OracleLimit, _guard
from ckmeans.partition import (
    Assignment,
    InfeasiblePartitionError,
    Variant,
    check_precision_bits,
    partition_assign,
    partition_cost,
)
from ckmeans.stability import cluster_stats


# geometry --------------------------------------------------------------------

def squared_dist(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.dot(d, d))


def voronoi_labels(X, C) -> np.ndarray:
    """Index of the nearest center per point; ties go to the lowest index."""
    return np.argmin(pairwise_sqdist(X, C), axis=1)


def voronoi_partition(X, C) -> tuple[np.ndarray, float]:
    """Nearest-center assignment.  Returns (labels, total cost)."""
    D = pairwise_sqdist(X, C)
    labels = np.argmin(D, axis=1)
    cost = float(D[np.arange(len(labels)), labels].sum())
    return labels, cost


# sampling --------------------------------------------------------------------

class Reservoir:
    """Single-slot weighted reservoir over one pass of a stream."""

    def __init__(self):
        self.held = None  # (index, item) once any positive weight arrives
        self.weight_sum = 0.0

    def offer(self, item, weight: float, rng, index=None):
        if not (weight >= 0.0) or not np.isfinite(weight):
            raise ValueError("weight must be finite and non-negative")
        self.weight_sum += weight
        # replace with probability weight / weight_sum; zero weight never wins
        if weight > 0.0 and rng.random() * self.weight_sum < weight:
            self.held = (index, item)
        return self


# seeding ---------------------------------------------------------------------

def d2_seed_choice(X, k: int, oversample: int, rng, weights=None) -> tuple[np.ndarray, float]:
    """D^2 seeding as the package first wrote it: every draw through
    rng.choice(n, p=p), each distance through pairwise_sqdist.
    Returns (centers, cost)."""
    X = as_points(X)
    n = X.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if oversample >= n:
        return X.copy(), 0.0
    first = int(rng.choice(n, p=w / w.sum()))
    chosen = [first]
    pot = w * pairwise_sqdist(X, X[first]).ravel()
    for _ in range(oversample - 1):
        total = pot.sum()
        if not np.isfinite(total):
            raise ValueError("a squared distance overflows float64")
        p = (w / w.sum()) if total == 0.0 else (pot / total)
        nxt = int(rng.choice(n, p=p))
        chosen.append(nxt)
        pot = np.minimum(pot, w * pairwise_sqdist(X, X[nxt]).ravel())
    return X[chosen].copy(), float(pot.sum())


def merge_reduce_seed_choice(X, k: int, chunk: int, rng,
                             meter=None) -> tuple[np.ndarray, float, np.ndarray]:
    """merge_reduce_seed over one array through d2_seed_choice: each
    chunk's centers weighted by their Voronoi counts (ties to the lowest
    center), then one weighted seeding of their union.  Returns (centers,
    cost, labels), labels the Voronoi labels of the rows the last seeding
    ran on; meter is charged chunk by chunk as merge_reduce_seed charges it."""
    X = as_points(X)
    centers, counts = [], []
    for lo in range(0, X.shape[0], chunk):
        P = X[lo:lo + chunk]
        C, cost = d2_seed_choice(P, k, 2 * k, rng)
        if meter is not None:
            meter.alloc_points(len(P) + len(C))
            meter.free_points(len(P))
        labels = voronoi_labels(P, C)
        if X.shape[0] <= chunk:
            return C, cost, labels
        centers.append(C)
        counts.append(np.bincount(labels, minlength=C.shape[0]).astype(np.float64))
    union = np.vstack(centers)
    C, cost = d2_seed_choice(union, k, 2 * k, rng, np.concatenate(counts))
    if meter is not None:
        meter.free_points(len(union))
        meter.alloc_points(len(C))
    return C, cost, voronoi_labels(union, C)


# hyperbucket -----------------------------------------------------------------

def vertex_key(key: bytes) -> tuple:
    """A graph's vertex key read back as the tuple of its slots."""
    return tuple(np.frombuffer(key, dtype=np.int64).tolist())


def vertex_items(graph) -> list:
    """graph.vertices in order as (vertex_key, count) pairs."""
    return [(vertex_key(key), c) for key, c in graph.vertices.items()]


def row_keys(graph, points) -> list:
    """The vertex key of each point under graph, keyed the way
    CompressedSolution.assign_block keys its rows: the graph's own
    KeyBuilder groups the slot rows and projects the distinct ones."""
    kb = graph.key_builder
    M = kb.slot_rows(pairwise_sqdist(as_points(points), kb.centers))
    first, inverse, counts = _distinct_rows(M)
    keys, _counts, _owner = kb.project(M[first], counts)
    return [keys[i] for i in inverse.tolist()]


def max_weight_error(graph, points) -> float:
    """Largest relative gap between a member's true squared distance
    and its bucket weight; diagnostic for the soundness invariant."""
    sq = pairwise_sqdist(as_points(points), graph.centers)
    keys = row_keys(graph, points)
    probe = replace(graph, vertices=dict.fromkeys(keys, 1))
    row = {key: i for i, key in enumerate(probe.vertices)}
    w = probe.vertex_arrays()[0][[row[key] for key in keys]]
    s = np.where(sq < graph.contract_below, 0.0, sq)
    if ((s == 0.0) & (w != 0.0)).any():
        return math.inf
    live = s != 0.0
    return float((np.abs(w[live] - s[live]) / s[live]).max(initial=0.0))


# partition -------------------------------------------------------------------

def fault_tolerant_reduce(ds: Dataset, l: int) -> Dataset:
    """l replicas per point, contiguous, with a fresh color per original
    point; solving the resulting chromatic instance spreads each point's
    replicas over l distinct centers."""
    if l < 1:
        raise ValueError("need l >= 1")
    pts = np.repeat(ds.points, l, axis=0)
    colors = np.repeat(np.arange(ds.n, dtype=np.int64), l)
    return Dataset(pts, colors, None)


def assignment_valid(assignment: Assignment, variant: Variant, n: int, k: int,
                     colors=None, targets=None) -> tuple[bool, list]:
    """Structural and constraint checks for an assignment; returns
    (ok, list of violation descriptions)."""
    bad = []
    if len(assignment.owners) != n:
        return False, [f"expected {n} owner tuples, got {len(assignment.owners)}"]
    want = variant.l if variant.kind == "fault_tolerant" else 1
    per_center = np.zeros(k, dtype=np.int64)
    seen_color = {}
    for i, own in enumerate(assignment.owners):
        if len(own) != want or len(set(own)) != len(own) or tuple(sorted(own)) != tuple(own):
            bad.append(f"point {i}: owner tuple {own} malformed")
            continue
        for j in own:
            if not (0 <= j < k):
                bad.append(f"point {i}: center {j} out of range")
                continue
            per_center[j] += 1
            if variant.kind == "chromatic":
                key = (j, int(colors[i]))
                seen_color[key] = seen_color.get(key, 0) + 1
    if variant.kind == "r_gather":
        for j in range(k):
            if per_center[j] < variant.r:
                bad.append(f"center {j} has {per_center[j]} < r={variant.r} points")
    if variant.kind == "r_capacity":
        for j in range(k):
            if per_center[j] > variant.r:
                bad.append(f"center {j} has {per_center[j]} > r={variant.r} points")
    if variant.kind == "chromatic":
        for (j, c), cnt in seen_color.items():
            if cnt > 1:
                bad.append(f"center {j} holds {cnt} points of color {c}")
    return (not bad), bad


# pipelines -------------------------------------------------------------------

def batch_solve_scoring_all(data, k: int, variant: Variant, cfg, rng, *,
                            select_mode: str = "argmin", precision_bits: int = 32):
    """streaming.batch_solve with every candidate solved exactly, in index
    order: the scoring that bound-ordered pruning must agree with.  Its
    steps are read off the streaming module, so a test that patches one
    there patches it here too."""
    streaming._check_t(cfg, k)
    check_precision_bits(precision_bits)
    ds = data if isinstance(data, Dataset) else Dataset(as_points(data))
    if ds.n < k:
        raise ValueError(f"stream has {ds.n} points, need at least k={k}")
    seed = streaming.d2_seed(ds.points, k, rng=rng)
    cands = streaming.good_centers(ds.points, seed.centers, cfg, rng)
    if not len(cands):
        raise InfeasiblePartitionError("candidate list came back empty")
    costs = np.array([partition_cost(ds, e.centers, variant, precision_bits=precision_bits)
                      for e in cands.entries])
    winner = streaming.select_best(costs, select_mode, cfg.epsilon)
    asg = partition_assign(ds, cands.entries[winner].centers, variant,
                           precision_bits=precision_bits)
    return streaming.BatchResult(cands.entries[winner].centers, asg.owners, asg.cost,
                                 float(costs[winner]), winner, seed.cost, cands)


# oracle ----------------------------------------------------------------------

def opt_kmeans_exact(points, k: int, limit: OracleLimit | None = None) -> tuple[Fraction, tuple]:
    """opt_kmeans over exact rational coordinates (lists of Fractions)."""
    pts = [tuple(Fraction(v) for v in row) for row in points]
    n = len(pts)
    if n == 0 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    _guard(n, k, float(k) ** n, limit)
    d = len(pts[0])
    sq = [sum(v * v for v in p) for p in pts]
    best = None
    for labels in itertools.product(range(k), repeat=n):
        cost = Fraction(0)
        for c in range(k):
            members = [i for i, lb in enumerate(labels) if lb == c]
            if not members:
                continue
            m = len(members)
            sums = [sum(pts[i][j] for i in members) for j in range(d)]
            cost += sum(sq[i] for i in members) - sum(s * s for s in sums) / m
        if best is None or cost < best[0]:
            best = (cost, labels)
    return best


def cluster_cost_exact(points, labels, centers=None) -> Fraction:
    """Exact cost of a fixed labeling; centers default to the centroids."""
    pts = [tuple(Fraction(v) for v in row) for row in points]
    n, d = len(pts), len(pts[0])
    ks = sorted(set(labels))
    total = Fraction(0)
    for c in ks:
        members = [i for i in range(n) if labels[i] == c]
        if not members:
            continue
        if centers is None:
            m = len(members)
            ctr = [sum(pts[i][j] for i in members) / m for j in range(d)]
        else:
            ctr = [Fraction(v) for v in centers[c]]
        for i in members:
            total += sum((pts[i][j] - ctr[j]) ** 2 for j in range(d))
    return total


def fault_tolerant_direct(X, centers, l: int) -> float:
    """Sum over points of the l smallest squared center distances; the
    closed form the reduction path must reproduce."""
    W = pairwise_sqdist(as_points(X), centers)
    if l > W.shape[1]:
        raise ValueError("l exceeds the number of centers")
    return float(np.sort(W, axis=1)[:, :l].sum())


# stability -------------------------------------------------------------------

def deletion_cost(X, labels, i: int, j: int) -> float:
    """Cost of the optimal clustering after cluster i is deleted and its
    points handed wholesale to center j: OPT + |X_i| * ||mu_i - mu_j||^2."""
    _parts, sizes, means, _deltas, opt = cluster_stats(X, labels)
    if i == j:
        raise ValueError("need two distinct clusters")
    gap = means[i] - means[j]
    return opt + sizes[i] * float(np.dot(gap, gap))
