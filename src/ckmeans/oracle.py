"""Brute-force optima, trustworthy only at small n.

These are deliberately naive: exhaustive enumeration in canonical
lexicographic order, guarded by configurable size limits.  They share
the fixed-point cost quantization with the partition module (so
equality checks against the flow solvers are exact) but none of its
search machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import Dataset
from .geometry import as_points, pairwise_sqdist
from .partition import Variant, quantize_costs, semi_supervised_cost_terms


@dataclass(frozen=True)
class OracleLimit:
    max_n: int = 10
    max_k: int = 3
    max_states: int = 2_000_000


class OracleLimitError(Exception):
    """The requested enumeration exceeds the configured guard."""


def _guard(n: int, k: int, states: float, limit: OracleLimit | None) -> OracleLimit:
    lim = limit or OracleLimit()
    if n > lim.max_n:
        raise OracleLimitError(f"n={n} exceeds oracle limit {lim.max_n}")
    if k > lim.max_k:
        raise OracleLimitError(f"k={k} exceeds oracle limit {lim.max_k}")
    if states > lim.max_states:
        raise OracleLimitError(f"{states:.3g} states exceed oracle limit {lim.max_states}")
    return lim


def opt_kmeans(X, k: int, limit: OracleLimit | None = None) -> tuple[float, tuple]:
    """Exhaustive k-means optimum: min over all k^n labelings of the
    cost against per-cluster centroids.  Returns (cost, labels) with the
    lexicographically first optimal labeling as witness."""
    X = as_points(X)
    n = X.shape[0]
    if n == 0 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    _guard(n, k, float(k) ** n, limit)

    total_sq = float(np.einsum("ij,ij->", X, X))
    radix = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_cost = math.inf
    best_idx = -1
    block = 65536
    states = k**n
    for lo in range(0, states, block):
        idx = np.arange(lo, min(lo + block, states), dtype=np.int64)
        labels = (idx[:, None] // radix[None, :]) % k          # (B, n)
        onehot = labels[:, :, None] == np.arange(k)[None, None, :]
        counts = onehot.sum(axis=1)                            # (B, k)
        sums = np.einsum("bnk,nd->bkd", onehot.astype(np.float64), X)
        sq = np.einsum("bkd,bkd->bk", sums, sums)
        with np.errstate(divide="ignore", invalid="ignore"):
            per = np.where(counts > 0, sq / np.maximum(counts, 1), 0.0)
        cost = np.maximum(total_sq - per.sum(axis=1), 0.0)
        j = int(np.argmin(cost))
        if cost[j] < best_cost:
            best_cost = float(cost[j])
            best_idx = int(idx[j])
    digits = tuple(int(best_idx // r) % k for r in radix)
    return best_cost, digits


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


def _feasible(labels, variant: Variant, k: int, colors) -> bool:
    counts = [0] * k
    for lb in labels:
        counts[lb] += 1
    if variant.kind == "r_gather":
        return all(c >= variant.r for c in counts)
    if variant.kind == "r_capacity":
        return all(c <= variant.r for c in counts)
    if variant.kind == "chromatic":
        seen = set()
        for i, lb in enumerate(labels):
            key = (lb, int(colors[i]))
            if key in seen:
                return False
            seen.add(key)
    return True


def opt_constrained(data, centers, variant: Variant,
                    limit: OracleLimit | None = None,
                    precision_bits: int = 32) -> float:
    """Exhaustive constrained-assignment optimum against fixed centers.

    Scores assignments with the same fixed-point edge costs the flow
    partitioners use, so agreement can be asserted exactly.  Returns
    +inf when no assignment is feasible.
    """
    ds = data if isinstance(data, Dataset) else Dataset(as_points(data))
    C = as_points(centers)
    n, k = ds.n, C.shape[0]
    W = pairwise_sqdist(ds.points, C)

    if variant.kind == "fault_tolerant":
        l = variant.l
        if l > k:
            return math.inf
        choices = list(itertools.combinations(range(k), l))
        _guard(n, k, float(len(choices)) ** n, limit)
        w_int, scale = quantize_costs(W, precision_bits)
        best = None
        for pick in itertools.product(choices, repeat=n):
            tot = 0
            for i, own in enumerate(pick):
                for j in own:
                    tot += int(w_int[i, j])
            if best is None or tot < best:
                best = tot
        return float(best) * scale

    if variant.kind == "semi_supervised":
        if ds.targets is None:
            raise ValueError("semi_supervised needs a target column")
        _guard(n, k, float(k) ** n * math.factorial(k), limit)
        best = math.inf
        for perm in itertools.permutations(range(k)):
            M = semi_supervised_cost_terms(W, ds.targets, variant.alpha, perm)
            w_int, scale = quantize_costs(M, precision_bits)
            lo = None
            for labels in itertools.product(range(k), repeat=n):
                tot = sum(int(w_int[i, lb]) for i, lb in enumerate(labels))
                if lo is None or tot < lo:
                    lo = tot
            best = min(best, float(lo) * scale)
        return best

    if variant.kind == "chromatic" and ds.colors is None:
        raise ValueError("chromatic needs a color column")
    _guard(n, k, float(k) ** n, limit)
    w_int, scale = quantize_costs(W, precision_bits)
    best = None
    for labels in itertools.product(range(k), repeat=n):
        if not _feasible(labels, variant, k, ds.colors):
            continue
        tot = sum(int(w_int[i, lb]) for i, lb in enumerate(labels))
        if best is None or tot < best:
            best = tot
    return math.inf if best is None else float(best) * scale


def fault_tolerant_direct(X, centers, l: int) -> float:
    """Sum over points of the l smallest squared center distances; the
    closed form the reduction path must reproduce."""
    W = pairwise_sqdist(as_points(X), centers)
    if l > W.shape[1]:
        raise ValueError("l exceeds the number of centers")
    return float(np.sort(W, axis=1)[:, :l].sum())
