"""Brute-force optima, trustworthy only at small n.

These are deliberately naive: exhaustive enumeration in canonical
lexicographic order, guarded by configurable size limits.  They share
the partition module's cost rules, the fixed-point quantization of the
flows and the float running sums of the closed forms, so equality
checks against its solvers are exact, but none of its search machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import Dataset
from .geometry import as_points, pairwise_sqdist
from .partition import (CLOSED_FORM, Variant, quantize_costs, semi_supervised_cost_terms,
                        target_matchings, variant_groups)


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


def _exact(M) -> list:
    """M's float entries as Python ints over one power-of-two denominator:
    their sums compare exactly, as Fractions would."""
    den = max((v.as_integer_ratio()[1] for v in M.ravel().tolist()), default=1)
    return [[int(Fraction(v) * den) for v in row] for row in M.tolist()]


def opt_constrained(data, centers, variant: Variant,
                    limit: OracleLimit | None = None,
                    precision_bits: int = 32) -> float:
    """Exhaustive constrained-assignment optimum against fixed centers,
    or +inf when no assignment is feasible.

    r_gather, r_capacity and chromatic are scored with the fixed-point
    edge costs the flow partitioners use, so agreement can be asserted
    exactly.  The closed forms are scored on their float costs: the
    labeling (owner sets of l centers under fault_tolerant) of least
    exact total, the first in enumeration order on ties, reported as its
    running sum in point order, then owner order, as the pipelines sum
    it.  semi_supervised does so under each matching of targets to
    centers and reports the least of those sums, the first on ties.
    """
    ds = data if isinstance(data, Dataset) else Dataset(as_points(data))
    C = as_points(centers)
    n, k = ds.n, C.shape[0]
    W = pairwise_sqdist(ds.points, C)
    groups = variant_groups(variant, ds.colors, ds.targets)
    closed = variant.kind in CLOSED_FORM
    l = variant.l if variant.kind == "fault_tolerant" else 1
    if l > k:
        return math.inf
    choices = list(itertools.combinations(range(k), l))
    perms = target_matchings(variant, k)
    _guard(n, k, float(len(choices)) ** n * len(perms), limit)
    best = math.inf
    for perm in perms:
        M = W if perm is None else semi_supervised_cost_terms(W, groups, variant.alpha, perm)
        if closed:
            costs = _exact(M)
        else:
            w_int, scale = quantize_costs(M, precision_bits)
            costs = w_int.tolist()
        pick = None
        for owners in itertools.product(choices, repeat=n):
            if not (closed or _feasible([j for (j,) in owners], variant, k, groups)):
                continue
            tot = sum(costs[i][j] for i, own in enumerate(owners) for j in own)
            if pick is None or tot < pick[0]:
                pick = (tot, owners)
        if pick is None:
            continue
        if closed:
            value = 0.0
            for i, own in enumerate(pick[1]):
                for j in own:
                    value += float(M[i, j])
        else:
            value = float(pick[0]) * scale
        best = min(best, value)
    return best
