"""Clustering-stability conditions and the solver that exploits them.

Three nested conditions on an instance with optimal k-clustering cost
OPT_k (vacuous comparisons pass when the right-hand side is 0):

  irreducible(gamma)    OPT_{k-1} >= (1 + gamma) * OPT_k
  weak_deletion(gamma)  moving any optimal cluster i wholesale onto
                        another optimal center j costs
                        OPT + |X_i| * ||mu_i - mu_j||^2 > (1+gamma) * OPT
  distributed(beta)     every point outside optimal cluster i satisfies
                        ||x - mu_i||^2 >= beta * OPT / |X_i|

irreducible(g) implies weak_deletion(g) implies distributed(g/4).

faster_ptas splits optimal clusters into cheap (tiny Delta) and
expensive ones, guesses centers for the at most ceil(4^6 / (beta eps))
expensive clusters from a candidate list, and delegates the cheap rest
to a pluggable solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .data import Dataset
from .geometry import as_points, centroid, delta_cost, pairwise_sqdist, phi_cost
from .listgen import GoodCentersConfig, good_centers
from .oracle import OracleLimit, opt_kmeans
from .seeding import d2_seed

EXPENSIVE_DENOM = 4**6  # threshold scale for the cheap/expensive split


@dataclass
class StabilityReport:
    passed: bool
    margin: float                  # largest parameter this instance satisfies
    witnesses: list = field(default_factory=list)


def check_non_negative(name: str, value: float) -> None:
    if not value >= 0:   # NaN fails too
        raise ValueError(f"{name} must be non-negative, got {value}")


def cluster_stats(X, labels):
    """(parts, sizes, means, deltas, opt_cost) for a fixed labeling."""
    X = as_points(X)
    labels = np.asarray(labels)
    ids = sorted(set(int(v) for v in labels))
    parts, sizes, means, deltas = [], [], [], []
    for c in ids:
        members = np.flatnonzero(labels == c)
        P = X[members]
        parts.append(members)
        sizes.append(len(members))
        means.append(centroid(P))
        deltas.append(delta_cost(P))
    return parts, sizes, np.array(means), deltas, float(sum(deltas))


def check_weak_deletion(X, labels, gamma: float) -> StabilityReport:
    """All pairwise deletion costs must exceed (1 + gamma) * OPT strictly."""
    check_non_negative("gamma", gamma)
    _parts, sizes, means, _deltas, opt = cluster_stats(X, labels)
    kk = len(sizes)
    margin = math.inf
    witnesses = []
    for i in range(kk):
        for j in range(kk):
            if i == j:
                continue
            gap = means[i] - means[j]
            moved = opt + sizes[i] * float(np.dot(gap, gap))
            if opt > 0:
                margin = min(margin, moved / opt - 1.0)
            elif moved <= 0:
                margin = min(margin, 0.0)  # coincident centers, fails any gamma
            if moved <= (1.0 + gamma) * opt:
                witnesses.append((i, j, moved))
    return StabilityReport(not witnesses, margin, witnesses)


def check_beta_distributed(X, labels, beta: float) -> StabilityReport:
    """Every outside point must sit at least beta * OPT / |X_i| from mu_i."""
    check_non_negative("beta", beta)
    X = as_points(X)
    _parts, sizes, means, _deltas, opt = cluster_stats(X, labels)
    kk = len(sizes)
    margin = math.inf
    witnesses = []
    # each point's cluster index, clusters in cluster_stats' sorted label order
    owner = np.unique(np.asarray(labels), return_inverse=True)[1]
    sq = pairwise_sqdist(X, means)
    for i in range(kk):
        outside = np.flatnonzero(owner != i)
        lhs = sq[outside, i]
        if opt > 0:
            margin = min(margin, (lhs * sizes[i] / opt).min(initial=math.inf))
        elif (lhs == 0.0).any():
            margin = min(margin, 0.0)
        for x in outside[lhs < beta * opt / sizes[i]].tolist():
            witnesses.append((i, int(owner[x]), x))
    return StabilityReport(not witnesses, margin, witnesses)


def check_irreducible(X, k: int, gamma: float,
                      limit: OracleLimit | None = None) -> StabilityReport:
    """OPT_{k-1} >= (1 + gamma) * OPT_k, optima by brute force."""
    if k < 2:
        raise ValueError("irreducibility needs k >= 2")
    check_non_negative("gamma", gamma)
    opt_k, _ = opt_kmeans(X, k, limit)
    opt_km1, _ = opt_kmeans(X, k - 1, limit)
    margin = math.inf if opt_k == 0 else opt_km1 / opt_k - 1.0
    ok = opt_km1 >= (1.0 + gamma) * opt_k
    return StabilityReport(ok, margin, [] if ok else [(opt_km1, opt_k)])


# ---------------------------------------------------------------------------
# the two-cluster gap instance (exact rational arithmetic)

@dataclass
class GapInstance:
    dataset: Dataset
    exact_points: list              # rows of Fractions
    epsilon: Fraction
    opt_cost: Fraction              # = n - 2
    merged_cost: Fraction           # = n * (1 + 2 eps^2)
    labels: tuple                   # the optimal split


def gap_instance(n: int, epsilon=Fraction(1, 10)) -> GapInstance:
    """n points (n even) in n+1 dimensions: point i has coordinate i set
    to 1 and the last coordinate +eps (first half) or -eps (second
    half).  The optimal 2-clustering is the half split at cost exactly
    n - 2; merging everything onto one optimal center costs exactly
    n * (1 + 2 eps^2).  Weak-deletion stability of the instance is
    therefore decided by the ratio n(1 + 2 eps^2) / (n - 2)."""
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    eps = Fraction(epsilon)
    pts = []
    for i in range(n):
        row = [Fraction(0)] * (n + 1)
        row[i] = Fraction(1)
        row[n] = eps if i < n // 2 else -eps
        pts.append(row)
    ds = Dataset(np.array([[float(v) for v in row] for row in pts]))
    labels = tuple([0] * (n // 2) + [1] * (n // 2))
    return GapInstance(
        dataset=ds,
        exact_points=pts,
        epsilon=eps,
        opt_cost=Fraction(n - 2),
        merged_cost=n * (1 + 2 * eps**2),
        labels=labels,
    )


def gap_merged_cost_exact(inst: GapInstance) -> Fraction:
    """Recompute the one-sided deletion cost of the gap instance from
    scratch: assign every point to the second half's centroid."""
    pts = inst.exact_points
    n = len(pts)
    d = n + 1
    half = [i for i in range(n) if inst.labels[i] == 1]
    mu = [sum(pts[i][j] for i in half) / len(half) for j in range(d)]
    total = Fraction(0)
    for i in range(n):
        total += sum((pts[i][j] - mu[j]) ** 2 for j in range(d))
    return total


# ---------------------------------------------------------------------------
# cheap/expensive split and the stability-aware solver

def cheap_expensive_split(X, labels, beta: float, epsilon: float):
    """Indices of expensive and cheap optimal clusters.

    A cluster is cheap when Delta(X_i) <= beta * eps * OPT / 4^6; an
    averaging argument caps the expensive count at ceil(4^6/(beta eps)).
    Returns (expensive_ids, cheap_ids, threshold)."""
    if not (beta > 0 and epsilon > 0):
        raise ValueError("need positive beta and epsilon")
    _parts, _sizes, _means, deltas, opt = cluster_stats(X, labels)
    threshold = beta * epsilon * opt / EXPENSIVE_DENOM
    expensive = [i for i, dd in enumerate(deltas) if dd > threshold]
    cheap = [i for i, dd in enumerate(deltas) if dd <= threshold]
    return expensive, cheap, threshold


def expensive_budget(beta: float, epsilon: float) -> int:
    return math.ceil(EXPENSIVE_DENOM / (beta * epsilon))


def brute_force_cheap_solver(reference_labels=None, limit: OracleLimit | None = None,
                             beta: float = 0.5):
    """Stand-in cheap-cluster solver, valid only at desk scale.

    Extends the guessed expensive centers q_init with the centroids of
    the reference optimum's cheap clusters (the reference labeling comes
    from a fixture, or from the brute-force oracle when n is small
    enough), trims back to k centers by exhaustive subset choice, and
    succeeds when the result is within (1 + eps) of the reference cost.
    """

    def solve(X, k, epsilon, q_init):
        X = as_points(X)
        if reference_labels is None:
            ref_cost, ref_labels = opt_kmeans(X, k, limit)
            means = cluster_stats(X, ref_labels)[2]
        else:
            ref_labels = np.asarray(reference_labels)
            _parts, _sizes, means, _deltas, ref_cost = cluster_stats(X, ref_labels)
        _exp, cheap, _thr = cheap_expensive_split(X, ref_labels, beta, epsilon)
        pool = [np.asarray(q) for q in q_init] + [means[i] for i in cheap]
        if not pool:
            return None
        pool = np.vstack([p.reshape(1, -1) if p.ndim == 1 else p for p in pool])
        if pool.shape[0] <= k:
            C = pool
        else:
            best = None
            for pick in combinations(range(pool.shape[0]), k):
                c = pool[list(pick)]
                cost = phi_cost(c, X)
                if best is None or cost < best[0]:
                    best = (cost, c)
            C = best[1]
        if phi_cost(C, X) <= (1.0 + epsilon) * ref_cost:
            return C
        return None

    return solve


@dataclass
class PTASResult:
    centers: np.ndarray | None
    cost: float
    succeeded: bool
    candidates_tried: int


def faster_ptas(X, k: int, epsilon: float, beta: float, rng,
                cheap_solver=None, cfg: GoodCentersConfig | None = None,
                t_override: int | None = None,
                reference_cost: float | None = None) -> PTASResult:
    """Stability-aware solver: list candidate tuples for the expensive
    clusters, let cheap_solver finish each guess, return the first
    success (or the best attempt, marked failed).

    t defaults to ceil(4^6/(beta*eps)) clamped to k.  t_override=0 skips
    list generation entirely and calls cheap_solver once with no guesses.
    """
    X = as_points(X)
    if cheap_solver is None:
        cheap_solver = brute_force_cheap_solver(beta=beta)
    t = min(k, expensive_budget(beta, epsilon)) if t_override is None else t_override

    if t == 0:
        C = cheap_solver(X, k, epsilon, [])
        cost = phi_cost(C, X) if C is not None else math.inf
        return PTASResult(C, cost, C is not None, 0)

    if cfg is None:
        cfg = GoodCentersConfig(t=t, epsilon=min(epsilon, 0.5), preset="desk",
                                subset_budget=64, anchor_copies=4)
    elif cfg.t != t:
        raise ValueError(f"config t={cfg.t} disagrees with computed t={t}")
    seed = d2_seed(X, k, rng=rng)
    cands = good_centers(X, seed.centers, cfg, rng)
    best: tuple[float, np.ndarray | None] = (math.inf, None)
    for tried, entry in enumerate(cands.entries, start=1):
        C = cheap_solver(X, k, epsilon, list(entry.centers))
        if C is None:
            continue
        cost = phi_cost(C, X)
        if cost < best[0]:
            best = (cost, C)
        if reference_cost is None or cost <= (1.0 + epsilon) * reference_cost:
            return PTASResult(C, cost, True, tried)
    return PTASResult(best[1], best[0], False, len(cands.entries))
