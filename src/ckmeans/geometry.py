"""Squared-distance cost functionals shared by every other module.

Points are rows of 2-d float64 arrays.  A center set is just another
array of rows; nothing in here knows about constraints or streams.
"""

from __future__ import annotations

import numpy as np

# float64 entries (128 KB) of the distance temporaries by which the stream
# passes size their stacks of chunks and joins of blocks
ENTRIES = 2**14


def as_points(X) -> np.ndarray:
    """Coerce input to a 2-d float64 array, treating one row as (1, d)."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValueError("points must form a 2-d array")
    return A


def pairwise_sqdist(X, C) -> np.ndarray:
    """All squared distances, shape (len(X), len(C)).

    Computed from explicit differences rather than the dot-product
    expansion so that coincident rows come out exactly 0.0; the
    bucketing code relies on that.
    """
    X = as_points(X)
    C = as_points(C)
    if X.shape[1] != C.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {C.shape[1]}")
    diff = X[:, None, :] - C[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def check_overflow(sq) -> None:
    """Raise ValueError unless every squared distance (or sum of them) is finite."""
    if not np.isfinite(sq).all():
        raise ValueError("a squared distance overflows float64")


def centroid(X) -> np.ndarray:
    X = as_points(X)
    if X.shape[0] == 0:
        raise ValueError("centroid of an empty point set")
    return X.mean(axis=0)


def phi_cost(C, X) -> float:
    """Sum over X of the squared distance to the nearest row of C.

    Empty X costs 0; an empty center set is an error.
    """
    X = as_points(X)
    C = as_points(C)
    if C.shape[0] == 0:
        raise ValueError("phi_cost needs at least one center")
    if X.shape[0] == 0:
        return 0.0
    return float(pairwise_sqdist(X, C).min(axis=1).sum())


def delta_cost(X) -> float:
    """Cost of X against its own centroid, i.e. the 1-means optimum."""
    X = as_points(X)
    diff = X - centroid(X)
    return float(np.einsum("ij,ij->", diff, diff))


def min_cost_matching(M) -> tuple[float, tuple[int, ...]]:
    """Cheapest bijection rows -> columns of a square cost matrix.

    Returns (cost, pi) with pi[i] the column matched to row i.
    """
    # no solve path matches; importing scipy here keeps it out of start-up
    from scipy.optimize import linear_sum_assignment

    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square cost matrix")
    rows, cols = linear_sum_assignment(M)
    return float(M[rows, cols].sum()), tuple(int(c) for c in cols)


def psi_cost(centers, parts) -> tuple[float, tuple[int, ...]]:
    """Cheapest bijection of centers onto a fixed list of parts.

    parts is a sequence of point arrays, one per center; empty parts are
    allowed and contribute nothing.  Returns (cost, pi) where pi[i] is
    the index of the center serving parts[i] and cost is the minimum
    over all bijections of sum_i phi_cost([c_pi(i)], parts[i]).  Solved
    as a min-cost bipartite matching.
    """
    C = as_points(centers)
    if len(parts) != C.shape[0]:
        raise ValueError("need exactly one center per part")
    M = np.zeros((len(parts), C.shape[0]))
    for i, part in enumerate(parts):
        P = as_points(part) if len(part) else None
        if P is not None and P.shape[0]:
            # one center per part, so phi is a plain sum of squared distances
            M[i, :] = pairwise_sqdist(P, C).sum(axis=0)
    cost, pi = min_cost_matching(M)
    return cost, pi
