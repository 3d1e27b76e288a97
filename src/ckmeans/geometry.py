"""Squared-distance cost functionals shared by every other module.

Points are rows of 2-d float64 arrays.  A center set is just another
array of rows; nothing in here knows about constraints or streams.
"""

from __future__ import annotations

import numpy as np

# float64 entries (128 KB) of the distance temporaries by which the stream
# passes size their stacks of chunks and joins of blocks
ENTRIES = 2**14
# budgets of ENTRIES (1 MB) in each temporary of the batch bounds' row
# blocks: their gather is m·k entries wide per row, so one budget leaves
# a few rows per block and per-block work dominates
BOUND_BLOCKS = 8


def block_rows(width: int, entries: int, floor: int = 1) -> int:
    """Rows per block whose temporaries of `width` float64 entries a row
    hold at most `entries` entries, and at least `floor` rows."""
    return max(floor, entries // width)


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
    # the centers coordinate-major, so that each coordinate's row is one run
    return coordinate_sqdist(X.T[:, :, None], np.ascontiguousarray(C.T)[:, None, :])


def coordinate_sqdist(A, B) -> np.ndarray:
    """Sum over j of (A[j] - B[j])**2, j running in order over the first
    axis, where A[j] and B[j] broadcast together; zeros when the first
    axis is empty.

    The sum lands in one array of the broadcast shape, and one scratch
    array of that shape holds each coordinate's squares, so nothing has
    an axis of length d.  A squared distance that overflows comes out
    inf with no warning; check_overflow rejects it.
    """
    if not len(A):
        return np.zeros(np.broadcast_shapes(A.shape[1:], B.shape[1:]))
    with np.errstate(over="ignore"):
        out = np.subtract(A[0], B[0])
        np.square(out, out=out)
        tmp = np.empty_like(out) if len(A) > 1 else None
        for j in range(1, len(A)):
            np.square(np.subtract(A[j], B[j], out=tmp), out=tmp)
            out += tmp
    return out


def row_min(a) -> np.ndarray:
    """Minimum over a's last axis, taken column by column into a new
    array: numpy's own reduction over a short last axis is several
    times slower.  A minimum is exact, so the bits are a.min(axis=-1)'s."""
    cols = np.moveaxis(np.asarray(a), -1, 0)
    if len(cols) < 2:
        if not len(cols):
            raise ValueError("row minimum over an empty axis")
        return cols[0].copy()
    out = np.minimum(cols[0], cols[1])
    for c in cols[2:]:
        np.minimum(out, c, out=out)
    return out


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
    return float(row_min(pairwise_sqdist(X, C)).sum())


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
