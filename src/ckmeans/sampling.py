"""D^2 sampling and a vectorized bank of weighted reservoirs.

The reservoir rule: after items 1..i with weights w_1..w_i, the held
item is item j with probability w_j / sum_{m<=i} w_m.  Offering item i
replaces the held item with probability w_i / S_i where S_i is the
running weight sum, so zero-weight items never displace anything and a
reservoir that has only seen zero weights holds nothing.
"""

from __future__ import annotations

import numpy as np

from .geometry import as_points, pairwise_sqdist


def _checked_weights(weights, n: int) -> np.ndarray:
    """weights as float64; raises ValueError unless they are
    non-negative, finite and one per point."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be non-negative, finite, one per point")
    return w


def point_weights(weights, n: int) -> np.ndarray:
    """The weights a D^2 draw over n points runs on: ones when None,
    otherwise the given weights, checked and not all zero."""
    if weights is None:
        return np.ones(n)
    w = _checked_weights(weights, n)
    if w.sum() == 0:
        raise ValueError("weights must not all be zero")
    return w


def d2_distribution(X, C=None, weights=None) -> np.ndarray:
    """Sampling distribution proportional to (weighted) squared distance
    to the nearest center.  With no centers, or when every potential is
    zero, fall back to the (weighted) uniform distribution."""
    X = as_points(X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot sample from an empty point set")
    w = point_weights(weights, n)
    if C is None or as_points(C).shape[0] == 0:
        p = w.copy()
    else:
        p = w * pairwise_sqdist(X, C).min(axis=1)
        if p.sum() == 0.0:
            p = w.copy()
    return p / p.sum()


def d2_sample(X, C, count: int, rng, weights=None) -> np.ndarray:
    """count independent D^2 draws; returns indices into X."""
    if count < 0:
        raise ValueError("count must be non-negative")
    p = d2_distribution(X, C, weights)
    return rng.choice(len(p), size=count, replace=True, p=p)


class ReservoirBank:
    """size independent reservoirs sharing one weight stream.

    All reservoirs see the same weights, hence the same running sum; the
    replacement coin flips are independent per reservoir.  Blocks are
    processed at once: within a block the last winning offer per
    reservoir is the survivor.
    """

    def __init__(self, size: int, dim: int, rng):
        if size < 1:
            raise ValueError("need at least one reservoir")
        self.rng = rng
        self.held_index = np.full(size, -1, dtype=np.int64)
        self.held = np.zeros((size, dim))
        self.weight_sum = 0.0
        self._next_index = 0

    @property
    def size(self) -> int:
        return len(self.held_index)

    def offer_block(self, points, weights) -> None:
        P = as_points(points)
        w = _checked_weights(weights, P.shape[0])
        B = P.shape[0]
        if B == 0:
            return
        sums = self.weight_sum + np.cumsum(w)
        u = self.rng.random((B, self.size))
        # u * S_i < w_i is the scalar replace rule, vectorized
        wins = u * sums[:, None] < w[:, None]
        any_win = wins.any(axis=0)
        if any_win.any():
            last = B - 1 - np.argmax(wins[::-1], axis=0)
            rows = np.flatnonzero(any_win)
            self.held_index[rows] = self._next_index + last[rows]
            self.held[rows] = P[last[rows]]
        self.weight_sum = float(sums[-1])
        self._next_index += B

    def sampled_points(self) -> np.ndarray:
        """Held points of reservoirs that ever saw positive weight."""
        ok = self.held_index >= 0
        return self.held[ok].copy()
