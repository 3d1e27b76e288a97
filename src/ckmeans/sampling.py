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
    otherwise the given weights, checked, not all zero and with a finite
    sum (the draws normalize by it)."""
    if weights is None:
        return np.ones(n)
    w = _checked_weights(weights, n)
    with np.errstate(over="ignore"):    # an overflowing sum is rejected below
        total = w.sum()
    if total == 0:
        raise ValueError("weights must not all be zero")
    if not np.isfinite(total):
        raise ValueError("weights must sum below float64's largest value")
    return w


def d2_distribution(X, C) -> np.ndarray:
    """Sampling distribution proportional to squared distance to the
    nearest center of C; uniform when every potential is zero."""
    X = as_points(X)
    if X.shape[0] == 0:
        raise ValueError("cannot sample from an empty point set")
    p = pairwise_sqdist(X, C).min(axis=1)
    if p.sum() == 0.0:
        p = np.ones(X.shape[0])
    return p / p.sum()


def d2_sample(X, C, count: int, rng) -> np.ndarray:
    """count independent D^2 draws; returns indices into X."""
    if count < 0:
        raise ValueError("count must be non-negative")
    p = d2_distribution(X, C)
    return rng.choice(len(p), size=count, replace=True, p=p)


class ReservoirBank:
    """size independent reservoirs sharing one weight stream.

    All reservoirs see the same weights, hence the same running sum; the
    replacement coin flips are independent per reservoir.  An offer's
    rows are processed at once: among them the last winning row per
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

    def offer_block(self, points, weights, lengths=None) -> None:
        """Offers the rows in blocks of the given lengths (one when None):
        sums run S + cumsum(block) block by block, as with one offer each."""
        P = as_points(points)
        w = _checked_weights(weights, P.shape[0])
        B = P.shape[0]
        if B == 0:
            return
        ends = np.cumsum([B] if lengths is None else lengths)
        if ends[-1] != B:
            raise ValueError("block lengths must add up to the rows offered")
        sums, S = [], self.weight_sum
        for block in np.split(w, ends[:-1]):
            sums.append(S + np.cumsum(block))
            S = float(sums[-1][-1]) if len(block) else S
        sums = np.concatenate(sums)
        u = self.rng.random((B, self.size))
        # u * S_i < w_i is the scalar replace rule.  It implies u <= w_i / S_i,
        # so only the few draws under that ratio (with slack for its
        # rounding) are put to the rule; a row with S_i = 0 offers nothing
        ratio = np.divide(w, sums, out=np.zeros(B), where=sums > 0) * (1 + 2.0**-40)
        row, res = np.divmod(np.flatnonzero(u <= ratio[:, None]), self.size)
        won = u[row, res] * sums[row] < w[row]
        # rows ascend, so each reservoir's last win is its first from the end
        res, last = np.unique(res[won][::-1], return_index=True)
        row = row[won][::-1][last]
        self.held_index[res] = self._next_index + row
        self.held[res] = P[row]
        self.weight_sum = S
        self._next_index += B

    def sampled_points(self) -> np.ndarray:
        """Held points of reservoirs that ever saw positive weight."""
        ok = self.held_index >= 0
        return self.held[ok].copy()
