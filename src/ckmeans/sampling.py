"""D^2 sampling and a vectorized bank of weighted reservoirs.

The reservoir rule: after items 1..i with weights w_1..w_i, the held
item is item j with probability w_j / sum_{m<=i} w_m.  A reservoir that
replaced its item at running sum S keeps it past a later running sum
S' > S with probability S / S', so zero-weight items never displace
anything.  While every weight seen is zero, items count with weight 1.
"""

from __future__ import annotations

import numpy as np

from .geometry import as_points, check_overflow, pairwise_sqdist


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

    Each reservoir jumps between replacements (Chao 1982; Efraimidis and
    Spirakis 2006): on replacing its item at running sum S_j it draws
    u in (0, 1] and sets its threshold T = S_j / u, and it next replaces
    at the first row whose running sum exceeds T.  Reservoir r's n-th
    replacement uses column r of the n-th row of draws, each row one
    rng.random(size) drawn when a reservoir first needs it, and the
    running sums add strictly left to right; so the held items, the
    weight sum and the generator's state do not depend on how the stream
    is split into offers.  While weight_sum is 0 rows count with weight
    1, so a stream of zero weight leaves a uniform sample, and the first
    positive row replaces every reservoir.
    """

    def __init__(self, size: int, dim: int, rng):
        if size < 1:
            raise ValueError("need at least one reservoir")
        self.rng = rng
        self.held_index = np.full(size, -1, dtype=np.int64)
        self.held = np.zeros((size, dim))
        self.weight_sum = 0.0
        self._next_index = 0
        self._threshold = np.zeros(size)
        self._draws = np.empty((0, size))          # rows not yet used by every reservoir
        self._row = np.zeros(size, dtype=np.int64)  # the row of _draws each uses next

    @property
    def size(self) -> int:
        return len(self.held_index)

    @property
    def words(self) -> int:
        """Scalar words of the bank's jump state: a threshold and a
        draw-row counter per reservoir, and the pending rows of draws."""
        return 2 * self.size + self._draws.size

    def offer_block(self, points, weights) -> None:
        """Offers the rows of points, in order, with their weights."""
        P = as_points(points)
        w = _checked_weights(weights, P.shape[0])
        # rows before the first positive weight ever seen count with weight 1
        ones = len(w) - len(np.trim_zeros(w, "f")) if self.weight_sum == 0 else 0
        with np.errstate(over="ignore"):
            sums = np.cumsum(np.concatenate([[self.weight_sum], w[ones:]]))
        check_overflow(sums[-1])
        self._jump(P, 0, self._next_index + np.arange(1.0, ones + 1))
        if self.weight_sum == 0 and ones < len(w):
            self._threshold[:] = 0.0
        self._jump(P, ones, sums[1:])
        self.weight_sum = float(sums[-1])
        self._next_index += len(w)

    def _jump(self, P: np.ndarray, first: int, sums: np.ndarray) -> None:
        """Replaces, round by round, each reservoir's item by the first
        row whose running sum exceeds its threshold; sums[i] is the
        running sum at row first + i of P."""
        live = np.arange(self.size)
        while len(live) and len(sums):
            row = np.searchsorted(sums, self._threshold[live], side="right")
            live, row = live[row < len(sums)], row[row < len(sums)]
            while len(self._draws) <= self._row[live].max(initial=-1):
                self._draws = np.vstack([self._draws, 1.0 - self.rng.random(self.size)])
            with np.errstate(over="ignore"):    # an infinite threshold never fires
                self._threshold[live] = sums[row] / self._draws[self._row[live], live]
            self._row[live] += 1
            self.held_index[live] = self._next_index + first + row
            self.held[live] = P[first + row]
            used = self._row.min()
            self._draws, self._row = self._draws[used:], self._row - used

    def sampled_points(self) -> np.ndarray:
        """Held points of reservoirs that were offered any row."""
        ok = self.held_index >= 0
        return self.held[ok].copy()
