"""D^2 sampling and a vectorized bank of weighted reservoirs.

The reservoir rule: after items 1..i with weights w_1..w_i, the held
item is item j with probability w_j / sum_{m<=i} w_m.  A reservoir that
replaced its item at running sum S keeps it past a later running sum
S' > S with probability S / S', so zero-weight items never displace
anything.  While every weight seen is zero, items count with weight 1.
"""

from __future__ import annotations

import numpy as np

from .geometry import as_points, check_overflow, pairwise_sqdist, row_min


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
    p = row_min(pairwise_sqdist(X, C))
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
    """One segment of `size` independent reservoirs per generator in
    rngs, every reservoir on one weight stream.

    Each reservoir jumps between replacements (Chao 1982; Efraimidis and
    Spirakis 2006): on replacing its item at running sum S_j it draws
    u in (0, 1] and sets its threshold T = S_j / u, and it next replaces
    at the first row whose running sum exceeds T.  Reservoir r of
    segment b uses, for its n-th replacement, column r of the n-th row
    of segment b's draws, each row one rngs[b].random(size) drawn when
    one of the segment's reservoirs first needs it, and the running sums
    add strictly left to right; so the held items, the weight sum and
    the generators' states do not depend on how the stream is split into
    offers, and a bank of B segments holds what B one-generator banks
    hold, its words their sum.  One jump loop serves every segment, and
    a reservoir takes its held point once per offer, from the last row
    it replaced at.  While weight_sum is 0 rows count with weight 1, so
    a stream of zero weight leaves a uniform sample, and the first
    positive row replaces every reservoir.
    """

    def __init__(self, size: int, dim: int, *rngs):
        if size < 1:
            raise ValueError("need at least one reservoir")
        if not rngs:
            raise ValueError("need at least one generator")
        self.size = size
        self.rngs = rngs
        total = size * len(rngs)
        self.held_index = np.full(total, -1, dtype=np.int64)
        self.held = np.zeros((total, dim))
        self.weight_sum = 0.0
        self._next_index = 0
        self._threshold = np.zeros(total)
        self._draws = np.empty((0, total))  # rows not yet used by every reservoir
        self._row = np.zeros(total, dtype=np.int64)  # the row of _draws each uses next
        self._drawn = np.zeros(len(rngs), dtype=np.int64)  # rows of _draws each segment filled

    def segment_words(self) -> list[int]:
        """Scalar words of each segment's jump state: a threshold and a
        draw-row counter per reservoir, and the rows of draws drawn but
        not yet used by all of the segment's reservoirs."""
        pending = self._drawn - self._row.reshape(len(self.rngs), self.size).min(axis=1)
        return (self.size * (2 + pending)).tolist()

    @property
    def words(self) -> int:
        return sum(self.segment_words())

    def offer_block(self, points, weights) -> None:
        """Offers the rows of points, in order, with their weights."""
        P = as_points(points)
        w = _checked_weights(weights, P.shape[0])
        # rows before the first positive weight ever seen count with weight 1
        ones = len(w) - len(np.trim_zeros(w, "f")) if self.weight_sum == 0 else 0
        with np.errstate(over="ignore"):
            sums = np.cumsum(np.concatenate([[self.weight_sum], w[ones:]]))
        check_overflow(sums[-1])
        self._jump(self._next_index, self._next_index + np.arange(1.0, ones + 1))
        if self.weight_sum == 0 and ones < len(w):
            self._threshold[:] = 0.0
        self._jump(self._next_index + ones, sums[1:])
        # the reservoirs that replaced in this offer take their last row's point
        new = self.held_index >= self._next_index
        self.held[new] = P[self.held_index[new] - self._next_index]
        self.weight_sum = float(sums[-1])
        self._next_index += len(w)

    def _jump(self, first: int, sums: np.ndarray) -> None:
        """Replaces, round by round, each reservoir's item by the first
        row whose running sum exceeds its threshold; sums[i] is the
        running sum at row first + i of the stream."""
        if not len(sums):
            return
        live = np.arange(len(self._threshold))
        while True:
            row = np.searchsorted(sums, self._threshold[live], side="right")
            fired = row < len(sums)
            live, row = live[fired], row[fired]
            if not len(live):
                break
            used = self._row[live]
            self._row[live] = used + 1
            short = self._row.reshape(len(self.rngs), self.size).max(axis=1) > self._drawn
            for b in np.flatnonzero(short):
                self._draw(b)
            with np.errstate(over="ignore"):    # an infinite threshold never fires
                self._threshold[live] = sums[row] / self._draws[used, live]
            self.held_index[live] = row + first
        low = self._row.min()
        self._draws, self._row, self._drawn = self._draws[low:], self._row - low, self._drawn - low

    def _draw(self, b: int) -> None:
        """Draws segment b's next row of uniforms in (0, 1]."""
        at = self._drawn[b]
        if at == len(self._draws):
            self._draws = np.vstack([self._draws, np.zeros((1, self._draws.shape[1]))])
        self._draws[at, b * self.size:(b + 1) * self.size] = 1.0 - self.rngs[b].random(self.size)
        self._drawn[b] += 1

    def sampled_points(self) -> np.ndarray:
        """Held points of reservoirs that were offered any row, segment by
        segment."""
        ok = self.held_index >= 0
        return self.held[ok].copy()
