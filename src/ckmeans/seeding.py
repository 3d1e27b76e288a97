"""Bi-criteria seeding: iterative D^2 sampling, batch or merge-reduce.

The merge-reduce form streams the data in chunks, seeds each chunk
locally, weighs the chunk centers by their Voronoi counts, and re-seeds
the weighted union.  One chunk degenerates to the batch seeder on the
same rng stream, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_points, pairwise_sqdist
from .sampling import point_weights


@dataclass
class SeedSolution:
    centers: np.ndarray
    cost: float          # potential of the data the seed was fit on
    labels: np.ndarray   # each row's nearest center there, ties to the lowest


def d2_seed(X, k: int, oversample: int | None = None, rng=None,
            weights=None) -> SeedSolution:
    """Iterative D^2 seeding: first draw uniform, every later draw
    proportional to the current squared distance to the chosen set.

    oversample is the number of centers to emit (default 2k).  weights
    multiply both the potentials and the reported cost.  When oversample
    covers the whole input the points themselves come back, cost 0.
    Each draw is Generator.choice(n, p=p)'s own algorithm without its
    per-call validation of p, so centers and rng state match choice's.
    """
    X = as_points(X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot seed an empty point set")
    if k < 1:
        raise ValueError("need k >= 1")
    if oversample is None:
        oversample = 2 * k
    if oversample < 1:
        raise ValueError("need oversample >= 1")
    if rng is None:
        raise ValueError("rng is required")
    w = point_weights(weights, n)

    if oversample >= n:
        return SeedSolution(X.copy(), 0.0, np.argmin(pairwise_sqdist(X, X), axis=1))

    def draw(p) -> int:
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))

    def sqdist(j: int) -> np.ndarray:
        # pairwise_sqdist(X, X[j]).ravel(), bit for bit
        diff = X - X[j]
        return np.einsum("ij,ij->i", diff, diff)

    chosen = [draw(w / w.sum())]
    dists = [sqdist(chosen[0])]
    pot = dists[0].copy() if weights is None else w * dists[0]
    for _ in range(oversample - 1):
        total = float(pot.sum())
        if not math.isfinite(total):
            raise ValueError("a squared distance overflows float64")
        chosen.append(draw((w / w.sum()) if total == 0.0 else (pot / total)))
        dists.append(sqdist(chosen[-1]))
        np.minimum(pot, dists[-1] if weights is None else w * dists[-1], out=pot)
    return SeedSolution(X[chosen].copy(), float(pot.sum()), np.argmin(dists, axis=0))


def chunks(blocks, chunk: int):
    """The rows of a stream of blocks regrouped into `chunk` rows, in
    stream order; the last chunk may be shorter.  A block is a tuple of
    arrays over the same rows, None for a column that no block has, and
    so is a chunk; a chunk that is one block's rows is that block's
    arrays, not a copy."""
    buf: list[tuple] = []
    held = 0
    for blk in blocks:
        while len(blk[0]):
            cut = chunk - held
            buf.append(tuple(None if a is None else a[:cut] for a in blk))
            blk = tuple(None if a is None else a[cut:] for a in blk)
            held += len(buf[-1][0])
            if held == chunk:
                yield _joined(buf)
                buf, held = [], 0
    if held:
        yield _joined(buf)


def _joined(parts: list[tuple]) -> tuple:
    if len(parts) == 1:
        return parts[0]
    return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*parts))


def merge_reduce_seed(blocks, k: int, chunk: int, rng, meter=None) -> SeedSolution:
    """Single pass chunked seeding.

    blocks: an (n, d) array or an iterable of such blocks in stream
    order.  Each chunk of `chunk` points is seeded locally with 2k
    centers; chunk centers weighted by their Voronoi counts accumulate,
    and the final seed is drawn from that weighted union.  Space stays
    within one chunk plus 2k centers per chunk: the meter is charged a
    chunk and its centers together, then the chunk is freed.
    """
    if chunk < 1:
        raise ValueError("need chunk >= 1")
    if isinstance(blocks, np.ndarray):
        blocks = [blocks]

    solutions: list[SeedSolution] = []
    counts: list[np.ndarray] = []
    seen = 0
    for (points,) in chunks(((as_points(b),) for b in blocks), chunk):
        sol = d2_seed(points, k, 2 * k, rng)
        if meter is not None:
            meter.alloc_points(points.shape[0] + sol.centers.shape[0])
            meter.free_points(points.shape[0])
        counts.append(np.bincount(sol.labels, minlength=sol.centers.shape[0]).astype(np.float64))
        solutions.append(sol)
        seen += points.shape[0]

    if not solutions:
        raise ValueError("empty stream")
    if seen < k:
        raise ValueError(f"stream has {seen} points, need at least k={k}")

    if len(solutions) == 1:
        # degenerate merge: the chunk solution is the batch solution
        return solutions[0]

    union = np.vstack([s.centers for s in solutions])
    final = d2_seed(union, k, 2 * k, rng, weights=np.concatenate(counts))
    if meter is not None:
        meter.free_points(union.shape[0])
        meter.alloc_points(final.centers.shape[0])
    return final
