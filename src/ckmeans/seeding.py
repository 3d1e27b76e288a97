"""Bi-criteria seeding: iterative D^2 sampling, batch or merge-reduce.

The merge-reduce form streams the data in chunks, seeds each chunk
locally, weighs the chunk centers by their Voronoi counts, and re-seeds
the weighted union.  One chunk degenerates to the batch seeder on the
same rng stream, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import as_points, pairwise_sqdist
from .sampling import point_weights


@dataclass
class SeedSolution:
    centers: np.ndarray
    cost: float          # potential of the data the seed was fit on


def d2_seed(X, k: int, oversample: int | None = None, rng=None,
            weights=None) -> SeedSolution:
    """Iterative D^2 seeding: first draw uniform, every later draw
    proportional to the current squared distance to the chosen set.

    oversample is the number of centers to emit (default 2k).  weights
    multiply both the potentials and the reported cost.  When oversample
    covers the whole input the points themselves come back, cost 0.
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
        return SeedSolution(X.copy(), 0.0)

    first = int(rng.choice(n, p=w / w.sum()))
    chosen = [first]
    pot = w * pairwise_sqdist(X, X[first]).ravel()
    for _ in range(oversample - 1):
        total = pot.sum()
        if not np.isfinite(total):
            raise ValueError("a squared distance overflows float64")
        p = (w / w.sum()) if total == 0.0 else (pot / total)
        nxt = int(rng.choice(n, p=p))
        chosen.append(nxt)
        pot = np.minimum(pot, w * pairwise_sqdist(X, X[nxt]).ravel())
    return SeedSolution(X[chosen].copy(), float(pot.sum()))


def _chunks(blocks, chunk: int):
    """The rows of a stream of blocks regrouped into arrays of `chunk`
    rows, in stream order; the last one may be shorter."""
    buf: list[np.ndarray] = []
    held = 0
    for blk in blocks:
        blk = as_points(blk)
        while blk.shape[0]:
            part, blk = blk[:chunk - held], blk[chunk - held:]
            buf.append(part)
            held += part.shape[0]
            if held == chunk:
                yield np.vstack(buf)
                buf, held = [], 0
    if held:
        yield np.vstack(buf)


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
    for points in _chunks(blocks, chunk):
        sol = d2_seed(points, k, 2 * k, rng)
        if meter is not None:
            meter.alloc_points(points.shape[0] + sol.centers.shape[0])
            meter.free_points(points.shape[0])
        labels = np.argmin(pairwise_sqdist(points, sol.centers), axis=1)
        counts.append(np.bincount(labels, minlength=sol.centers.shape[0]).astype(np.float64))
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
