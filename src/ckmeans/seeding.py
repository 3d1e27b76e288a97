"""Bi-criteria seeding: iterative D^2 sampling, batch or merge-reduce.

The merge-reduce form streams the data in chunks, seeds each chunk
locally, weighs the chunk centers by their Voronoi counts, and re-seeds
the weighted union.  One chunk degenerates to the batch seeder on the
same rng stream, bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import ENTRIES, as_points, check_overflow, coordinate_sqdist, pairwise_sqdist
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
    u = np.array([[rng.random() for _ in range(oversample)]])
    return _d2_stack(X[None], u, w, weights is not None)[0]


def _d2_stack(X: np.ndarray, u: np.ndarray, w: np.ndarray, weighted: bool) -> list:
    """D^2 seeding of c sets of n points at once, each as d2_seed seeds
    it alone: X is (c, n, d), u the (c, m) uniforms of m draws per set
    and w the weights of the n rows.  Returns c SeedSolutions."""
    sets = np.arange(X.shape[0])
    coords = np.moveaxis(X, -1, 0)

    def draw(p, j: int) -> np.ndarray:
        cdf = p.cumsum(axis=-1)
        cdf /= cdf[..., -1:]
        # on a non-decreasing cdf, cdf.searchsorted(u, side="right")
        return np.count_nonzero(cdf <= u[:, j, None], axis=-1)

    def sqdist(picks: np.ndarray) -> np.ndarray:
        # pairwise_sqdist(X[s], X[s, j]).ravel() for each set s: the same kernel
        return coordinate_sqdist(coords, X[sets, picks].T[:, :, None])

    chosen = [draw(w / w.sum(), 0)]
    near = sqdist(chosen[0])    # each row's distance to its nearest draw so far
    labels = np.zeros(near.shape, dtype=np.intp)
    pot = w * near if weighted else near
    for j in range(1, u.shape[1]):
        with np.errstate(over="ignore"):    # an overflowing sum is rejected below
            total = pot.sum(axis=1, keepdims=True)
        check_overflow(total)
        if total.all():
            p = pot / total     # total is pot.sum(axis=1): the same bits
        else:
            p = np.where(total == 0.0, w, pot)  # a set with no potential left draws by weight
            p = p / p.sum(axis=1, keepdims=True)
        chosen.append(draw(p, j))
        dist = sqdist(chosen[-1])
        # a tie keeps the earlier draw, as np.argmin over the draws does
        labels[dist < near] = j
        if weighted:
            np.minimum(pot, w * dist, out=pot)
        np.minimum(near, dist, out=near)
    centers = X[sets[:, None], np.stack(chosen, axis=1)]
    return list(map(SeedSolution, centers, pot.sum(axis=1).tolist(), labels))


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


def _runs(blocks, chunk: int, k: int):
    """The stream's chunks as stacks: (c, chunk, d) arrays of up to
    ENTRIES // (chunk·max(1, d)) full chunks, so that a stack holds at
    most ENTRIES entries (1 chunk if chunk <= 2k: such a chunk is its own
    seed), then a short last chunk alone as (1, rows, d).  A stack is one
    join of the blocks' rows.  A source error follows the full chunks in
    hand, as if each chunk were seeded on arrival."""
    failed = []

    def points():
        try:
            for b in blocks:
                yield (as_points(b),)
        except Exception as exc:
            failed.append(exc)

    stream = points()
    head = next(stream, None)
    if head is not None:
        d = head[0].shape[1]
        most = 1 if chunk <= 2 * k else max(1, ENTRIES // (chunk * max(1, d)))
        for (rows,) in chunks(itertools.chain([head], stream), most * chunk):
            full = len(rows) - len(rows) % chunk
            if full:
                yield rows[:full].reshape(-1, chunk, rows.shape[1])
            if full < len(rows) and not failed:
                yield rows[full:][None]
    if failed:
        raise failed[0]


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

    first = None    # kept whole, labels too: a one-chunk stream returns it
    centers: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    seen = 0
    for run in _runs(blocks, chunk, k):
        sols = ([d2_seed(run[0], k, 2 * k, rng)] if len(run) < 2 else
                _d2_stack(run, rng.random((len(run), 2 * k)), np.ones(chunk), False))
        for points, sol in zip(run, sols):
            if meter is not None:
                meter.alloc_points(points.shape[0] + sol.centers.shape[0])
                meter.free_points(points.shape[0])
            centers.append(sol.centers)
            counts.append(np.bincount(sol.labels, minlength=len(sol.centers)).astype(np.float64))
            seen += points.shape[0]
        if first is None and sols:
            first = sols[0]

    if first is None:
        raise ValueError("empty stream")
    if seen < k:
        raise ValueError(f"stream has {seen} points, need at least k={k}")

    if len(centers) == 1:
        # degenerate merge: the chunk solution is the batch solution
        return first

    union = np.vstack(centers)
    final = d2_seed(union, k, 2 * k, rng, weights=np.concatenate(counts))
    if meter is not None:
        meter.free_points(union.shape[0])
        meter.alloc_points(final.centers.shape[0])
    return final
