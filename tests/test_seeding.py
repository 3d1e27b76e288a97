"""Seeding: planted recovery, merge-reduce degeneration, space accounting."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckmeans.data import duplicate_groups, gaussian_groups
from ckmeans.geometry import pairwise_sqdist, phi_cost
from ckmeans.oracle import OracleLimit, opt_kmeans
from ckmeans import seeding
from ckmeans.seeding import _d2_stack, d2_seed, merge_reduce_seed
from ckmeans.streaming import SpaceMeter
from reference import d2_seed_choice, merge_reduce_seed_choice


def test_duplicates_are_seeded_exactly():
    # potentials vanish on covered sites, so k = g recovers all sites
    for seed in range(5):
        ds, info = duplicate_groups(40, 4, rng=np.random.default_rng(seed))
        sol = d2_seed(ds.points, 4, oversample=4, rng=np.random.default_rng(seed + 100))
        assert sol.cost == 0.0
        sites = {tuple(s) for s in info["sites"]}
        assert {tuple(c) for c in sol.centers} == sites


def test_oversample_covering_input_returns_input():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 2))
    sol = d2_seed(X, 2, oversample=6, rng=rng)
    assert np.array_equal(sol.centers, X)
    assert sol.cost == 0.0


def test_default_oversample_is_2k():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 2))
    sol = d2_seed(X, 3, rng=np.random.default_rng(3))
    assert sol.centers.shape == (6, 2)


def test_seed_cost_is_the_final_potential():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    sol = d2_seed(X, 2, oversample=3, rng=np.random.default_rng(5))
    assert sol.cost == pytest.approx(phi_cost(sol.centers, X), rel=1e-9)


def test_seed_validation():
    rng = np.random.default_rng(6)
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        d2_seed(np.zeros((0, 2)), 1, rng=rng)
    with pytest.raises(ValueError):
        d2_seed(X, 0, rng=rng)
    with pytest.raises(ValueError):
        d2_seed(X, 1, oversample=0, rng=rng)
    with pytest.raises(ValueError):
        d2_seed(X, 1)  # rng mandatory
    with pytest.raises(ValueError):
        d2_seed(X, 1, rng=rng, weights=np.zeros(3))
    with pytest.raises(ValueError):
        d2_seed(X, 1, rng=rng, weights=[-1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="weights must sum below"):
        d2_seed(X, 1, rng=rng, weights=np.full(3, 1e308))


def test_weighted_seeding_prefers_heavy_points():
    # weight concentrates the first (uniform-by-weight) draw
    X = np.array([[0.0, 0.0], [100.0, 0.0]])
    w = np.array([1e9, 1.0])
    hits = 0
    for s in range(20):
        sol = d2_seed(X, 1, oversample=1, rng=np.random.default_rng(s), weights=w)
        hits += bool(np.array_equal(sol.centers[0], X[0]))
    assert hits == 20


def test_seed_quality_against_oracle_small():
    # bi-criteria 2k seeding stays within a constant of the optimum
    lim = OracleLimit(max_n=12, max_k=3)
    rng = np.random.default_rng(7)
    ratios = []
    for s in range(10):
        X = rng.normal(size=(12, 2)) * 2
        opt, _ = opt_kmeans(X, 3, lim)
        sol = d2_seed(X, 3, rng=np.random.default_rng(1000 + s))
        if opt > 0:
            ratios.append(sol.cost / opt)
    assert np.median(ratios) <= 25.0


def test_one_chunk_merge_is_bit_identical_to_batch():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(33, 2))
    a = merge_reduce_seed(X, 3, chunk=64, rng=np.random.default_rng(9))
    b = d2_seed(X, 3, rng=np.random.default_rng(9))
    assert np.array_equal(a.centers, b.centers)
    assert a.cost == b.cost


def test_merge_reduce_streams_blocks_of_any_shape():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 2))
    blocks = [X[:7], X[7:19], X[19:40]]
    a = merge_reduce_seed(blocks, 3, chunk=10, rng=np.random.default_rng(11))
    b = merge_reduce_seed(X, 3, chunk=10, rng=np.random.default_rng(11))
    assert np.array_equal(a.centers, b.centers)     # chunking ignores block seams


@pytest.mark.parametrize("n,chunk,block", [(61, 10, 7), (60, 10, 1000), (41, 13, 13)])
def test_merge_reduce_seeds_consecutive_chunks(n, chunk, block):
    # reference: seed X[lo:lo + chunk] for each lo, weigh by Voronoi counts,
    # re-seed the union, all on one rng stream
    X = np.random.default_rng(17).normal(size=(n, 2))
    rng = np.random.default_rng(18)
    parts = [X[lo:lo + chunk] for lo in range(0, n, chunk)]
    sols = [d2_seed(P, 3, rng=rng) for P in parts]
    counts = [np.bincount(np.argmin(pairwise_sqdist(P, s.centers), axis=1),
                          minlength=len(s.centers)) for P, s in zip(parts, sols)]
    want = d2_seed(np.vstack([s.centers for s in sols]), 3, rng=rng,
                   weights=np.concatenate(counts).astype(np.float64))
    blocks = [X[lo:lo + block] for lo in range(0, n, block)]
    got = merge_reduce_seed(blocks, 3, chunk, np.random.default_rng(18))
    assert np.array_equal(got.centers, want.centers) and got.cost == want.cost


def test_merge_reduce_recovers_planted_groups():
    misses = 0
    for s in range(8):
        ds, info = gaussian_groups(120, 3, sigma=0.01, rng=np.random.default_rng(s))
        sol = merge_reduce_seed(ds.points, 3, chunk=30, rng=np.random.default_rng(500 + s))
        # 2k centers around 3 tight blobs: potential must be blob-scale, not site-scale
        if sol.cost > 120 * 0.01**2 * 100:
            misses += 1
    assert misses <= 1


def test_merge_reduce_space_bound():
    meter = SpaceMeter()
    rng = np.random.default_rng(12)
    X = rng.normal(size=(1000, 2))
    chunk = 50
    k = 3
    merge_reduce_seed(X, k, chunk, np.random.default_rng(13), meter=meter)
    chunks = 1000 // chunk
    # one chunk buffer resident at a time, plus 2k centers per flushed chunk
    assert meter.peak_points <= chunk + chunks * 2 * k
    assert meter.current_points == 2 * k    # the final seed stays allocated


def test_merge_reduce_holds_no_state_per_point():
    # at a fixed chunk the chunk centers and their counts grow with n, but
    # no label per point is kept: a stream 4x longer stays under 1.5x the peak
    peaks = []
    for n in (20_000, 80_000):
        X = np.random.default_rng(0).normal(size=(n, 2))
        tracemalloc.start()
        try:
            merge_reduce_seed((X[lo:lo + 256] for lo in range(0, n, 256)), 3, 245,
                              np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_merge_reduce_validation():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        merge_reduce_seed(np.zeros((0, 2)), 1, 4, rng)
    with pytest.raises(ValueError):
        merge_reduce_seed(np.ones((2, 2)), 3, 4, rng)
    with pytest.raises(ValueError):
        merge_reduce_seed(np.ones((4, 2)), 1, 0, rng)


def test_iterative_potential_never_increases():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(25, 2))
    # growing oversample can only shrink the potential, given one rng stream
    costs = []
    for m in (2, 4, 8, 16):
        sol = d2_seed(X, 2, oversample=m, rng=np.random.default_rng(16))
        costs.append(sol.cost)
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))


@st.composite
def seed_inputs(draw, sizes=st.integers(1, 60)):
    """Points in d = 1, 2, 3, 7, 16 or 64 at magnitudes 1e-3 to 1e3: spread,
    on a small grid (a point is often equidistant from two centers), some
    rows coincident, or all of them (the potential drops to 0 and draws
    fall back to the weights).  Their number is drawn from `sizes`."""
    d = draw(st.sampled_from([1, 2, 3, 7, 16, 64]))
    n = draw(sizes)
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = data.normal(size=(n, d)) * 10.0 ** draw(st.integers(-3, 3))
    shape = draw(st.sampled_from(["spread", "grid", "coincident", "one site"]))
    if shape == "grid":
        X = data.integers(-1, 2, size=(n, d)) * 10.0 ** draw(st.integers(-3, 3))
    elif shape == "coincident":
        X = X[data.integers(0, max(1, n // 3), size=n)]
    elif shape == "one site":
        X[:] = X[0]
    return X, data


def same_seed(got, want, got_rng, want_rng):
    centers, cost = want
    return (got.centers.tobytes() == centers.tobytes()
            and np.float64(got.cost).tobytes() == np.float64(cost).tobytes()
            and got_rng.random() == want_rng.random())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed_inputs(), st.integers(1, 4), st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
def test_d2_seed_matches_its_choice_form(inp, k, oversample, weighted, s):
    # centers, cost bits and the generator's state after the call all match
    X, data = inp
    w = None
    if weighted:
        w = data.integers(0, 3, size=X.shape[0]).astype(np.float64)   # zeros included
        w[data.integers(X.shape[0])] = 1.0
    got_rng, want_rng = np.random.default_rng(s), np.random.default_rng(s)
    got = d2_seed(X, k, oversample, got_rng, weights=w)
    assert same_seed(got, d2_seed_choice(X, k, oversample, want_rng, w), got_rng, want_rng)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed_inputs(st.integers(1, 60) | st.integers(3000, 3000)), st.integers(1, 3),
       st.sampled_from([1, 2, 4, 5, 6, 7, 16, 33, 100, 245]), st.integers(1, 300),
       st.sampled_from([False, False, True]), st.integers(0, 2**32 - 1))
def test_merge_reduce_seed_matches_its_choice_form(inp, k, chunk, block, one_chunk, s):
    # streams of up to 3,000 rows span several stacks of chunks and end on
    # a short chunk; chunks of at most 2k rows are seeded whole; a stream
    # of one chunk returns that chunk's seeding.  The rows arrive in blocks
    # of random sizes up to `block`.
    X, data = inp
    if one_chunk:
        X = X[:chunk]
    if X.shape[0] < k:
        return
    cuts = np.cumsum(data.integers(1, block + 1, size=X.shape[0]))
    blocks = np.split(X, cuts[cuts < X.shape[0]])
    got_rng, want_rng = np.random.default_rng(s), np.random.default_rng(s)
    got_meter, want_meter = SpaceMeter(), SpaceMeter()
    got = merge_reduce_seed(blocks, k, chunk, got_rng, meter=got_meter)
    *want, labels = merge_reduce_seed_choice(X, k, chunk, want_rng, meter=want_meter)
    assert same_seed(got, want, got_rng, want_rng)
    assert got.labels.tobytes() == labels.tobytes()
    assert got_meter.report() == want_meter.report()


@pytest.mark.parametrize("s", range(8))
def test_stacked_labels_break_ties_as_argmin_does(s):
    # on a small integer grid many rows lie at equal distance from two
    # draws, and some sets draw a point twice once their potential is 0;
    # each row's label is np.argmin over its distances to the draws
    data = np.random.default_rng(s)
    c, n, d, m = 5, 40, int(data.integers(1, 3)), 6
    X = data.integers(-2, 3, size=(c, n, d)).astype(np.float64)
    sols = _d2_stack(X, data.random((c, m)), np.ones(n), False)
    ties = 0
    for P, sol in zip(X, sols):
        sq = pairwise_sqdist(P, sol.centers)
        assert sol.labels.tobytes() == np.argmin(sq, axis=1).tobytes()
        ties += int(((sq == sq.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties > 0     # the premise: ties to break


def test_weighted_seed_labels_break_ties_as_argmin_does():
    # zero weights leave a row's potential 0 whatever its distance, so the
    # labels follow the distances, not the potentials
    data = np.random.default_rng(20)
    X = data.integers(-2, 3, size=(60, 2)).astype(np.float64)
    w = data.integers(0, 3, size=60).astype(np.float64)
    sol = d2_seed(X, 3, 8, np.random.default_rng(21), weights=w)
    assert sol.labels.tobytes() == np.argmin(pairwise_sqdist(X, sol.centers), axis=1).tobytes()


@pytest.mark.parametrize("d", [2, 7])
def test_merge_reduce_seed_does_not_depend_on_its_runs(monkeypatch, d):
    # with ENTRIES = 1 every run is one chunk; centers, cost, labels, the
    # generator's state and the meter's report match the default's stacks
    X = np.random.default_rng(22).normal(size=(3000, d))
    blocks = [X[lo:lo + 256] for lo in range(0, len(X), 256)]
    got = []
    for entries in (seeding.ENTRIES, 1):
        monkeypatch.setattr(seeding, "ENTRIES", entries)
        rng, meter = np.random.default_rng(23), SpaceMeter()
        sol = merge_reduce_seed(blocks, 3, 33, rng, meter=meter)
        got.append((sol.centers.tobytes(), np.float64(sol.cost).tobytes(),
                    sol.labels.tobytes(), rng.random(), meter.report()))
    assert got[0] == got[1]


class ScriptedGenerator(np.random.Generator):
    """A generator whose random() returns the given values in turn, so a
    draw can land exactly on an edge of its cumulative distribution;
    Generator.choice calls this random() too."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = list(values)

    def random(self, size=None, dtype=np.float64, out=None):
        v = self.values.pop(0)
        return v if size is None else np.full(size, v)


EDGES = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]


@pytest.mark.parametrize("X", [
    # the unit square's corners: every cumulative sum here is exact, so
    # an edge value is a tie that only side="right" breaks as choice does
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    # ten probabilities of 0.1 cumulate to 1 - 2**-53; only the normalized
    # cdf keeps the largest uniform inside the range
    np.arange(10.0)[:, None],
])
def test_d2_draws_on_cdf_edges_match_choice(X):
    for values in itertools.product(EDGES, repeat=3):
        got = d2_seed(X, 1, 3, ScriptedGenerator(values))
        centers, cost = d2_seed_choice(X, 1, 3, ScriptedGenerator(values))
        assert got.centers.tobytes() == centers.tobytes() and got.cost == cost
