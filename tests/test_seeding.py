"""Seeding: planted recovery, merge-reduce degeneration, space accounting."""

import numpy as np
import pytest

from ckmeans.data import duplicate_groups, gaussian_groups
from ckmeans.geometry import pairwise_sqdist, phi_cost
from ckmeans.oracle import OracleLimit, opt_kmeans
from ckmeans.sampling import d2_distribution
from ckmeans.seeding import d2_seed, merge_reduce_seed
from ckmeans.streaming import SpaceMeter


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


def test_first_draw_matches_d2_distribution_contract():
    # with no prior centers the distribution is weighted-uniform
    X = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
    p = d2_distribution(X, None, weights=[1.0, 1.0, 2.0])
    assert p == pytest.approx([0.25, 0.25, 0.5])
