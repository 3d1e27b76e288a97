"""Geometric bucketing: boundary exactness, soundness, compression fidelity."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckmeans.data import grid_groups
from ckmeans.geometry import pairwise_sqdist
from ckmeans.hyperbucket import (
    ZERO_ID,
    CompressedGraph,
    aspect_graph,
    aspect_guesses,
    bucket_index,
    bucket_indices,
    bucket_weight,
    build_compressed,
)
from ckmeans.partition import Variant, partition_cost
from reference import max_weight_error, row_keys, vertex_items, vertex_key


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
def test_bucket_boundaries_inclusive_below(eps):
    b = 1.0 + eps
    for i in range(-30, 31):
        edge = b**i
        assert bucket_index(edge, eps) == i          # lower edge belongs to i
        assert bucket_index(np.nextafter(edge, 0.0), eps) == i - 1
        inside = edge * (1 + eps / 2)
        assert bucket_index(inside, eps) == i


def test_zero_gets_its_own_bucket():
    assert bucket_index(0.0, 0.3) == ZERO_ID
    assert bucket_weight(ZERO_ID, 0.3) == 0.0


def test_bucket_index_validation():
    with pytest.raises(ValueError):
        bucket_index(-1.0, 0.3)
    with pytest.raises(ValueError):
        bucket_index(math.inf, 0.3)
    with pytest.raises(ValueError):
        bucket_index(1.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1e12),
       st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_bucket_weight_sandwich(s, eps):
    # representative weight never exceeds the member and is within (1+eps)
    i = bucket_index(s, eps)
    w = bucket_weight(i, eps)
    assert w <= s
    assert s < w * (1.0 + eps) * (1 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=40),
       st.sampled_from([0.1, 0.5]))
def test_vectorized_agrees_with_scalar(vals, eps):
    sq = np.array(vals)
    idx, zero = bucket_indices(sq, eps)
    for v, i, z in zip(vals, idx, zero):
        ref = bucket_index(v, eps)
        if ref == ZERO_ID:
            assert z
        else:
            assert not z and i == ref


def test_vectorized_handles_exact_powers():
    eps = 0.5
    b = 1.0 + eps
    sq = b ** np.arange(-20, 21, dtype=np.float64)
    idx, zero = bucket_indices(sq, eps)
    assert not zero.any()
    assert idx.tolist() == list(range(-20, 21))


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.3, 0.25, 0.05, 1.0, 0.01])
def test_vectorized_agrees_with_scalar_at_every_edge(eps):
    # numpy's power misses Python's edge (1+eps)^i by an ulp at
    # i = -172 (eps 0.5), 283 (eps 0.1) and -277 (eps 0.01)
    edges = [(1.0 + eps) ** i for i in range(-300, 300)]
    for side in (edges, np.nextafter(edges, 0.0).tolist(), np.nextafter(edges, np.inf).tolist()):
        idx, zero = bucket_indices(np.array(side), eps)
        assert not zero.any()
        assert idx.tolist() == [bucket_index(s, eps) for s in side]
    assert [bucket_index(s, eps) for s in edges] == list(range(-300, 300))


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.3, 1.0, 0.01, 1e-6, 3.0])
def test_scalar_and_vectorized_agree_up_to_the_largest_float(eps):
    # the top bucket's upper edge (1+eps)^(i+1) lies past the largest float
    big = sys.float_info.max
    b = 1.0 + eps
    top = bucket_index(big, eps)
    edges = [b**i for i in range(top - 3, top + 1)]
    vals = [big, float(np.nextafter(big, 0.0)), 1.7e308, big / b, 1e300,
            *edges, *np.nextafter(edges, 0.0).tolist(), *np.nextafter(edges, np.inf).tolist()]
    idx, zero = bucket_indices(np.array(vals), eps)
    assert not zero.any()
    assert idx.tolist() == [bucket_index(v, eps) for v in vals]
    assert b**top <= big


def test_add_block_keys_a_point_on_an_edge():
    s = 1.1**283
    P = np.array([[math.sqrt(s)]])
    g = CompressedGraph(np.zeros((1, 1)), 0.1)
    assert pairwise_sqdist(P, g.centers)[0, 0] == s      # exactly on the edge
    g.add_block(P)
    assert vertex_items(g) == [((283,), 1)]
    assert g.vertex_arrays()[0][0, 0] == s


# compressed graphs ----------------------------------------------------------

def test_counts_partition_the_input():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 2))
    C = rng.normal(size=(3, 2))
    g = build_compressed(X, C, 0.5)
    assert sum(c for _k, c in g.vertices.items()) == 200


def test_soundness_no_violations_small():
    # every finite edge weight within (1-eps, 1] x true squared distance
    rng = np.random.default_rng(1)
    for eps in (0.1, 0.5):
        X = rng.normal(size=(300, 3)) * 5
        C = rng.normal(size=(4, 3)) * 5
        g = build_compressed(X, C, eps)
        assert max_weight_error(g, X) <= eps + 1e-9


def test_coincident_points_share_a_zero_slot():
    C = np.array([[0.0, 0.0], [7.0, 0.0]])
    g = CompressedGraph(C, 0.5)
    keys = row_keys(g, np.array([[0.0, 0.0], [0.0, 0.0]]))
    assert keys[0] == keys[1]
    slots = vertex_key(keys[0])
    assert slots[0] == ZERO_ID
    g.add_block(np.array([[0.0, 0.0]]))
    assert g.vertex_arrays()[0][0, 0] == 0.0


def test_an_empty_graph_gives_empty_arrays():
    W, counts = CompressedGraph(np.zeros((3, 2)), 0.5).vertex_arrays()
    assert W.shape == (0, 3) and counts.shape == (0,)


def test_grid_groups_bucket_count_regression():
    # few distinct offsets -> few distinct keys, stable across runs
    ds, _info = grid_groups(400, 3, rng=np.random.default_rng(1234))
    C = np.asarray(_info["sites"])
    g = build_compressed(ds.points, C, 0.5)
    assert sum(g.vertices.values()) == 400
    assert len(g.vertices) < 60
    assert len(g.vertices) == len(build_compressed(ds.points, C, 0.5).vertices)


def test_compressed_flow_close_to_exact_flow():
    rng = np.random.default_rng(7)
    for eps in (0.1, 0.5):
        for _ in range(6):
            X = rng.normal(size=(40, 2)) * 3
            C = rng.normal(size=(3, 2)) * 3
            exact = partition_cost(X, C, Variant.classical())
            g = build_compressed(X, C, eps)
            comp = partition_cost(g, C, Variant.classical())
            assert comp <= exact * (1 + 1e-9)        # weights under-estimate
            assert exact <= comp * (1 + 3 * eps)     # but never by much


def test_compressed_r_gather_matches_exact_structure():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 2))
    C = rng.normal(size=(2, 2))
    g = build_compressed(X, C, 0.1)
    a = partition_cost(g, C, Variant.r_gather(10))
    b = partition_cost(X, C, Variant.r_gather(10))
    assert a <= b * (1 + 1e-9) and b <= a * 1.3 + 1e-9


# aspect-ratio removal -------------------------------------------------------

def test_aspect_guesses_contents():
    C = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    g = aspect_guesses(C, d_star=42.0)
    assert sorted(g) == pytest.approx([5.0, 5.0, 10.0, 42.0])
    assert len(g) <= C.shape[0] ** 2 + 1


def test_aspect_contraction():
    C = np.array([[0.0, 0.0], [100.0, 0.0]])
    n = 100
    g = aspect_graph(C, 0.5, 10.0, n)
    u = 100.0                            # the center gap beats d_star = 10
    assert g.contract_below == (u / n**2) ** 2
    # no positive guess (one center, d_star 0): u = 1.0
    assert aspect_graph(C[:1], 0.5, 0.0, 1).contract_below == 1.0
    # a point microscopically off center 0: contracted to the zero slot;
    # center 1 keeps its plain bucket
    tiny = u / n**2 / 2
    P = np.array([[tiny, 0.0]])
    key = vertex_key(row_keys(g, P)[0])
    assert key[0] == ZERO_ID
    assert key[1] == bucket_index(pairwise_sqdist(P, C)[0, 1], 0.5)
    g.add_block(P)
    assert g.vertex_arrays()[0][0].tolist() == [0.0, bucket_weight(key[1], 0.5)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["gaussian", "cauchy", "coincident"]),
       st.integers(1, 4), st.integers(1, 40), st.integers(1, 4))
def test_aspect_solution_survives_max_guess(seed, kind, k, n, d):
    """At the scale guess aspect_graph takes (the largest positive one
    of aspect_guesses with d_star), every point lies within 2u of every
    center by the triangle inequality, so a cut of centers beyond 4u
    could never fire.  A smaller guess breaks this premise.  At n = 1
    the graph's floor (u/n^2)^2 is u^2."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 6)
    if kind == "gaussian":
        X, C = rng.normal(size=(n, d)) * scale, rng.normal(size=(k, d)) * scale
    elif kind == "cauchy":           # heavy tails: aspect ratios up to ~1e6 and beyond
        X = rng.standard_cauchy(size=(n, d)) * scale
        C = rng.standard_cauchy(size=(k, d)) * scale
    else:                            # every point sits on a center: d_star = 0
        C = rng.normal(size=(k, d)) * scale
        X = C[rng.integers(k, size=n)]
    sq = pairwise_sqdist(X, C)
    d_star = np.sqrt(sq.min(axis=1).max())
    u_squared = aspect_graph(C, 0.5, float(d_star), 1).contract_below
    # (d_star + largest center gap)^2 <= 4u^2, up to a few ulps of rounding
    assert sq.max() <= 4.0 * u_squared * (1 + 1e-12)


def test_aspect_contraction_error_is_negligible():
    # contracting below (u/n^2)^2 perturbs any single edge by at most u^2/n^4
    rng = np.random.default_rng(15)
    X = rng.normal(size=(50, 2))
    C = rng.normal(size=(2, 2))
    d_star = math.sqrt(float(pairwise_sqdist(X, C).min(axis=1).max()))
    n = 50
    g = aspect_graph(C, 0.1, d_star, n)
    g.add_block(X)
    exact = partition_cost(X, C, Variant.classical())
    comp = partition_cost(g, C, Variant.classical())
    slack = n * g.contract_below         # total contraction budget
    assert comp <= exact * 1.000001 + slack
    assert exact <= comp * (1 + 3 * 0.1) + slack
