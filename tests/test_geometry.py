"""Cost functionals against brute-force oracles and algebraic identities."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ckmeans
from ckmeans.geometry import (
    as_points,
    centroid,
    delta_cost,
    min_cost_matching,
    pairwise_sqdist,
    phi_cost,
    psi_cost,
)
from reference import squared_dist, voronoi_labels, voronoi_partition

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def points_strategy(max_n=12, max_d=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_d).flatmap(
            lambda d: arrays(np.float64, (n, d), elements=finite)))


def matching_enum(M):
    """t! enumeration of bijections; the independent route for matching."""
    t = M.shape[0]
    best = (np.inf, None)
    for perm in itertools.permutations(range(t)):
        c = sum(M[i, perm[i]] for i in range(t))
        if c < best[0]:
            best = (c, perm)
    return best


def test_squared_dist_matches_pairwise():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    C = rng.normal(size=(4, 3))
    D = pairwise_sqdist(X, C)
    for i in range(7):
        for j in range(4):
            assert D[i, j] == pytest.approx(squared_dist(X[i], C[j]), rel=1e-12)


def test_pairwise_sqdist_exact_zero_on_coincident_rows():
    # the bucketing code needs literal 0.0 here, not 1e-17
    X = np.array([[0.3, 0.7, -1.2], [5.0, 5.0, 5.0]])
    D = pairwise_sqdist(X, X)
    assert D[0, 0] == 0.0 and D[1, 1] == 0.0


def test_phi_empty_rules():
    C = np.zeros((2, 3))
    assert phi_cost(C, np.zeros((0, 3))) == 0.0
    with pytest.raises(ValueError):
        phi_cost(np.zeros((0, 3)), np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(points_strategy(), finite)
def test_one_center_cost_identity(X, shift):
    # phi(c, X) = delta(X) + |X| * ||mu - c||^2
    mu = centroid(X)
    c = mu + shift
    lhs = phi_cost(c.reshape(1, -1), X)
    rhs = delta_cost(X) + X.shape[0] * squared_dist(mu, c)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(points_strategy(max_n=10))
def test_mean_sample_cost_identity(X):
    # averaging phi over centers drawn from X itself gives exactly 2*delta
    n = X.shape[0]
    total = sum(phi_cost(X[i].reshape(1, -1), X) for i in range(n))
    assert total / n == pytest.approx(2.0 * delta_cost(X), rel=1e-9, abs=1e-7)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, (3, 3), elements=finite))
def test_approximate_triangle_inequality(P):
    x, y, z = P
    assert squared_dist(x, z) <= 2 * squared_dist(x, y) + 2 * squared_dist(y, z) + 1e-7


def test_centroid_minimizes_one_center_cost():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    mu = centroid(X)
    base = phi_cost(mu.reshape(1, -1), X)
    for _ in range(50):
        other = rng.normal(size=2)
        assert base <= phi_cost(other.reshape(1, -1), X) + 1e-12


def test_voronoi_ties_take_lowest_index():
    X = np.array([[0.0, 0.0]])
    C = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert voronoi_labels(X, C)[0] == 0


def test_voronoi_partition_cost():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 2))
    C = rng.normal(size=(3, 2))
    labels, cost = voronoi_partition(X, C)
    manual = sum(squared_dist(X[i], C[labels[i]]) for i in range(30))
    assert cost == pytest.approx(manual, rel=1e-12)
    assert cost == pytest.approx(phi_cost(C, X), rel=1e-12)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_matching_equals_enumeration(t):
    rng = np.random.default_rng(100 + t)
    for _ in range(20):
        M = rng.random((t, t)) * 10
        cost, pi = min_cost_matching(M)
        ref_cost, _ = matching_enum(M)
        assert cost == pytest.approx(ref_cost, rel=1e-12)
        assert sorted(pi) == list(range(t))
        assert sum(M[i, pi[i]] for i in range(t)) == pytest.approx(cost, rel=1e-12)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_psi_cost_equals_permutation_enumeration(t):
    rng = np.random.default_rng(200 + t)
    for _ in range(10):
        X = rng.normal(size=(12, 2))
        splits = np.sort(rng.choice(np.arange(1, 12), size=t - 1, replace=False))
        parts = np.split(X, splits)
        centers = rng.normal(size=(t, 2))
        got, pi = psi_cost(centers, parts)
        best = np.inf
        for perm in itertools.permutations(range(t)):
            c = sum(phi_cost(centers[perm[i]].reshape(1, -1), parts[i])
                    for i in range(t))
            best = min(best, c)
        assert got == pytest.approx(best, rel=1e-12)
        direct = sum(phi_cost(centers[pi[i]].reshape(1, -1), parts[i])
                     for i in range(t))
        assert got == pytest.approx(direct, rel=1e-12)


def test_psi_allows_empty_parts():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    parts = [np.zeros((0, 2)), np.array([[10.0, 1.0]])]
    cost, pi = psi_cost(centers, parts)
    assert cost == pytest.approx(1.0)
    assert pi[1] == 1


def test_as_points_promotes_single_row():
    assert as_points([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ValueError):
        as_points(np.zeros((2, 2, 2)))


def test_package_import_loads_no_scipy():
    # scipy is imported inside min_cost_matching only, and hashlib when a
    # stream pass is first fingerprinted; every CLI run would pay for
    # them otherwise.  ckmeans.flow is a test reference no pipeline runs
    src = str(Path(ckmeans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ckmeans, ckmeans.cli, ckmeans.streaming; "
            "print(sorted(m for m in sys.modules if m == 'ckmeans.flow' "
            "or m.split('.')[0] in ('scipy', 'hashlib')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
