"""The brute-force oracles checked against themselves and exact arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from ckmeans.data import Dataset, duplicate_groups
from ckmeans.geometry import centroid, delta_cost, pairwise_sqdist, phi_cost
from ckmeans.oracle import (
    OracleLimit,
    OracleLimitError,
    cluster_cost_exact,
    fault_tolerant_direct,
    opt_constrained,
    opt_kmeans,
    opt_kmeans_exact,
)
from ckmeans.partition import Variant, quantize_costs

LIM = OracleLimit(max_n=8, max_k=3)


def labeling_cost(X, labels):
    out = 0.0
    for c in set(labels):
        P = X[np.asarray(labels) == c]
        out += delta_cost(P)
    return out


def test_opt_kmeans_matches_exact_rational():
    rng = np.random.default_rng(2)
    for _ in range(8):
        # eighths stay exact in binary floating point
        pts = [[Fraction(int(v), 8) for v in rng.integers(-16, 16, size=2)]
               for _ in range(6)]
        X = np.array([[float(v) for v in row] for row in pts])
        cost_f, labels_f = opt_kmeans(X, 2, LIM)
        cost_q, labels_q = opt_kmeans_exact(pts, 2, LIM)
        assert cost_f == pytest.approx(float(cost_q), rel=1e-9, abs=1e-12)
        assert labeling_cost(X, labels_f) == pytest.approx(float(cost_q), rel=1e-9, abs=1e-12)


def test_opt_kmeans_witness_is_optimal_and_reproducible():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(7, 2))
    c1, l1 = opt_kmeans(X, 2, LIM)
    c2, l2 = opt_kmeans(X, 2, LIM)
    assert c1 == c2 and l1 == l2
    assert labeling_cost(X, l1) == pytest.approx(c1, rel=1e-9)


def test_opt_kmeans_duplicates_cost_zero():
    ds, info = duplicate_groups(8, 2, rng=np.random.default_rng(6))
    cost, labels = opt_kmeans(ds.points, 2, LIM)
    assert cost == 0.0
    # labels must split exactly along the planted sites
    planted = np.asarray(info["labels"])
    got = np.asarray(labels)
    assert (np.all(got == planted) or np.all(got == 1 - planted))


def test_opt_kmeans_k_at_least_n_is_free():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(3, 2))
    cost, _ = opt_kmeans(X, 3, LIM)
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_guard_raises():
    X = np.zeros((12, 2))
    with pytest.raises(OracleLimitError):
        opt_kmeans(X, 2, LIM)
    with pytest.raises(OracleLimitError):
        opt_kmeans(np.zeros((4, 2)), 4, OracleLimit(max_n=8, max_k=3))
    with pytest.raises(OracleLimitError):
        opt_kmeans(np.zeros((8, 2)), 3, OracleLimit(max_n=8, max_k=3, max_states=10))


def test_cluster_cost_exact_centroids_and_fixed_centers():
    pts = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)],
           [Fraction(10), Fraction(0)]]
    labels = [0, 0, 1]
    # centroid of the pair is 1/2, each contributes 1/4
    assert cluster_cost_exact(pts, labels) == Fraction(1, 2)
    fixed = {0: [Fraction(0), Fraction(0)], 1: [Fraction(10), Fraction(0)]}
    assert cluster_cost_exact(pts, labels, fixed) == Fraction(1)


def test_opt_constrained_classical_is_quantized_voronoi():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(6, 2))
    C = rng.normal(size=(2, 2))
    got = opt_constrained(X, C, Variant.classical(), LIM)
    w_int, scale = quantize_costs(pairwise_sqdist(X, C), 32)
    want = float(w_int.min(axis=1).sum()) * scale
    assert got == want


def test_opt_constrained_r_gather_infeasible_value():
    X = np.zeros((3, 2))
    C = np.zeros((2, 2))
    assert opt_constrained(X, C, Variant.r_gather(2), LIM) == np.inf


def test_opt_constrained_chromatic_needs_colors():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        opt_constrained(X, np.zeros((2, 2)), Variant.chromatic(), LIM)


def test_opt_constrained_fault_tolerant_matches_direct():
    rng = np.random.default_rng(12)
    for _ in range(5):
        X = rng.normal(size=(5, 2))
        C = rng.normal(size=(3, 2))
        got = opt_constrained(X, C, Variant.fault_tolerant(2), LIM)
        want = fault_tolerant_direct(X, C, 2)
        # both routes quantize differently; compare in real terms
        assert got == pytest.approx(want, rel=1e-6)


def test_fault_tolerant_direct_l_validation():
    with pytest.raises(ValueError):
        fault_tolerant_direct(np.zeros((2, 2)), np.zeros((2, 2)), 3)


def test_opt_constrained_semi_supervised_alpha_extremes():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(5, 2))
    C = rng.normal(size=(2, 2))
    ds = Dataset(X, targets=np.array([0, 0, 1, 1, 0]))
    # alpha=1 ignores targets entirely
    a1 = opt_constrained(ds, C, Variant.semi_supervised(1.0), LIM)
    cls = opt_constrained(ds, C, Variant.classical(), LIM)
    assert a1 == pytest.approx(cls, rel=1e-9)
    # alpha=0 ignores geometry; some center relabeling hits all targets
    a0 = opt_constrained(ds, C, Variant.semi_supervised(0.0), LIM)
    assert a0 == pytest.approx(0.0, abs=1e-12)
