"""Stability conditions, the two-cluster gap fixture, and the fast solver."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckmeans.geometry import delta_cost, phi_cost
from ckmeans.listgen import GoodCentersConfig
from ckmeans.oracle import OracleLimitError, opt_kmeans
from ckmeans.stability import (
    EXPENSIVE_DENOM,
    brute_force_cheap_solver,
    check_beta_distributed,
    check_irreducible,
    check_weak_deletion,
    cheap_expensive_split,
    cluster_stats,
    expensive_budget,
    faster_ptas,
    gap_instance,
    gap_merged_cost_exact,
)
from reference import deletion_cost


# exact 2-means brute force over rational points ------------------------------

def exact_cluster_cost(pts, members):
    d = len(pts[0])
    mu = [sum(pts[i][j] for i in members) / len(members) for j in range(d)]
    return sum(sum((pts[i][j] - mu[j]) ** 2 for j in range(d)) for i in members)


def exact_opt2(pts):
    """Optimal 2-clustering cost by enumeration, all Fraction arithmetic."""
    n = len(pts)
    best = None
    for mask in range(1, 2 ** (n - 1)):
        g1 = [i + 1 for i in range(n - 1) if (mask >> i) & 1]
        g0 = [i for i in range(n) if i not in g1]
        c = exact_cluster_cost(pts, g0) + exact_cluster_cost(pts, g1)
        if best is None or c < best:
            best = c
    return best


# gap instance ----------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 6, 8])
def test_gap_two_means_optimum_is_exactly_n_minus_two(n):
    inst = gap_instance(n)
    assert exact_opt2(inst.exact_points) == Fraction(n - 2)
    assert inst.opt_cost == Fraction(n - 2)
    halves = ([i for i in range(n // 2)], [i for i in range(n // 2, n)])
    achieved = exact_cluster_cost(inst.exact_points, halves[0]) + \
        exact_cluster_cost(inst.exact_points, halves[1])
    assert achieved == Fraction(n - 2)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_gap_merged_cost_recomputed_from_scratch(n):
    inst = gap_instance(n)
    eps = inst.epsilon
    assert gap_merged_cost_exact(inst) == n * (1 + 2 * eps ** 2)
    assert inst.merged_cost == n * (1 + 2 * eps ** 2)
    # float view agrees with the rational one
    moved = deletion_cost(inst.dataset.points, inst.labels, 0, 1)
    assert moved == pytest.approx(float(inst.merged_cost), rel=1e-12)
    _p, _s, _m, _d, opt = cluster_stats(inst.dataset.points, inst.labels)
    assert opt == pytest.approx(n - 2, rel=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_gap_is_half_distributed(n):
    inst = gap_instance(n)
    rep = check_beta_distributed(inst.dataset.points, inst.labels, 0.5)
    assert rep.passed and not rep.witnesses
    # every outside point sits at 2/n + 1 + 4 eps^2 from the far mean
    lhs = Fraction(2, n) + 1 + 4 * inst.epsilon ** 2
    want = lhs * (n // 2) / (n - 2)
    assert rep.margin == pytest.approx(float(want), rel=1e-12)


def test_gap_weak_deletion_fails_at_half_for_n8():
    inst = gap_instance(8)
    bad = check_weak_deletion(inst.dataset.points, inst.labels, 0.5)
    assert not bad.passed and bad.witnesses
    # ratio is 8 * 1.02 / 6 = 1.36, so gamma up to 0.36 still passes
    assert bad.margin == pytest.approx(0.36, rel=1e-12)
    good = check_weak_deletion(inst.dataset.points, inst.labels, 0.3)
    assert good.passed


def test_gap_irreducibility_margin():
    # OPT_1 = n - 1 + n eps^2, so the reduction gap is much smaller than
    # the deletion gap: the three conditions really are distinct.
    inst = gap_instance(8)
    rep = check_irreducible(inst.dataset.points, 2, 0.1)
    assert rep.passed
    want = (8 - 1 + 8 * Fraction(1, 10) ** 2) / Fraction(6) - 1
    assert rep.margin == pytest.approx(float(want), rel=1e-9)
    assert not check_irreducible(inst.dataset.points, 2, 0.2).passed


def test_gap_instance_validation():
    with pytest.raises(ValueError):
        gap_instance(5)
    with pytest.raises(ValueError):
        gap_instance(2)


# the three checks on generic instances ----------------------------------------

def test_deletion_cost_formula_and_validation():
    X = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
    labels = [0, 0, 1, 1]
    _p, sizes, means, _d, opt = cluster_stats(X, labels)
    gap = means[0] - means[1]
    assert deletion_cost(X, labels, 0, 1) == opt + sizes[0] * float(gap @ gap)
    with pytest.raises(ValueError):
        deletion_cost(X, labels, 1, 1)


def test_margins_are_sharp_thresholds():
    rng = np.random.default_rng(31)
    X = np.vstack([rng.normal(0, 0.3, (5, 2)), rng.normal((8, 0), 0.3, (5, 2))])
    labels = [0] * 5 + [1] * 5
    wd = check_weak_deletion(X, labels, 0.0)
    assert check_weak_deletion(X, labels, wd.margin * 0.999).passed
    assert not check_weak_deletion(X, labels, wd.margin * 1.001).passed
    bd = check_beta_distributed(X, labels, 0.0)
    assert check_beta_distributed(X, labels, bd.margin * 0.999).passed
    assert not check_beta_distributed(X, labels, bd.margin * 1.001).passed


def test_checks_reject_negative_parameters():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        check_weak_deletion(X, [0, 1], -0.1)
    with pytest.raises(ValueError):
        check_beta_distributed(X, [0, 1], -0.1)
    with pytest.raises(ValueError):
        check_irreducible(X, 2, -0.1)
    with pytest.raises(ValueError):
        check_irreducible(X, 1, 0.1)


def chain_instance(rng):
    n = int(rng.integers(4, 9))
    k = int(rng.integers(2, 4))
    k = min(k, n - 1)
    if rng.random() < 0.5:
        X = rng.random((n, 2)) * 3.0
    else:
        sites = rng.normal(0, 4.0, (k, 2))
        X = sites[rng.integers(0, k, n)] + rng.normal(0, 0.2, (n, 2))
    return X, k


def test_implication_chain_has_no_counterexamples():
    rng = np.random.default_rng(32)
    fired_irr = fired_wd = 0
    for _ in range(24):
        X, k = chain_instance(rng)
        _cost, labels = opt_kmeans(X, k)
        for gamma in (0.05, 0.2, 0.5, 1.0):
            if check_irreducible(X, k, gamma).passed:
                fired_irr += 1
                assert check_weak_deletion(X, labels, gamma).passed
            if check_weak_deletion(X, labels, gamma).passed:
                fired_wd += 1
                assert check_beta_distributed(X, labels, gamma / 4.0).passed
    # the sweep must actually exercise both implications
    assert fired_irr >= 10 and fired_wd >= 10


# cheap/expensive split ---------------------------------------------------------

def test_split_threshold_and_ids():
    rng = np.random.default_rng(33)
    tight = np.zeros((12, 2))
    spread = rng.normal((40, 0), 2.0, (12, 2))
    X = np.vstack([tight, spread])
    labels = [0] * 12 + [1] * 12
    exp, cheap, thr = cheap_expensive_split(X, labels, 0.5, 0.5)
    _p, _s, _m, deltas, opt = cluster_stats(X, labels)
    assert thr == 0.5 * 0.5 * opt / EXPENSIVE_DENOM
    assert cheap == [0] and exp == [1]
    assert deltas[0] == 0.0 and deltas[1] > thr
    with pytest.raises(ValueError):
        cheap_expensive_split(X, labels, 0.0, 0.5)


def test_expensive_budget_value():
    assert expensive_budget(0.5, 0.5) == math.ceil(EXPENSIVE_DENOM / 0.25)
    assert expensive_budget(1.0, 1.0) == EXPENSIVE_DENOM


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([0.1, 0.5, 1.0]),
       st.sampled_from([0.25, 0.5, 1.0]))
def test_expensive_count_obeys_averaging_bound(seed, eps, beta):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    k = int(rng.integers(2, 5))
    X = rng.random((n, 2)) * 4.0
    labels = rng.integers(0, k, n)
    exp, cheap, thr = cheap_expensive_split(X, labels, beta, eps)
    assert len(exp) + len(cheap) == len(set(int(v) for v in labels))
    assert len(exp) <= expensive_budget(beta, eps)
    _p, _s, _m, _d, opt = cluster_stats(X, labels)
    if exp:
        assert len(exp) * thr < opt + 1e-12


# the stability-aware solver -----------------------------------------------------

def planted_cheap_expensive(seed):
    """One zero-spread cluster at the origin plus one genuinely spread
    cluster far away; the split is unambiguous at beta = eps = 1/2."""
    rng = np.random.default_rng(seed)
    A = np.zeros((20, 2))
    B = np.array([30.0, 0.0]) + rng.normal(0, 1.0, (20, 2))
    X = np.vstack([A, B])
    labels = np.array([0] * 20 + [1] * 20)
    return X, labels, delta_cost(B)


def test_cheap_solver_extends_and_trims():
    X, labels, ref = planted_cheap_expensive(34)
    solve = brute_force_cheap_solver(reference_labels=labels)
    C = solve(X, 2, 0.5, [np.array([30.0, 0.0])])
    assert C is not None and C.shape == (2, 2)
    assert phi_cost(C, X) <= 1.5 * ref
    # a hopeless guess cannot be rescued by the single cheap centroid
    assert solve(X, 2, 0.5, [np.array([1000.0, 1000.0])]) is None


def test_solver_succeeds_on_planted_split():
    wins = 0
    for seed in range(8):
        X, labels, ref = planted_cheap_expensive(50 + seed)
        res = faster_ptas(X, 2, 0.5, 0.5, np.random.default_rng(90 + seed),
                          cheap_solver=brute_force_cheap_solver(reference_labels=labels),
                          reference_cost=ref)
        if res.succeeded:
            assert res.cost <= 1.5 * ref
            assert res.cost == pytest.approx(phi_cost(res.centers, X))
            assert 1 <= res.candidates_tried <= 256
            wins += 1
    assert wins >= 6


def test_solver_t_zero_skips_list_generation():
    # both clusters are duplicate groups, so everything is cheap and the
    # subordinate solver alone reconstructs the optimum
    X = np.vstack([np.zeros((6, 2)), np.full((6, 2), 5.0)])
    labels = np.array([0] * 6 + [1] * 6)
    res = faster_ptas(X, 2, 0.5, 0.5, np.random.default_rng(0),
                      cheap_solver=brute_force_cheap_solver(reference_labels=labels),
                      t_override=0)
    assert res.succeeded and res.candidates_tried == 0
    assert res.cost == 0.0
    dead = faster_ptas(X, 2, 0.5, 0.5, np.random.default_rng(0),
                       cheap_solver=lambda X, k, eps, q: None, t_override=0)
    assert not dead.succeeded and dead.centers is None and dead.cost == math.inf


def test_solver_rejects_mismatched_config():
    X, labels, _ = planted_cheap_expensive(35)
    cfg = GoodCentersConfig(t=1, epsilon=0.5, preset="desk",
                            eta=4, tau=1, repetitions=2, subset_budget=8)
    with pytest.raises(ValueError):
        faster_ptas(X, 2, 0.5, 0.5, np.random.default_rng(0), cfg=cfg)


def test_default_cheap_solver_hits_oracle_limit_beyond_desk_scale():
    X, _labels, _ = planted_cheap_expensive(36)
    with pytest.raises(OracleLimitError):
        faster_ptas(X, 2, 0.5, 0.5, np.random.default_rng(1))
