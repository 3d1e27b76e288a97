"""Candidate-list generation: preset algebra, enumeration, planted recovery."""

import csv
import math

import numpy as np
import pytest

from ckmeans.data import duplicate_groups
from ckmeans.geometry import psi_cost
from ckmeans.listgen import (
    ENUM_GUARD,
    GoodCentersConfig,
    _enumerate_tuples,
    good_centers,
    list_size_bound,
    multiset_size,
)
from ckmeans.oracle import OracleLimit, opt_kmeans
from ckmeans.seeding import d2_seed


def test_paper_preset_formula_values():
    cfg = GoodCentersConfig(t=3, epsilon=0.5, alpha=2.0, preset="formula")
    p = cfg.resolved()
    assert p["eta"] == math.ceil(2**16 * 2.0 * 3 / 0.5**4)
    assert p["tau"] == math.ceil(128 / 0.5)
    assert p["repetitions"] == 2**3
    assert p["copies"] == math.ceil(128 * 3 / 0.5)


def test_explicit_overrides_survive_resolution():
    cfg = GoodCentersConfig(t=2, epsilon=0.5, preset="formula",
                            eta=3, tau=1, repetitions=2, anchor_copies=1)
    p = cfg.resolved()
    assert (p["eta"], p["tau"], p["repetitions"], p["copies"]) == (3, 1, 2, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        GoodCentersConfig(t=0, epsilon=0.5)
    with pytest.raises(ValueError):
        GoodCentersConfig(t=1, epsilon=0.6)       # epsilon capped at 1/2
    with pytest.raises(ValueError):
        GoodCentersConfig(t=1, epsilon=0.5, alpha=0.5)
    with pytest.raises(ValueError):
        GoodCentersConfig(t=1, epsilon=0.5, preset="desk", eta=4)  # missing knobs
    with pytest.raises(ValueError):
        GoodCentersConfig(t=1, epsilon=0.5, preset="desk", eta=4, tau=1,
                          repetitions=0, subset_budget=4)


def test_multiset_and_bound_arithmetic():
    cfg = GoodCentersConfig(t=2, epsilon=0.5, preset="formula",
                            eta=2, tau=1, repetitions=3, anchor_copies=2)
    # M = eta*t + copies*|C| = 4 + 2|C|
    assert multiset_size(cfg, 3) == 10
    # per rep: choose 1 of 10 then 1 of 9, ordered
    assert list_size_bound(cfg, 3) == 3 * 10 * 9
    desk = GoodCentersConfig(t=2, epsilon=0.5, preset="desk",
                             eta=2, tau=1, repetitions=3, subset_budget=17)
    assert list_size_bound(desk, 3) == 3 * 17


def test_enumerate_tuples_shape_and_disjointness():
    tuples = list(_enumerate_tuples(5, 2, 2))
    # C(5,2) * C(3,2) ordered pairs of disjoint 2-subsets
    assert len(tuples) == 10 * 3
    assert len(set(tuples)) == len(tuples)
    for flat in tuples:
        assert len(set(flat)) == 4
        assert list(flat[:2]) == sorted(flat[:2])
        assert list(flat[2:]) == sorted(flat[2:])


def test_paper_preset_enumerates_exactly_the_bound():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 2))
    C = X[:2]
    cfg = GoodCentersConfig(t=2, epsilon=0.5, preset="formula",
                            eta=2, tau=1, repetitions=2, anchor_copies=1)
    cands = good_centers(X, C, cfg, np.random.default_rng(1))
    assert len(cands) == list_size_bound(cfg, 2)
    # every candidate is the mean of its recorded positions
    m = multiset_size(cfg, 2)
    per_rep = len(cands) // 2
    seen = set()
    for e in cands.entries[:per_rep]:
        assert e.repetition == 0
        seen.add(e.positions)
    assert seen == set(_enumerate_tuples(m, 2, 1))


def test_paper_preset_guard_refuses_blowups():
    X = np.random.default_rng(2).normal(size=(50, 2))
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="formula")
    with pytest.raises(ValueError):
        good_centers(X, X[:3], cfg, np.random.default_rng(3))
    assert list_size_bound(cfg, 3) > ENUM_GUARD


def test_desk_budget_prefix_property():
    """Growing the budget only appends tuples within each repetition."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    C = X[:3]
    small = GoodCentersConfig(t=2, epsilon=0.5, preset="desk",
                              eta=4, tau=2, repetitions=3, subset_budget=5)
    big = GoodCentersConfig(t=2, epsilon=0.5, preset="desk",
                            eta=4, tau=2, repetitions=3, subset_budget=9)
    a = good_centers(X, C, small, np.random.default_rng(5))
    b = good_centers(X, C, big, np.random.default_rng(5))
    for r in range(3):
        pa = [e.positions for e in a.entries if e.repetition == r]
        pb = [e.positions for e in b.entries if e.repetition == r]
        assert pb[:len(pa)] == pa


def test_candidate_means_recompute():
    """Stored centers are the means of the stored positions into M,
    where M is replayable from the rng structure: spawn one stream per
    repetition, D^2-sample eta*t points, append the anchor copies."""
    from ckmeans.sampling import d2_sample

    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 2))
    C = X[:2]
    cfg = GoodCentersConfig(t=2, epsilon=0.5, preset="desk",
                            eta=4, tau=2, repetitions=2, subset_budget=6)
    cands = good_centers(X, C, cfg, np.random.default_rng(7))
    p = cfg.resolved()
    rep_rngs = np.random.default_rng(7).spawn(2)
    anchor = np.repeat(C, p["copies"], axis=0)
    for r in range(2):
        idx = d2_sample(X, C, p["eta"] * p["t"], rep_rngs[r])
        M = np.vstack([X[idx], anchor])
        for e in cands.entries:
            if e.repetition != r:
                continue
            assert len(set(e.positions)) == p["tau"] * p["t"]
            groups = np.asarray(e.positions).reshape(p["t"], p["tau"])
            assert np.array_equal(e.centers, M[groups].mean(axis=1))


def test_empty_repetition_flagging():
    X = np.zeros((2, 2))
    C = np.zeros((1, 2))
    # tau*t = 8 > |M| = eta*t + copies = 2 + 1
    cfg = GoodCentersConfig(t=2, epsilon=0.5, preset="desk",
                            eta=1, tau=4, repetitions=2, subset_budget=3,
                            anchor_copies=1)
    cands = good_centers(X, C, cfg, np.random.default_rng(8))
    assert len(cands) == 0
    assert cands.empty_repetitions == [0, 1]


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(15, 3))
    cfg = GoodCentersConfig(t=2, epsilon=0.5, preset="desk",
                            eta=3, tau=1, repetitions=2, subset_budget=4)
    cands = good_centers(X, X[:2], cfg, np.random.default_rng(10))
    path = tmp_path / "cands.csv"
    cands.to_csv(path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["entry", "repetition", "t", "dim", "positions", "coords"]
    assert len(rows) == len(cands)
    for i, (row, e) in enumerate(zip(rows, cands.entries)):
        assert row[:4] == [str(i), str(e.repetition), str(cands.t), str(cands.dim)]
        assert tuple(int(p) for p in row[4].split(";")) == e.positions
        coords = np.array([float(v) for v in row[5].split(";")]).reshape(cands.t, cands.dim)
        assert np.array_equal(coords, e.centers)   # repr round-trips floats


def test_planted_duplicates_contain_a_zero_psi_candidate():
    """On coincident groups some candidate must hit every site exactly."""
    lim = OracleLimit(max_n=9, max_k=3)
    hits = 0
    for s in range(5):
        ds, info = duplicate_groups(9, 3, rng=np.random.default_rng(20 + s))
        seed = d2_seed(ds.points, 3, rng=np.random.default_rng(40 + s))
        cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                                eta=4, tau=2, repetitions=4, subset_budget=150)
        cands = good_centers(ds.points, seed.centers, cfg, np.random.default_rng(60 + s))
        labels = np.asarray(info["labels"])
        parts = [ds.points[labels == c] for c in range(3)]
        best = min(psi_cost(e.centers, parts)[0] for e in cands.entries)
        opt, _ = opt_kmeans(ds.points, 3, lim)
        assert opt == 0.0
        if best <= 1e-12:
            hits += 1
    assert hits >= 3
