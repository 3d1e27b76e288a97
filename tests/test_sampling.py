"""Sampler statistics: exact probabilities, decision boundaries, chi-square."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ckmeans.geometry import pairwise_sqdist
from ckmeans.sampling import (
    ReservoirBank,
    d2_distribution,
    d2_sample,
)
from reference import Reservoir, offer_block_matrix

CHI2_LEVEL = 0.99
TRIALS = 100_000


class StubRng:
    """Replays a fixed sequence of uniforms."""

    def __init__(self, seq):
        self.seq = list(seq)

    def random(self, size=None):
        if size is None:
            return self.seq.pop(0)
        shape = (size,) if isinstance(size, int) else size
        n = int(np.prod(shape))
        out = np.array([self.seq.pop(0) for _ in range(n)])
        return out.reshape(shape)


def chi2_ok(observed, probs):
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(probs) * observed.sum()
    keep = expected > 0
    statistic = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    crit = stats.chi2.ppf(CHI2_LEVEL, df=int(keep.sum()) - 1)
    return statistic <= crit, statistic, crit


# d2 distribution ------------------------------------------------------------

def test_d2_distribution_exact_values():
    X = np.array([[0.0, 0], [1.0, 0], [3.0, 0]])
    C = np.array([[0.0, 0.0]])
    p = d2_distribution(X, C)
    assert p == pytest.approx([0.0, 0.1, 0.9])


def test_d2_distribution_fallback_rules():
    X = np.array([[1.0, 1.0], [2.0, 2.0]])
    # centers on top of every point -> uniform fallback
    assert d2_distribution(X, X) == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        d2_distribution(np.zeros((0, 2)), X)


def test_d2_sample_chi_square():
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(8, 2)) * 3
    C = rng.normal(size=(2, 2))
    p = d2_distribution(X, C)
    idx = d2_sample(X, C, TRIALS, rng)
    counts = np.bincount(idx, minlength=8)
    ok, statistic, crit = chi2_ok(counts, p)
    assert ok, (statistic, crit)


# scalar reservoir -----------------------------------------------------------

def test_reservoir_replace_rule_boundaries():
    # first positive-weight offer always wins: u * w < w for any u < 1
    r = Reservoir()
    r.offer("a", 2.0, StubRng([0.999999]), index=0)
    assert r.held == (0, "a")
    # replacement happens iff u * S < w, checked on both sides of the edge
    r = Reservoir()
    r.offer("a", 1.0, StubRng([0.0]), index=0)
    r.offer("b", 3.0, StubRng([0.7499]), index=1)   # 0.7499 * 4 < 3
    assert r.held == (1, "b")
    r = Reservoir()
    r.offer("a", 1.0, StubRng([0.0]), index=0)
    r.offer("b", 3.0, StubRng([0.7501]), index=1)   # 0.7501 * 4 > 3
    assert r.held == (0, "a")


def test_zero_weight_never_displaces_or_wins():
    r = Reservoir()
    r.offer("a", 0.0, StubRng([0.0]), index=0)
    assert r.held is None and r.weight_sum == 0.0
    r.offer("b", 1.0, StubRng([0.9]), index=1)
    r.offer("c", 0.0, StubRng([0.0]), index=2)
    assert r.held == (1, "b")


def test_reservoir_weight_validation():
    r = Reservoir()
    with pytest.raises(ValueError):
        r.offer("a", -1.0, StubRng([0.5]))
    with pytest.raises(ValueError):
        r.offer("a", np.inf, StubRng([0.5]))


def exact_hold_probabilities(weights):
    """P(reservoir holds item i) by exhaustive decision-tree integration.

    Works in Fractions: every offer splits the tree into replace (mass
    w_i / S_i) and keep branches.  No randomness, no float error.
    """
    S = Fraction(0)
    dist: dict = {None: Fraction(1)}
    for i, w in enumerate(weights):
        w = Fraction(w)
        S += w
        if w == 0:
            continue
        p_replace = w / S
        nxt: dict = {}
        for held, mass in dist.items():
            nxt[held] = nxt.get(held, Fraction(0)) + mass * (1 - p_replace)
            nxt[i] = nxt.get(i, Fraction(0)) + mass * p_replace
        dist = nxt
    return dist


@pytest.mark.parametrize("weights", [
    [1, 1, 1],
    [5, 1, 2, 1],
    [1, 0, 3, 2, 0, 4],
    [Fraction(1, 3), Fraction(2, 3), Fraction(2, 1)],
])
def test_decision_tree_matches_closed_form(weights):
    # the tree must telescope to w_i / S_n; this pins the replace rule
    dist = exact_hold_probabilities(weights)
    S = sum(Fraction(w) for w in weights)
    for i, w in enumerate(weights):
        w = Fraction(w)
        if w > 0:
            assert dist.get(i, Fraction(0)) == w / S
    assert dist.get(None, Fraction(0)) == 0


def test_reservoir_chi_square_against_exact():
    weights = np.array([1.0, 4.0, 2.0, 3.0, 0.0, 6.0])
    probs = weights / weights.sum()
    bank = ReservoirBank(TRIALS, 1, np.random.default_rng(99))
    pts = np.arange(6, dtype=np.float64).reshape(-1, 1)
    bank.offer_block(pts, weights)
    held = bank.held[:, 0].astype(np.int64)
    counts = np.bincount(held, minlength=6)
    assert counts[4] == 0
    ok, statistic, crit = chi2_ok(counts, probs)
    assert ok, (statistic, crit)


# bank vs scalar -------------------------------------------------------------

def test_bank_of_one_is_bitwise_the_scalar_reservoir():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    w = rng.random(40) * 2
    bank = ReservoirBank(1, 3, np.random.default_rng(7))
    for lo in range(0, 40, 8):
        bank.offer_block(pts[lo:lo + 8], w[lo:lo + 8])
    scalar = Reservoir()
    srng = np.random.default_rng(7)
    for i in range(40):
        scalar.offer(pts[i], w[i], srng, index=i)
    assert scalar.held is not None
    assert bank.held_index[0] == scalar.held[0]
    assert np.array_equal(bank.held[0], scalar.held[1])
    assert bank.weight_sum == pytest.approx(scalar.weight_sum, rel=1e-12)


def test_bank_reservoirs_are_independent():
    # same stream, different coins: banks must not collapse to one winner
    bank = ReservoirBank(512, 1, np.random.default_rng(11))
    pts = np.arange(10, dtype=np.float64).reshape(-1, 1)
    bank.offer_block(pts, np.ones(10))
    assert len(np.unique(bank.held[:, 0])) >= 8


def test_bank_all_zero_weights_holds_nothing():
    bank = ReservoirBank(4, 2, np.random.default_rng(13))
    bank.offer_block(np.ones((5, 2)), np.zeros(5))
    assert bank.sampled_points().shape == (0, 2)
    bank.offer_block(np.zeros((0, 2)), np.zeros(0))
    assert bank.sampled_points().shape == (0, 2)


def test_bank_last_win_in_block_survives():
    # u = 0 everywhere: every offer wins, the last one must be held
    bank = ReservoirBank(2, 1, StubRng([0.0] * 12))
    pts = np.array([[1.0], [2.0], [3.0]])
    bank.offer_block(pts, np.ones(3))
    assert np.all(bank.held[:, 0] == 3.0)
    assert np.all(bank.held_index == 2)
    bank.offer_block(pts * 10, np.ones(3))
    assert np.all(bank.held[:, 0] == 30.0)
    assert np.all(bank.held_index == 5)


# joined offers -----------------------------------------------------------------

def offer_joined_and_per_block(weights, lengths, cuts, size, rng):
    """Two banks fed the blocks of `lengths` rows: the coin-matrix oracle
    one block per call, the bank joins of consecutive blocks split before
    the block indices `cuts`, each join in one offer with its lengths.
    Each bank gets its own rng().  Returns (oracle, joined)."""
    pts = np.arange(len(weights), dtype=np.float64)[:, None] * 10.0
    lengths = np.asarray(lengths)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    oracle = ReservoirBank(size, 1, rng())
    with np.errstate(over="ignore", invalid="ignore"):    # inf sums, 0 * inf
        for lo, hi in zip(starts, ends):
            offer_block_matrix(oracle, pts[lo:hi], weights[lo:hi])
        joined = ReservoirBank(size, 1, rng())
        for group in np.split(np.arange(len(lengths)), cuts):
            if len(group):
                lo, hi = starts[group[0]], ends[group[-1]]
                joined.offer_block(pts[lo:hi], weights[lo:hi], lengths[group])
    return oracle, joined


def same_bank(a, b) -> bool:
    return (a.held_index.tobytes() == b.held_index.tobytes()
            and a.held.tobytes() == b.held.tobytes()
            and np.float64(a.weight_sum).tobytes() == np.float64(b.weight_sum).tobytes())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["spread", "zero prefix", "zero pass", "subnormal ratio", "overflow"]))
def test_joined_offers_match_per_block_offers(s, kind):
    # held indices, held bits, the weight sum's bits and the generator's
    # next draw all match; 1-row blocks are common
    data = np.random.default_rng(s)
    lengths = data.integers(1, 40, size=data.integers(1, 12))
    lengths[data.random(len(lengths)) < 0.3] = 1
    n = int(lengths.sum())
    w = data.random(n) * 10.0 ** data.integers(-3, 4)
    w[data.random(n) < 0.2] = 0.0
    if kind == "zero prefix":
        w[:data.integers(0, n + 1)] = 0.0
    elif kind == "zero pass":
        w[:] = 0.0
    elif kind == "subnormal ratio":
        # tiny weights after a large sum: w_i / S_i falls below 2**-1022
        w[0] = 1e10
        w[data.random(n) < 0.5] = 1e-310
    elif kind == "overflow":
        w = np.where(w > 0, data.random(n) * 1e308, 0.0)   # the running sum overflows to inf
    cuts = np.sort(data.integers(0, len(lengths) + 1, size=data.integers(0, 4)))
    oracle, joined = offer_joined_and_per_block(
        w, lengths, cuts, 32, lambda: np.random.default_rng(s + 1))
    assert same_bank(oracle, joined)
    assert oracle.rng.random() == joined.rng.random()


def losing_edge(w: float, S: float) -> float:
    """The least u with u * S >= w in float64: u draws no win, the float
    below it does.  0 when S is 0 or inf (no u wins) or w is 0."""
    u = np.float64(w / S) if 0 < S < np.inf else np.float64(0.0)
    with np.errstate(invalid="ignore"):     # 0 * inf
        while u * S < w:
            u = np.nextafter(u, 2.0)
        while u > 0 and np.nextafter(u, -1.0) * S >= w:
            u = np.nextafter(u, -1.0)
    return float(u)


@pytest.mark.parametrize("weights,lengths", [
    ([0, 0, 3, 1, 5, 0, 1, 2.5, 7, 0.1, 0.2, 4], [2, 1, 3, 1, 4, 1]),
    ([0, 0, 0, 0, 0, 0], [1, 2, 3]),                          # weight stays 0
    ([1e10, 1e-310, 3, 1e-312, 2e-310, 1], [1, 2, 1, 2]),     # subnormal w_i / S_i
    ([1e308, 1e308, 1.0, 5e307, 0, 2.0], [1, 2, 3]),          # S_i overflows to inf
])
def test_joined_offers_match_on_the_replace_rule_edges(weights, lengths):
    # per reservoir, each row draws u on its losing edge (u * S_i == w_i
    # where the floats allow), one ulp below it (a win) or u = 0
    w = np.array(weights, dtype=np.float64)
    ends = np.cumsum(lengths)
    S, sums = 0.0, []
    with np.errstate(over="ignore"):
        for lo, hi in zip(ends - lengths, ends):
            sums += list(S + np.cumsum(w[lo:hi]))
            S = sums[-1]
    size = 9
    u = np.zeros((len(w), size))
    for i, (wi, Si) in enumerate(zip(w, sums)):
        edge = losing_edge(wi, Si)
        for j in range(size):
            u[i, j] = [edge, float(np.nextafter(edge, -1.0)) if edge > 0 else 0.0, 0.0][j % 3]
    assert not w.any() or any(u[i, 0] * Si == wi > 0 for i, (wi, Si) in enumerate(zip(w, sums)))
    for cuts in ([], [1], [2, 3], list(range(len(lengths)))):
        oracle, joined = offer_joined_and_per_block(
            w, lengths, cuts, size, lambda: StubRng(list(u.ravel()) + [0.5]))
        assert same_bank(oracle, joined)
        assert oracle.rng.random() == joined.rng.random() == 0.5


def test_offer_lengths_must_cover_the_rows():
    bank = ReservoirBank(2, 1, np.random.default_rng(3))
    with pytest.raises(ValueError, match="block lengths"):
        bank.offer_block(np.ones((4, 1)), np.ones(4), [1, 2])
