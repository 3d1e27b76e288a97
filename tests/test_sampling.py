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
from reference import Reservoir

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


def chi2_ok(observed, probs, level=CHI2_LEVEL):
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(probs) * observed.sum()
    keep = expected > 0
    statistic = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    crit = stats.chi2.ppf(level, df=int(keep.sum()) - 1)
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


# bank -----------------------------------------------------------------------

def test_bank_reservoirs_are_independent():
    # same stream, different coins: banks must not collapse to one winner
    bank = ReservoirBank(512, 1, np.random.default_rng(11))
    pts = np.arange(10, dtype=np.float64).reshape(-1, 1)
    bank.offer_block(pts, np.ones(10))
    assert len(np.unique(bank.held[:, 0])) >= 8


def test_bank_of_zero_weights_holds_a_uniform_sample():
    # while the weight sum is 0 rows count with weight 1, as batch
    # d2_distribution falls back to uniform
    bank = ReservoirBank(TRIALS, 2, np.random.default_rng(13))
    bank.offer_block(np.ones((2, 2)), np.zeros(2))
    bank.offer_block(np.zeros((0, 2)), np.zeros(0))
    bank.offer_block(np.ones((3, 2)), np.zeros(3))
    assert bank.weight_sum == 0.0 and bank.sampled_points().shape == (TRIALS, 2)
    ok, statistic, crit = chi2_ok(np.bincount(bank.held_index, minlength=5), np.full(5, 0.2))
    assert ok, (statistic, crit)


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


def test_bank_replaces_past_its_threshold_only():
    # u = 1 - rng.random(); the running sums are 1, 2, 4, 4, 8.  Row 0
    # sets T = 1 / 0.5; row 1 sums to T and keeps; row 2 sets T = 4 / 1;
    # row 3 adds no weight; row 4 sets T = 8 / 0.25
    bank = ReservoirBank(1, 1, StubRng([0.5, 0.0, 0.75, 0.5]))
    bank.offer_block(np.arange(5.0)[:, None], [1.0, 1.0, 2.0, 0.0, 4.0])
    assert bank.held_index[0] == 4 and bank.rngs[0].random() == 0.5
    # u = 2**-53 takes T past float64's largest value: it never fires
    bank = ReservoirBank(1, 1, StubRng([1 - 2.0**-53, 0.5]))
    with np.errstate(all="raise"):
        bank.offer_block(np.arange(2.0)[:, None], [1e300, 1e300])
    assert bank.held_index[0] == 0 and bank.rngs[0].random() == 0.5


def jump_reference(w, u: float):
    """One reservoir walking the rows of w in turn, its every draw u: the
    held index (-1 for none), the weight sum and the draws it used."""
    first = int(np.flatnonzero(w)[0]) if w.any() else len(w)
    held, used, S, T = -1, 0, np.float64(0.0), np.float64(0.0)
    for i, wi in enumerate(w):
        if i == first:
            T = np.float64(0.0)
        S = S + wi if i >= first else S
        s = S if i >= first else np.float64(i + 1)
        if s > T:
            with np.errstate(over="ignore"):
                held, used, T = i, used + 1, s / np.float64(u)
    return held, float(S), used


@pytest.mark.parametrize("weights,lengths", [
    ([0, 0, 3, 1, 5, 0, 1, 2.5, 7, 0.1, 0.2, 4], [2, 1, 3, 1, 4, 1]),
    ([0, 0, 0, 0, 0, 0], [1, 2, 3]),                          # weight stays 0
    ([1e10, 1e-310, 3, 1e-312, 2e-310, 1], [1, 2, 1, 2]),     # subnormal w_i
    ([1e308, 1e308, 1.0, 5e307, 0, 2.0], [1, 2, 3]),          # S_i overflows to inf
])
def test_joined_offers_match_on_the_replace_rule_edges(weights, lengths):
    # draws u = 1 put T on S_j, so a row adding no weight sums to T and
    # keeps; u = 2**-53 takes T past float64's largest value.  However
    # the blocks are joined into offers, the bank holds what one scalar
    # reservoir per draw holds and draws just the rows of coins it uses;
    # the offer whose running sum overflows raises and changes nothing
    w = np.array(weights, dtype=np.float64)
    ends = np.cumsum(lengths)
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.cumsum(w))
    xs = [0.0, 0.5, 1 - 2.0**-53] * 3
    pts = np.arange(len(w), dtype=np.float64)[:, None] * 10.0
    for cuts in ([], [1], [2, 3], list(range(len(lengths)))):
        pieces = np.split(np.arange(len(w)), ends[[c for c in cuts if c < len(ends)]])
        fed = next((int(p[0]) for p in pieces if len(p) and not finite[p[-1]]), len(w))
        held, S, used = zip(*(jump_reference(w[:fed], 1.0 - x) for x in xs))
        bank = ReservoirBank(len(xs), 1, StubRng(xs * max(used) + [0.5]))
        for p in pieces:
            if len(p) and not finite[p[-1]]:
                with pytest.raises(ValueError, match="overflows float64"):
                    bank.offer_block(pts[p], w[p])
                break
            bank.offer_block(pts[p], w[p])
        assert list(bank.held_index) == list(held)
        assert np.array_equal(bank.held[:, 0], np.where(np.array(held) >= 0, pts[held, 0], 0.0))
        assert np.float64(bank.weight_sum).tobytes() == np.float64(S[0]).tobytes()
        assert bank.rngs[0].random() == 0.5


def test_bank_rejects_an_overflowing_weight_sum():
    bank = ReservoirBank(3, 1, np.random.default_rng(3))
    bank.offer_block(np.ones((1, 1)), [1e308])
    with pytest.raises(ValueError, match="a squared distance overflows float64"):
        bank.offer_block(np.ones((2, 1)), [1e308, 0.0])
    assert bank.weight_sum == 1e308 and list(bank.held_index) == [0, 0, 0]


def stream_of_kind(data, kind):
    """A weight stream of the given kind from the generator data, and
    its cuts into offers: 1-row offers and empty ones are common."""
    n = int(data.integers(1, 60))
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
    cuts = np.sort(data.integers(0, n + 1, size=data.integers(0, n)))
    return w, cuts


def offered(w, cuts, size, rng):
    bank = ReservoirBank(size, 1, rng)
    pts = np.arange(len(w), dtype=np.float64)[:, None] * 10.0
    for piece in np.split(np.arange(len(w)), cuts):
        bank.offer_block(pts[piece], w[piece])
    return bank


def same_bank(a, b) -> bool:
    return (a.held_index.tobytes() == b.held_index.tobytes()
            and a.held.tobytes() == b.held.tobytes()
            and np.float64(a.weight_sum).tobytes() == np.float64(b.weight_sum).tobytes())


SPLIT_EXAMPLES = 300


@settings(max_examples=SPLIT_EXAMPLES, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["spread", "zero prefix", "zero pass", "subnormal ratio"]))
def test_any_split_into_offers_gives_the_same_bank(s, kind):
    # held indices, held bits, the weight sum's bits and the generator's
    # next draw match those of one offer of the whole stream
    w, cuts = stream_of_kind(np.random.default_rng(s), kind)
    whole = offered(w, [], 32, np.random.default_rng(s + 1))
    split = offered(w, cuts, 32, np.random.default_rng(s + 1))
    assert same_bank(whole, split)
    assert whole.rngs[0].random() == split.rngs[0].random()


FREQUENCY_EXAMPLES = 20


@settings(max_examples=FREQUENCY_EXAMPLES, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["spread", "zero prefix", "zero pass"]))
def test_bank_holds_each_row_by_its_weight_share(s, kind):
    # P(held index = i) is w_i / S, uniform while S is 0, however the
    # stream is split; the level is shared out over the examples
    w, cuts = stream_of_kind(np.random.default_rng(s), kind)
    probs = w / w.sum() if w.any() else np.full(len(w), 1 / len(w))
    counts = np.bincount(offered(w, cuts, TRIALS, np.random.default_rng(s + 1)).held_index,
                         minlength=len(w))
    assert not counts[probs == 0].any()
    if (probs > 0).sum() > 1:
        ok, statistic, crit = chi2_ok(counts, probs,
                                      1 - (1 - CHI2_LEVEL) / FREQUENCY_EXAMPLES)
        assert ok, (statistic, crit)


@settings(max_examples=SPLIT_EXAMPLES, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 16),
       st.sampled_from(["spread", "zero prefix", "zero pass"]))
def test_a_bank_of_segments_is_one_bank_per_generator(s, segments, size, kind):
    # one bank with a segment per generator holds, after every offer, what
    # one bank per generator holds side by side: held indices and bits,
    # the weight sum's bits and words, each segment's and their sum; and
    # it leaves each generator where its own bank leaves it
    w, cuts = stream_of_kind(np.random.default_rng(s), kind)
    seeds = np.random.SeedSequence(s).spawn(segments)
    bank = ReservoirBank(size, 1, *map(np.random.default_rng, seeds))
    alone = [ReservoirBank(size, 1, np.random.default_rng(q)) for q in seeds]
    pts = np.arange(len(w), dtype=np.float64)[:, None] * 10.0
    for piece in np.split(np.arange(len(w)), cuts):
        for b in (bank, *alone):
            b.offer_block(pts[piece], w[piece])
        assert bank.held_index.tobytes() == np.concatenate([b.held_index for b in alone]).tobytes()
        assert bank.held.tobytes() == np.concatenate([b.held for b in alone]).tobytes()
        assert all(np.float64(bank.weight_sum).tobytes() == np.float64(b.weight_sum).tobytes()
                   for b in alone)
        assert bank.segment_words() == [b.words for b in alone]
        assert bank.words == sum(b.words for b in alone)
    assert [g.random() for g in bank.rngs] == [b.rngs[0].random() for b in alone]
