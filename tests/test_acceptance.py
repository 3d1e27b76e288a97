"""Release gate: one test per acceptance criterion.

Every test prints exactly one `criterion N (...): PASS|FAIL` line (visible
with `pytest -s`, and mirrored by the PASSED/FAILED verdict of the test
itself), then asserts.  Tolerances are stated inline next to each check.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats

from ckmeans.data import Dataset, duplicate_groups, gaussian_groups
from ckmeans.geometry import (
    delta_cost,
    min_cost_matching,
    pairwise_sqdist,
    psi_cost,
)
from ckmeans.hyperbucket import CompressedGraph, build_compressed
from ckmeans.listgen import GoodCentersConfig, good_centers
from ckmeans.oracle import opt_constrained, opt_kmeans
from ckmeans.partition import Variant, partition_cost
from ckmeans.sampling import ReservoirBank, d2_distribution, d2_sample
from ckmeans.seeding import d2_seed
from ckmeans.stability import (
    check_beta_distributed,
    check_irreducible,
    check_weak_deletion,
    gap_instance,
    gap_merged_cost_exact,
)
from ckmeans.streaming import ArraySource, SpaceMeter, batch_solve, full_pipeline
from reference import row_keys


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}): {detail}"


def chi2_ok(observed, probs, level=0.99):
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(probs) * observed.sum()
    keep = expected > 0
    statistic = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    crit = float(stats.chi2.ppf(level, df=int(keep.sum()) - 1))
    return statistic <= crit, statistic, crit


# -----------------------------------------------------------------------------
# 1. planted-instance reproduction: some candidate matches the planted
#    optimum within (1 + eps) in at least 15 of 20 seeded trials

def test_criterion_1_planted_candidate_reproduction():
    t0 = time.perf_counter()
    eps = 0.5
    cfg = GoodCentersConfig(t=3, epsilon=eps, preset="desk",
                            eta=16, tau=2, repetitions=5, subset_budget=300)
    wins = 0
    for i in range(20):
        data_rng = np.random.default_rng(1000 + i)
        if i < 10:
            ds, info = duplicate_groups(36, 3, rng=data_rng)
        else:
            ds, info = gaussian_groups(48, 3, sigma=0.02, rng=data_rng)
        labels = np.asarray(info["labels"])
        parts = [ds.points[labels == c] for c in range(3)]
        opt = sum(delta_cost(p) for p in parts)
        rng = np.random.default_rng(2000 + i)
        seed = d2_seed(ds.points, 3, rng=rng)
        cands = good_centers(ds.points, seed.centers, cfg, rng)
        best = min(psi_cost(e.centers, parts)[0] for e in cands.entries)
        wins += best <= (1.0 + eps) * opt + 1e-12
    elapsed = time.perf_counter() - t0
    ok = wins >= 15 and elapsed < 120.0
    report(1, "planted candidate reproduction", ok,
           f"{wins}/20 trials within 1.5x, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 2. partition exactness: flow cost equals the exhaustive constrained
#    optimum, exact fixed-point equality, all six variants

def test_criterion_2_partition_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = {kind: 0 for kind in ["classical", "r_gather", "r_capacity",
                                    "chromatic", "fault_tolerant",
                                    "semi_supervised"]}
    mismatches = []
    for _ in range(50):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        pts = rng.random((n, 2)) * 4
        centers = rng.random((k, 2)) * 4
        m = math.ceil(n / k)
        ds = Dataset(pts, colors=rng.permutation(np.arange(n) % m),
                     targets=rng.integers(0, k, n))
        variants = [
            Variant.classical(),
            Variant.r_gather(int(rng.integers(1, max(2, n // k + 1)))),
            Variant.r_capacity(int(rng.integers(math.ceil(n / k), n + 1))),
            Variant.chromatic(),
            Variant.fault_tolerant(int(rng.integers(1, k + 1))),
            Variant.semi_supervised(float(rng.random())),
        ]
        for v in variants:
            got = partition_cost(ds, centers, v)
            want = opt_constrained(ds, centers, v)
            if got != want:          # exact equality, no tolerance
                mismatches.append((v.kind, got, want))
            checked[v.kind] += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatches and all(c == 50 for c in checked.values()) \
        and elapsed < 300.0
    report(2, "partition exactness", ok,
           f"{sum(checked.values())} exact comparisons, "
           f"{len(mismatches)} mismatches, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 3. compression fidelity: compressed flow within (1 + 3 eps) of exact,
#    and every bucketed weight inside [w, (1 + eps) w] at n = 500

def test_criterion_3_compression_fidelity():
    rng = np.random.default_rng(12)
    band_violations = 0
    for _ in range(50):
        n = int(rng.integers(20, 51))
        k = int(rng.integers(2, 4))
        X = rng.normal(size=(n, 2)) * 3
        C = rng.normal(size=(k, 2)) * 3
        exact = partition_cost(X, C, Variant.classical())
        for eps in (0.1, 0.5):
            comp = partition_cost(build_compressed(X, C, eps), C,
                                  Variant.classical())
            if not (comp <= exact * (1 + 1e-9)
                    and exact <= comp * (1 + 3 * eps)):
                band_violations += 1

    soundness_violations = 0
    for eps in (0.1, 0.5):
        X = rng.normal(size=(500, 3)) * 5
        C = rng.normal(size=(4, 3)) * 5
        g = CompressedGraph(C, eps)
        true = pairwise_sqdist(X, C)
        keys = row_keys(g, X)
        g.add_block(X)
        row = {key: i for i, key in enumerate(g.vertices)}
        for i, s in enumerate(g.vertex_arrays()[0][[row[key] for key in keys]]):
            w = true[i]
            # representatives round down: s <= w < s * (1 + eps)
            bad = (s > w + 1e-12) | (s * (1 + eps) < w - 1e-12)
            soundness_violations += int(bad.sum())
    ok = band_violations == 0 and soundness_violations == 0
    report(3, "compression fidelity", ok,
           f"100 flow bands, {band_violations} violations; "
           f"4000 edge weights, {soundness_violations} out of band")


# -----------------------------------------------------------------------------
# 4. streaming equivalence: 4 passes (5 with aspect removal), median
#    paired gap to batch <= 5%, and peak space linear in log2(n)

def test_criterion_4_streaming_equivalence_and_space():
    cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                            eta=16, tau=2, repetitions=4, subset_budget=150)
    gaps, passes_ok = [], True
    for s in range(20):
        ds, _ = duplicate_groups(36, 3, rng=np.random.default_rng(3000 + s))
        br = batch_solve(ds, 3, Variant.classical(), cfg,
                         np.random.default_rng(4000 + s))
        pr = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(),
                           cfg, np.random.default_rng(4000 + s))
        passes_ok &= pr.passes_used == 4
        gaps.append(abs(pr.cost - br.cost) / br.cost if br.cost > 0
                    else abs(pr.cost - br.cost))
    median_gap = float(np.median(gaps))

    small_cfg = GoodCentersConfig(t=3, epsilon=0.5, preset="desk",
                                  eta=8, tau=2, repetitions=2, subset_budget=20)
    peaks = []
    sizes = (10**3, 10**4, 10**5)
    for n in sizes:
        ds, _ = gaussian_groups(n, 3, sigma=0.05, rng=np.random.default_rng(n))
        meter = SpaceMeter()
        res = full_pipeline(ArraySource(ds, block=2048), 3, Variant.classical(),
                            small_cfg, np.random.default_rng(7),
                            chunk=math.ceil(math.sqrt(n * 3)), meter=meter)
        passes_ok &= res.passes_used == 4
        peaks.append(meter.peak_points)
    x = np.log2(sizes)
    y = np.asarray(peaks, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = intercept + slope * x
    r2 = 1.0 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()

    ds, _ = duplicate_groups(36, 3, rng=np.random.default_rng(5000))
    aspect = full_pipeline(ArraySource(ds, block=16), 3, Variant.classical(),
                           cfg, np.random.default_rng(5001), aspect_removal=True)

    ok = passes_ok and median_gap <= 0.05 and r2 >= 0.9 \
        and aspect.passes_used == 5
    report(4, "streaming equivalence and space", ok,
           f"median gap {median_gap:.4f}, R^2 {r2:.3f}, peaks {peaks}, "
           f"aspect passes {aspect.passes_used}")


# -----------------------------------------------------------------------------
# 5. sampler statistics: chi-square at 99% over 1e5 trials for both
#    samplers, plus exhaustive rational decision-tree equality to n = 6

def exact_hold_probabilities(weights):
    S = Fraction(0)
    dist = {None: Fraction(1)}
    for i, w in enumerate(weights):
        w = Fraction(w)
        S += w
        if w == 0:
            continue
        p = w / S
        nxt = {}
        for held, mass in dist.items():
            nxt[held] = nxt.get(held, Fraction(0)) + mass * (1 - p)
            nxt[i] = nxt.get(i, Fraction(0)) + mass * p
        dist = nxt
    return dist


def test_criterion_5_sampler_statistics():
    trials = 100_000
    weights = np.array([3.0, 1.0, 4.0, 1.0, 0.0, 5.0, 9.0, 2.0])
    probs = weights / weights.sum()
    bank = ReservoirBank(trials, 1, np.random.default_rng(99))
    bank.offer_block(np.arange(8, dtype=np.float64).reshape(-1, 1), weights)
    counts = np.bincount(bank.held[:, 0].astype(np.int64), minlength=8)
    res_ok, res_stat, res_crit = chi2_ok(counts, probs)

    rng = np.random.default_rng(2024)
    X = rng.normal(size=(8, 2)) * 3
    C = rng.normal(size=(2, 2))
    idx = d2_sample(X, C, trials, rng)
    d2_ok, d2_stat, d2_crit = chi2_ok(np.bincount(idx, minlength=8),
                                      d2_distribution(X, C))

    values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
    streams = checked = 0
    tree_ok = True
    for n in range(1, 7):
        for ws in itertools.product(values, repeat=n):
            S = sum(ws)
            if S == 0:
                continue
            streams += 1
            dist = exact_hold_probabilities(ws)
            for i, w in enumerate(ws):
                checked += 1
                want = w / S if w > 0 else Fraction(0)
                tree_ok &= dist.get(i, Fraction(0)) == want

    ok = res_ok and d2_ok and tree_ok
    report(5, "sampler statistics", ok,
           f"reservoir chi2 {res_stat:.1f}<={res_crit:.1f}, "
           f"d2 chi2 {d2_stat:.1f}<={d2_crit:.1f}, "
           f"{streams} rational streams / {checked} marginals exact")


# -----------------------------------------------------------------------------
# 6. the two-cluster gap fixture, all facts exact

def exact_cluster_cost(pts, members):
    d = len(pts[0])
    mu = [sum(pts[i][j] for i in members) / len(members) for j in range(d)]
    return sum(sum((pts[i][j] - mu[j]) ** 2 for j in range(d)) for i in members)


def exact_opt2(pts):
    n = len(pts)
    best = None
    for mask in range(1, 2 ** (n - 1)):
        g1 = [i + 1 for i in range(n - 1) if (mask >> i) & 1]
        g0 = [i for i in range(n) if i not in g1]
        c = exact_cluster_cost(pts, g0) + exact_cluster_cost(pts, g1)
        if best is None or c < best:
            best = c
    return best


def test_criterion_6_gap_fixture_exact_facts():
    facts = []
    for n in (4, 6, 8):
        inst = gap_instance(n)
        facts.append(exact_opt2(inst.exact_points) == Fraction(n - 2))
        facts.append(inst.opt_cost == Fraction(n - 2))
        merged = gap_merged_cost_exact(inst)
        facts.append(merged == n * (1 + 2 * inst.epsilon ** 2))
        facts.append(merged == inst.merged_cost)
        facts.append(check_beta_distributed(inst.dataset.points,
                                            inst.labels, 0.5).passed)
    weak = check_weak_deletion(gap_instance(8).dataset.points,
                               gap_instance(8).labels, 0.5)
    facts.append(not weak.passed)
    ok = all(facts)
    report(6, "gap fixture exact facts", ok,
           f"{sum(facts)}/{len(facts)} facts hold "
           f"(opt = n-2, merged = n(1+2e^2), beta 1/2 passes, "
           f"deletion gamma 1/2 fails at n=8)")


# -----------------------------------------------------------------------------
# 7. implication chain: irreducible => weak deletion => distributed/4,
#    no counterexamples over 50 random oracle-scale instances

def test_criterion_7_implication_chain():
    rng = np.random.default_rng(32)
    fired_irr = fired_wd = counterexamples = 0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        k = min(int(rng.integers(2, 4)), n - 1)
        if rng.random() < 0.5:
            X = rng.random((n, 2)) * 3.0
        else:
            sites = rng.normal(0, 4.0, (k, 2))
            X = sites[rng.integers(0, k, n)] + rng.normal(0, 0.2, (n, 2))
        _cost, labels = opt_kmeans(X, k)
        for gamma in (0.05, 0.2, 0.5, 1.0):
            if check_irreducible(X, k, gamma).passed:
                fired_irr += 1
                if not check_weak_deletion(X, labels, gamma).passed:
                    counterexamples += 1
            if check_weak_deletion(X, labels, gamma).passed:
                fired_wd += 1
                if not check_beta_distributed(X, labels, gamma / 4.0).passed:
                    counterexamples += 1
    ok = counterexamples == 0 and fired_irr >= 15 and fired_wd >= 15
    report(7, "stability implication chain", ok,
           f"{counterexamples} counterexamples "
           f"({fired_irr} irreducible and {fired_wd} deletion premises fired)")


# -----------------------------------------------------------------------------
# 8. matching optimality: assignment solver equals factorial enumeration

def test_criterion_8_matching_equals_enumeration():
    rng = np.random.default_rng(88)
    compared = mismatches = 0
    for t in range(1, 7):
        for _ in range(100):
            M = rng.random((t, t)) * 10
            got, pi = min_cost_matching(M)
            want = min(sum(M[i, p[i]] for i in range(t))
                       for p in itertools.permutations(range(t)))
            achieved = sum(M[i, pi[i]] for i in range(t))
            compared += 1
            if not (got == want and achieved == got):  # exact equality
                mismatches += 1
    ok = mismatches == 0
    report(8, "matching equals enumeration", ok,
           f"{compared} matrices (t = 1..6), {mismatches} mismatches")
