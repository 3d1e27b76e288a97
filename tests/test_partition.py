"""Flow-based constrained partitioning against the exhaustive oracle.

The load-bearing checks here are exact equalities: solver and oracle
share the fixed-point cost quantization, so on feasible instances the
two independently-searched optima must agree to the last bit.
"""

import math

import numpy as np
import pytest

from ckmeans.data import Dataset
from ckmeans.geometry import pairwise_sqdist
from ckmeans.oracle import OracleLimit, opt_constrained
from ckmeans.hyperbucket import build_compressed
from ckmeans.partition import (
    Assignment,
    InfeasiblePartitionError,
    Variant,
    _exact_total,
    partition_assign,
    partition_bound,
    partition_cost,
    quantize_costs,
)
from reference import (
    assignment_valid,
    fault_tolerant_direct,
    fault_tolerant_reduce,
    voronoi_partition,
)

LIM = OracleLimit(max_n=8, max_k=3)


def random_instance(rng, n=None, k=None):
    n = n if n is not None else int(rng.integers(3, 8))
    k = k if k is not None else int(rng.integers(2, 4))
    X = rng.normal(size=(n, 2)) * 3
    C = rng.normal(size=(k, 2)) * 3
    colors = rng.integers(0, 2, size=n)
    targets = rng.integers(0, k, size=n)
    return Dataset(X, colors, targets), C


def variants_for(n, k, rng):
    return [
        Variant.classical(),
        Variant.r_gather(int(rng.integers(1, max(2, n // k + 1)))),
        Variant.r_capacity(int(rng.integers(math.ceil(n / k), n + 1))),
        Variant.chromatic(),
        Variant.fault_tolerant(int(rng.integers(1, k + 1))),
        Variant.semi_supervised(float(rng.uniform(0.1, 0.9))),
    ]


def test_all_variants_match_oracle_exactly():
    rng = np.random.default_rng(77)
    hits = {v: 0 for v in ("classical", "r_gather", "r_capacity", "chromatic",
                           "fault_tolerant", "semi_supervised")}
    for _ in range(25):
        ds, C = random_instance(rng)
        for variant in variants_for(ds.n, C.shape[0], rng):
            got = partition_cost(ds, C, variant)
            want = opt_constrained(ds, C, variant, LIM)
            assert got == want, variant.kind  # exact: same quantization
            if math.isfinite(want):
                hits[variant.kind] += 1
    assert all(c >= 5 for c in hits.values()), hits


def test_classical_equals_voronoi():
    rng = np.random.default_rng(1)
    ds, C = random_instance(rng, n=7, k=3)
    asg = partition_assign(ds, C, Variant.classical())
    _labels, cost = voronoi_partition(ds.points, C)
    assert asg.cost == pytest.approx(cost, rel=1e-9)


def test_cost_monotone_in_constraint_tightness():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ds, C = random_instance(rng, n=6, k=2)
        base = partition_cost(ds, C, Variant.classical())
        rg = [partition_cost(ds, C, Variant.r_gather(r)) for r in (1, 2, 3)]
        rc = [partition_cost(ds, C, Variant.r_capacity(r)) for r in (6, 4, 3)]
        # tightening can only raise the optimum
        assert base <= rg[0] + 1e-12
        assert rg[0] <= rg[1] <= rg[2]
        assert base <= rc[2] + 1e-12
        assert rc[0] <= rc[1] <= rc[2]


def test_r_gather_infeasible_cases():
    rng = np.random.default_rng(5)
    ds, C = random_instance(rng, n=5, k=3)
    assert partition_cost(ds, C, Variant.r_gather(2)) == math.inf
    with pytest.raises(InfeasiblePartitionError):
        partition_assign(ds, C, Variant.r_gather(2))


def test_r_capacity_infeasible_cases():
    rng = np.random.default_rng(6)
    ds, C = random_instance(rng, n=7, k=3)
    assert partition_cost(ds, C, Variant.r_capacity(2)) == math.inf


def test_chromatic_caps_one_per_color():
    X = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5.0, 0], [5.1, 0], [5.2, 0]])
    colors = np.array([0, 1, 2, 0, 1, 2])
    ds = Dataset(X, colors)
    C = np.array([[0.0, 0.0], [5.0, 0.0]])
    asg = partition_assign(ds, C, Variant.chromatic())
    ok, bad = assignment_valid(asg, Variant.chromatic(), ds.n, 2, colors=colors)
    assert ok, bad
    # two same-colored points cannot share a center
    dup = Dataset(X[:2], np.array([0, 0]))
    assert partition_cost(dup, C[:1], Variant.chromatic()) == math.inf


def test_fault_tolerant_reduction_equals_direct():
    rng = np.random.default_rng(9)
    for _ in range(8):
        ds, C = random_instance(rng, n=6, k=3)
        l = int(rng.integers(1, 4))
        red = fault_tolerant_reduce(ds, l)
        assert red.n == ds.n * l
        via_chromatic = partition_cost(red, C, Variant.chromatic())
        direct = fault_tolerant_direct(ds.points, C, l)
        assert via_chromatic == pytest.approx(direct, rel=1e-6)
        via_variant = partition_cost(ds, C, Variant.fault_tolerant(l))
        assert via_variant == pytest.approx(direct, rel=1e-6)


def test_fault_tolerant_l_exceeding_k_infeasible():
    rng = np.random.default_rng(11)
    ds, C = random_instance(rng, n=4, k=2)
    assert partition_cost(ds, C, Variant.fault_tolerant(3)) == math.inf


def test_assignment_owner_tuples_sorted_unique():
    rng = np.random.default_rng(13)
    ds, C = random_instance(rng, n=6, k=3)
    asg = partition_assign(ds, C, Variant.fault_tolerant(2))
    for own in asg.owners:
        assert len(own) == 2
        assert own == tuple(sorted(set(own)))
    ok, bad = assignment_valid(asg, Variant.fault_tolerant(2), ds.n, 3)
    assert ok, bad


def test_assignment_valid_catches_violations():
    v = Variant.r_gather(2)
    good = Assignment([(0,), (0,), (1,), (1,)], 0.0, 0.0)
    ok, _ = assignment_valid(good, v, 4, 2)
    assert ok
    starved = Assignment([(0,), (0,), (0,), (1,)], 0.0, 0.0)
    ok, bad = assignment_valid(starved, v, 4, 2)
    assert not ok and any("r=2" in b for b in bad)
    malformed = Assignment([(0, 0), (0,), (1,), (1,)], 0.0, 0.0)
    ok, bad = assignment_valid(malformed, Variant.fault_tolerant(2), 4, 2)
    assert not ok
    wrong_len = Assignment([(0,)], 0.0, 0.0)
    ok, _ = assignment_valid(wrong_len, Variant.classical(), 4, 2)
    assert not ok


def test_semi_supervised_alpha_one_matches_classical_assignment():
    rng = np.random.default_rng(15)
    ds, C = random_instance(rng, n=6, k=2)
    a = partition_assign(ds, C, Variant.semi_supervised(1.0))
    b = partition_assign(ds, C, Variant.classical())
    assert a.cost == pytest.approx(b.cost, rel=1e-9)


def test_semi_supervised_mismatch_counted():
    X = np.array([[0.0, 0.0], [10.0, 0.0]])
    ds = Dataset(X, targets=np.array([1, 0]))
    C = X.copy()
    # alpha small: relabeling centers to match targets beats geometry
    asg = partition_assign(ds, C, Variant.semi_supervised(0.001))
    assert asg.cost <= 0.001 * 200 + 1e-9


def test_variant_validation():
    with pytest.raises(ValueError):
        Variant.r_gather(0)
    with pytest.raises(ValueError):
        Variant.fault_tolerant(0)
    with pytest.raises(ValueError):
        Variant.semi_supervised(1.5)
    with pytest.raises(ValueError):
        Variant("nonsense")


def test_quantize_costs_roundtrip_exact_in_float():
    rng = np.random.default_rng(17)
    M = rng.random((5, 3)) * 11
    w, scale = quantize_costs(M, 32)
    # the scheme guarantees int * scale is the float the oracle compares
    assert np.all((w * scale) * 0 == 0)
    assert w.max() == 2**32
    back = w * scale
    assert np.max(np.abs(back - M)) <= scale / 2 + 1e-12


def test_quantize_costs_rejects_inf():
    # every edge the solvers see is finite; +inf is not a forbidden edge
    for M in (np.array([[1.0, np.inf], [2.0, 4.0]]), np.full((1, 1), np.inf)):
        with pytest.raises(ValueError, match="finite"):
            quantize_costs(M, 8)


def test_quantize_costs_all_zero_or_empty():
    w, scale = quantize_costs(np.zeros((2, 2)), 8)
    assert scale == 0.0 and np.all(w == 0)
    w, scale = quantize_costs(np.zeros((0, 3)), 8)
    assert scale == 0.0 and w.shape == (0, 3)


def python_total(flows, w_int) -> int:
    return sum(int(f) * int(w) for f, w in zip(np.ravel(flows), np.ravel(w_int)))


def test_exact_total_equals_the_python_int_sum():
    rng = np.random.default_rng(31)
    top = 2**62
    for shape in ((500,), (200, 3), (64, 7)):
        w = rng.integers(0, top, size=shape, endpoint=True)
        w.flat[0] = top                     # the largest cost quantize_costs emits
        for flows in (np.ones(shape, dtype=np.int64),
                      rng.integers(0, 5, size=shape),
                      np.zeros(shape, dtype=np.int64)):
            assert _exact_total(flows, w) == python_total(flows, w)
        # units just below 2**32: the limbs' int64 dots are at their largest
        flows = np.zeros(shape, dtype=np.int64)
        flows.flat[0] = 2**32 - 2
        flows.flat[-1] = 1
        want = python_total(flows, w)
        assert want >= 2**93
        assert _exact_total(flows, w) == want
    # totals past 2**63 from many rows, each of them far below it
    w = np.full((1000, 2), top, dtype=np.int64)
    flows = np.ones((1000, 2), dtype=np.int64)
    assert _exact_total(flows, w) == 2000 * top > 2**63


def test_exact_total_falls_back_at_2_to_the_32_units():
    # limb dots would wrap here: 2**33 units at 2**62 each
    top = 2**62
    for flows, w in ((np.array([2**33, 3]), np.array([top, top - 1])),
                     (np.array([[2**32, 0], [0, 1]]), np.array([[top, 5], [7, top]]))):
        assert int(flows.sum()) >= 2**32
        assert _exact_total(flows, w) == python_total(flows, w)


def test_partition_bound_is_at_most_partition_cost():
    rng = np.random.default_rng(41)
    seen = {"finite": 0, "infeasible": 0}
    equal = []
    for _ in range(12):
        ds, C = random_instance(rng, n=int(rng.integers(4, 12)))
        n, k = ds.n, C.shape[0]
        variants = variants_for(n, k, rng) + [
            Variant.r_gather(n),                  # k * n units wanted from n points
            Variant.r_capacity(1),                # room for k of the n points
            Variant.fault_tolerant(k + 1),
        ]
        graph = build_compressed(ds.points, C, 0.5)
        for variant in variants:
            # a graph's keys carry no labels: variants that read one run on points
            sides = [(ds, C)]
            if variant.kind not in ("chromatic", "semi_supervised"):
                sides.append((graph, None))
            for data, centers in sides:
                for bits in (1, 8, 32, 62):
                    bound = partition_bound(data, centers, variant, precision_bits=bits)
                    cost = partition_cost(data, centers, variant, precision_bits=bits)
                    assert math.isfinite(bound) and 0.0 <= bound <= cost, (variant, bits)
                    seen["finite" if math.isfinite(cost) else "infeasible"] += 1
                    if variant.kind == "fault_tolerant" and variant.l <= k:
                        # the closed form's cost is its l cheapest costs per row
                        assert bound == cost, (variant, bits)
                        equal.append(variant.l)
    assert min(seen.values()) > 100
    assert len(equal) > 40 and max(equal) >= 2


def test_partition_bound_is_the_voronoi_cost_of_classical():
    rng = np.random.default_rng(43)
    for _ in range(10):
        ds, C = random_instance(rng)
        for bits in (8, 32, 62):
            v = Variant.classical()
            assert (partition_bound(ds, C, v, precision_bits=bits)
                    == partition_cost(ds, C, v, precision_bits=bits))


def test_partition_bound_raises_where_partition_cost_raises():
    X = np.array([[0.0, 0.0], [1e300, 0.0]])
    C = np.array([[0.0, 0.0], [1.0, 0.0]])
    kinds = [Variant.classical(), Variant.r_gather(1), Variant.r_capacity(2),
             Variant.chromatic(), Variant.fault_tolerant(1), Variant.semi_supervised(0.0)]
    labels = np.zeros(2, dtype=np.int64)
    far, near = Dataset(X, labels, labels), Dataset(X[:1], labels[:1], labels[:1])
    for variant in kinds:
        for call in (partition_bound, partition_cost):
            with pytest.raises(ValueError, match="overflows float64"):
                call(far, C, variant)
            with pytest.raises(ValueError, match="precision_bits"):
                call(near, C, variant, precision_bits=63)
    for variant, column in ((Variant.chromatic(), "color"),
                            (Variant.semi_supervised(0.5), "target")):
        for call in (partition_bound, partition_cost):
            with pytest.raises(ValueError, match=f"needs a {column} column"):
                call(X[:1], C, variant)
