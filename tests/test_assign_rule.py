"""partition_assign against the per-point loop it replaced.

For a flow, a raw-point left side is a compressed graph whose vertices
have count 1, so partition_assign reads owners off flows > 0 and sums
the real cost with the running sum that CompressedSolution.assign_block
uses.  The reference here is the per-point form: each point's owners
read off its own flow row, or, for a closed form, off its float rule
(reference.closed_form_rule), and the cost summed in Python over the
(blended) edge costs, point by point, then owner by owner.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckmeans.data import Dataset
from ckmeans.geometry import pairwise_sqdist
from ckmeans.hyperbucket import build_compressed
from ckmeans.partition import (
    CLOSED_FORM,
    VARIANT_KINDS,
    InfeasiblePartitionError,
    Variant,
    _LeftSide,
    _solve_left,
    compressed_partition,
    owner_mask,
    partition_assign,
    partition_cost,
    semi_supervised_cost_terms,
    semi_supervised_row_mins,
)
from ckmeans.cli import _dump, _jsonable, _write_assignment_csv
from ckmeans.geometry import row_min
from reference import assignment_valid, closed_form_rule


@st.composite
def instances(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 24))
    # integer grid coordinates, so equidistant (tied) centers occur often
    grid = st.integers(-3, 3)
    C = np.array(draw(st.lists(st.tuples(grid, grid), min_size=k, max_size=k)), dtype=float)
    X = np.array(draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n)), dtype=float)
    f = draw(st.sampled_from([1.0, 0.1, 37.5]))
    # one color too few for a feasible chromatic instance at the low end
    palette = draw(st.integers(max(1, -(-n // k) - 1), n))
    colors = np.array(draw(st.permutations(range(n)))) % palette
    targets = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    return Dataset(X * f, colors, targets), C * f


def variant_of(kind, n, k, param):
    return {
        "classical": Variant.classical(),
        "r_gather": Variant.r_gather(1 + param % max(1, n // k)),
        "r_capacity": Variant.r_capacity(-(-n // k) + param % 3),
        "chromatic": Variant.chromatic(),
        "fault_tolerant": Variant.fault_tolerant(1 + param % k),
        "semi_supervised": Variant.semi_supervised([0.0, 0.25, 0.5, 1.0][param % 4]),
    }[kind]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 11), st.sampled_from([32, 62]))
def test_partition_assign_matches_per_point_loop(inst, param, bits):
    ds, C = inst
    n, k = ds.n, C.shape[0]
    for kind in VARIANT_KINDS:
        variant = variant_of(kind, n, k, param)
        groups = {"chromatic": ds.colors, "semi_supervised": ds.targets}.get(kind)
        W = pairwise_sqdist(ds.points, C)
        if kind in CLOSED_FORM:
            total, owners = closed_form_rule(W, variant, groups)
        else:
            solved = _solve_left(_LeftSide(W, np.ones(n, dtype=np.int64), groups), variant, bits)
            owners = None if solved is None else [
                tuple(int(j) for j in np.flatnonzero(row > 0)) for row in solved[2]]
        if owners is None:
            with pytest.raises(InfeasiblePartitionError):
                partition_assign(ds, C, variant, precision_bits=bits)
            assert partition_cost(ds, C, variant, precision_bits=bits) == math.inf
            continue
        if kind not in CLOSED_FORM:
            total = 0.0
            for v, own in enumerate(owners):
                for j in own:
                    total += W[v, j]

        asg = partition_assign(ds, C, variant, precision_bits=bits)
        assert asg.owners.dtype == np.intp, variant
        assert asg.owners.shape == (n, len(owners[0])), variant
        assert np.array_equal(asg.owners, owners), variant
        assert repr(asg.cost) == repr(total), variant       # bit-equal, same order
        if kind in CLOSED_FORM:
            assert repr(asg.flow_cost) == repr(float(total)), variant
        ok, bad = assignment_valid(asg, variant, n, k, colors=ds.colors, targets=ds.targets)
        assert ok, bad


def test_owner_sets_beyond_64_centers(tmp_path):
    """fault_tolerant owner sets over k = 70 centers, l = 3: a code that
    packed a set into one int64 would overflow from center 63 up.  The
    owner array holds each point's ascending set, and both CLI writers
    write the text they wrote for the same sets as tuples: json's own
    indent=2 output, and one `point,a;b;c` line per point."""
    rng = np.random.default_rng(5)
    k, n = 70, 700
    C = rng.uniform(-10.0, 10.0, size=(k, 2))
    X = rng.uniform(-10.0, 10.0, size=(n, 2))
    W = pairwise_sqdist(X, C)
    # the owner rule on the float costs: each point's 3 cheapest by a stable sort
    want = [tuple(sorted(row)) for row in np.argsort(W, axis=1, kind="stable")[:, :3].tolist()]
    assert len({own for own in want if max(own) >= 63}) > 10
    assert np.array_equal(owner_mask(W, 3).nonzero()[1].reshape(n, 3), want)
    owners = partition_assign(X, C, Variant.fault_tolerant(3)).owners
    assert owners.shape == (n, 3) and np.array_equal(owners, want)
    summary = {"owners": owners, "cost": 1.5, "n": n}
    assert _dump(summary) == json.dumps(_jsonable({**summary, "owners": want}),
                                        sort_keys=True, indent=2) + "\n"
    _write_assignment_csv(tmp_path / "a.csv", owners)
    assert (tmp_path / "a.csv").read_text() == "point,owners\n" + "".join(
        f"{i},{a};{b};{c}\n" for i, (a, b, c) in enumerate(want))


@pytest.mark.parametrize("shape", [(40, 3), (40, 7), (4, 9, 5)])
def test_owner_mask_takes_the_first_l_of_a_stable_sort(shape):
    # small integer costs: many rows hold ties
    w = np.random.default_rng(sum(shape)).integers(0, 4, size=shape).astype(float)
    k = shape[-1]
    order = np.argsort(w, axis=-1, kind="stable")
    for l in range(1, k + 1):
        want = np.zeros(shape, dtype=bool)
        np.put_along_axis(want, order[..., :l], True, axis=-1)
        assert np.array_equal(owner_mask(w, l), want), l


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
def test_semi_supervised_row_mins_equal_the_blends_row_minima(alpha):
    # the closed forms' semi_supervised row minima, taken without blending,
    # are bit-equal to row minima of the full blend
    rng = np.random.default_rng(int(alpha * 10) + 61)
    for _ in range(30):
        m, rows, k = (int(v) for v in rng.integers(1, 6, 3))
        D = rng.normal(size=(m, rows, k)) ** 2 * 10.0 ** rng.uniform(-6, 6)
        D[rng.random(D.shape) < 0.2] = 0.0      # coincident points
        targets = rng.integers(0, k + 2, rows)  # k and k + 1 match no center
        perms = list(itertools.permutations(range(k)))
        mins = list(semi_supervised_row_mins(D, targets, alpha, perms))
        for perm, low in zip(perms, mins):
            want = semi_supervised_cost_terms(D, targets, alpha, perm)
            assert np.array_equal(low, want.min(axis=-1))
            assert np.array_equal(row_min(want), low)


def test_label_columns_and_graphs_are_checked_once():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    C = np.array([[0.0, 0.0], [5.0, 0.0]])
    for variant, column in ((Variant.chromatic(), "color"),
                            (Variant.semi_supervised(0.5), "target")):
        message = f"{variant.kind} needs a {column} column"
        for call in (partition_cost, partition_assign):
            with pytest.raises(ValueError, match=message):
                call(X, C, variant)
        graph = build_compressed(X, C, 0.5)
        with pytest.raises(ValueError, match=message):
            partition_cost(graph, None, variant)
        with pytest.raises(ValueError, match=message):
            compressed_partition(graph, variant)
    with pytest.raises(TypeError):
        partition_assign(build_compressed(X, C, 0.5), C, Variant.classical())
    # a graph's peel hands out one owner per unit
    with pytest.raises(ValueError, match="fault_tolerant is peeled by its closed form"):
        compressed_partition(build_compressed(X, C, 0.5), Variant.fault_tolerant(1))
