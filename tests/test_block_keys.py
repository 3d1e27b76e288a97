"""Array bucket keys and per-vertex peeling against scalar references.

block_keys keys a block as one int64 matrix for one or several graphs
and groups equal rows; CompressedSolution.assign_block peels each
vertex's rows at once.  The references here are the per-point forms: a
key tuple built from bucket_index cell by cell, one graph at a time,
and a greedy peel that takes one point at a time from its vertex's
remaining units (lowest center first, or every center with units left
under fault_tolerant).
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckmeans.geometry import pairwise_sqdist
from ckmeans.hyperbucket import (
    ZERO_ID,
    CompressedGraph,
    aspect_graph,
    block_keys,
    bucket_block,
    bucket_index,
    bucket_weight,
)
from ckmeans.partition import (
    InfeasiblePartitionError,
    Variant,
    compressed_partition,
    semi_supervised_cost_terms,
)
from reference import max_weight_error

EPS = 0.5


def ref_key(graph, sq_row, group):
    key = []
    for s in sq_row.tolist():
        s = 0.0 if s < graph.contract_below else s
        key.append(bucket_index(s, graph.epsilon))
    return (tuple(key), None if group is None else int(group))


def ref_weight_error(graph, X):
    sq = pairwise_sqdist(X, graph.centers)
    worst = 0.0
    for r in range(X.shape[0]):
        w = [bucket_weight(slot, graph.epsilon) for slot in ref_key(graph, sq[r], None)[0]]
        for j in range(graph.k):
            s = 0.0 if sq[r, j] < graph.contract_below else sq[r, j]
            if s == 0.0:
                worst = math.inf if w[j] != 0.0 else worst
                continue
            worst = max(worst, abs(w[j] - s) / s)
    return worst


def ref_peel(remaining, kind, keys, cost, total):
    """The per-point greedy peel; returns (owners, total) or raises."""
    owners = []
    for r, key in enumerate(keys):
        units = remaining.get(key)
        if units is None or units.sum() <= 0:
            raise InfeasiblePartitionError(r)
        if kind == "fault_tolerant":
            own = tuple(int(j) for j in np.flatnonzero(units > 0))
        else:
            own = (int(np.flatnonzero(units > 0)[0]),)
        for j in own:
            units[j] -= 1
            total += cost[r, j]
        owners.append(own)
    return owners, total


@st.composite
def instances(draw):
    k = draw(st.integers(1, 4))
    # integer grid coordinates: exact zeros, repeated keys and equidistant
    # (tied) centers all occur often
    grid = st.integers(-4, 4)
    C = np.array(draw(st.lists(st.tuples(grid, grid), min_size=k, max_size=k)), dtype=float)
    n = draw(st.integers(1, 40))
    X = np.array(draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n)), dtype=float)
    X[: min(n, k)] = C[: min(n, k)]                   # exact zeros for sure
    groups = None
    if draw(st.booleans()):
        groups = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    # in grid units: contract a squared distance of 1 to zero
    contract = draw(st.sampled_from([0.0, 1.5]))
    f = draw(st.sampled_from([1.0, 0.001, 37.5]))
    bounds = sorted({0, n, *draw(st.lists(st.integers(1, n), max_size=3))})
    return C * f, X * f, groups, contract * f * f, bounds


def blocks_of(X, groups, bounds):
    for lo, hi in zip(bounds, bounds[1:]):
        yield X[lo:hi], None if groups is None else groups[lo:hi]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances())
def test_block_keys_match_scalar_keys(inst):
    C, X, groups, contract, bounds = inst
    g = CompressedGraph(C, EPS, contract_below=contract)
    ref_vertices = {}
    for P, G in blocks_of(X, groups, bounds):
        sq = pairwise_sqdist(P, C)
        want = [ref_key(g, sq[r], None if G is None else G[r]) for r in range(len(P))]
        keys, inverse, _counts, _owner = block_keys([g], sq, G)
        assert [keys[i] for i in inverse] == want
        g.add_block(P, G)
        for key in want:
            ref_vertices[key] = ref_vertices.get(key, 0) + 1
        # same keys, counts and insertion order, also for keys seen in
        # an earlier block
        assert list(g.vertices.items()) == list(ref_vertices.items())
        # the solvers' arrays: weights bit-equal to bucket_weight slot by
        # slot, all finite, and 0.0 at zeros
        W, counts, groups = g.vertex_arrays()
        slots = np.array([key for key, _grp in ref_vertices]).reshape(-1, g.k)
        want_w = np.array([[bucket_weight(x, EPS) for x in row] for row in slots.tolist()])
        assert W.tobytes() == want_w.reshape(W.shape).tobytes()
        assert np.isfinite(W).all()
        assert np.array_equal(W == 0.0, slots == ZERO_ID)
        assert counts.tolist() == list(g.vertices.values())
        if G is None:
            assert groups is None
        else:
            assert groups.tolist() == [grp for _key, grp in g.vertices]
    assert max_weight_error(g, X) == ref_weight_error(g, X)


@st.composite
def stacks(draw):
    """m graphs of one k over one stream in d dimensions: plain graphs,
    graphs with a fixed floor, and aspect graphs, each with its own scale
    guess u."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 5))
    grid = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    f = draw(st.sampled_from([1.0, 0.001, 37.5]))
    n = draw(st.integers(1, 30))
    centers = [np.array(draw(st.lists(grid, min_size=k, max_size=k)), dtype=float) * f
               for _ in range(m)]
    X = np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float) * f
    for r in range(0, n, 3):                            # exact zeros under some graph
        j = draw(st.integers(0, m - 1))
        X[r] = centers[j][draw(st.integers(0, k - 1))]
    graphs = []
    for C in centers:
        shape = draw(st.sampled_from(["plain", "floor", "aspect"]))
        if shape == "aspect":
            # n=1 keeps the floor (u/n^2)^2 = u^2 on the grid's scale
            graphs.append(aspect_graph(C, EPS, draw(st.sampled_from([0.5, 1.0, 2.0])) * f, 1))
        elif shape == "floor":
            graphs.append(CompressedGraph(C, EPS, contract_below=1.5 * f * f))
        else:
            graphs.append(CompressedGraph(C, EPS))
    groups = None
    if draw(st.booleans()):
        groups = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    bounds = sorted({0, n, *draw(st.lists(st.integers(1, n), max_size=3))})
    return graphs, X, groups, bounds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stacks())
def test_stacked_pass_matches_each_graph_alone(inst):
    graphs, X, groups, bounds = inst
    m, k = len(graphs), graphs[0].k
    stacked = np.vstack([g.centers for g in graphs])
    refs = [{} for _ in graphs]
    for P, G in blocks_of(X, groups, bounds):
        b = P.shape[0]
        sq = pairwise_sqdist(P, stacked)
        keys, inverse, counts, owner = block_keys(graphs, sq, G)
        assert np.bincount(inverse, minlength=len(keys)).tolist() == counts.tolist()
        for j, g in enumerate(graphs):
            alone = pairwise_sqdist(P, g.centers)
            # the stacked distances are the per-graph ones, bit for bit
            assert np.array_equal(sq[:, j * k:(j + 1) * k], alone)
            for r in range(b):
                want = ref_key(g, alone[r], None if G is None else G[r])
                i = inverse[j * b + r]
                assert owner[i] == j and keys[i] == want
                refs[j][want] = refs[j].get(want, 0) + 1
        bucket_block(graphs, sq, G)
        # each graph's vertices: same keys, counts and insertion order
        for g, ref in zip(graphs, refs):
            assert list(g.vertices.items()) == list(ref.items())


def test_stacked_graphs_share_k_and_epsilon():
    P = np.zeros((2, 2))
    a = CompressedGraph(np.ones((2, 2)), EPS)
    for b in (CompressedGraph(np.ones((3, 2)), EPS), CompressedGraph(np.ones((2, 2)), 0.25)):
        with pytest.raises(ValueError, match="same k and epsilon"):
            block_keys([a, b], pairwise_sqdist(P, np.vstack([a.centers, b.centers])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances(), st.sampled_from(["classical", "r_gather", "fault_tolerant",
                                     "semi_supervised"]))
def test_peel_matches_greedy_per_point_peel(inst, kind):
    C, X, groups, contract, bounds = inst
    k = C.shape[0]
    if kind == "semi_supervised":
        groups = np.arange(X.shape[0]) % k if groups is None else groups
    elif kind != "classical":
        groups = None
    variant = {"classical": Variant.classical(),
               "r_gather": Variant.r_gather(max(1, X.shape[0] // k)),
               "fault_tolerant": Variant.fault_tolerant(min(2, k)),
               "semi_supervised": Variant.semi_supervised(0.5)}[kind]
    g = CompressedGraph(C, EPS, contract_below=contract)
    for P, G in blocks_of(X, groups, bounds):
        g.add_block(P, G)
    try:
        sol = compressed_partition(g, variant)
    except InfeasiblePartitionError:
        return
    ref = copy.deepcopy(sol.remaining)
    ref_total = sol.peeled_cost
    # two passes over the stream: the second one runs out of flow
    for _pass in range(2):
        for P, G in blocks_of(X, groups, bounds):
            sq = pairwise_sqdist(P, C)
            cost = sq if kind != "semi_supervised" else semi_supervised_cost_terms(
                sq, G, variant.alpha, sol.perm)
            keys = [ref_key(g, sq[r], None if G is None else G[r]) for r in range(len(P))]
            try:
                want, ref_total = ref_peel(ref, kind, keys, cost, ref_total)
            except InfeasiblePartitionError:
                before = copy.deepcopy(sol.remaining)
                with pytest.raises(InfeasiblePartitionError):
                    sol.assign_block(P, G)
                # an overdrawn block takes no unit
                assert all(np.array_equal(before[v], sol.remaining[v]) for v in before)
                assert _pass == 1
                return
            assert sol.assign_block(P, G) == want
            assert sol.peeled_cost == ref_total         # bit-equal, same order
            assert all(np.array_equal(ref[v], sol.remaining[v]) for v in ref)
    pytest.fail("the second pass never ran out of flow")


def test_peel_rejects_a_vertex_outside_the_graph():
    C = np.array([[0.0, 0.0], [10.0, 0.0]])
    g = CompressedGraph(C, EPS)
    g.add_block(np.array([[1.0, 0.0], [9.0, 0.0]]))
    sol = compressed_partition(g, Variant.classical())
    with pytest.raises(InfeasiblePartitionError):
        sol.assign_block(np.array([[1.0, 0.0], [4.0, 3.0]]))
    assert sol.assign_block(np.array([[9.0, 0.0], [1.0, 0.0]])) == [(1,), (0,)]
