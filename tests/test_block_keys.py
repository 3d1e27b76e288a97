"""Array bucket keys and per-vertex peeling against scalar references.

KeyBuilder keys a block for one or several graphs: it groups the
block's rows once over the graphs' distinct centers and projects the
distinct rows onto each graph.  A stream pass counts its blocks' rows
into a row table first and projects the table when it is full and at
the end of the pass.  CompressedSolution.assign_block peels each
vertex's rows at once.  The references here are the per-point forms: a
key tuple built from bucket_index cell by cell, one graph at a time,
and a greedy peel that takes one point at a time from its vertex's
remaining units, lowest center first.  Keys are compared read back as
slot tuples through reference.vertex_key.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckmeans.geometry import pairwise_sqdist
from ckmeans.hyperbucket import (
    ZERO_ID,
    CompressedGraph,
    KeyBuilder,
    _distinct_rows,
    aspect_graph,
    bucket_index,
    bucket_weight,
)
from ckmeans.partition import (
    InfeasiblePartitionError,
    Variant,
    compressed_partition,
)
from reference import max_weight_error, row_keys, vertex_items, vertex_key

EPS = 0.5


def ref_key(graph, sq_row):
    key = []
    for s in sq_row.tolist():
        s = 0.0 if s < graph.contract_below else s
        key.append(bucket_index(s, graph.epsilon))
    return tuple(key)


def ref_weight_error(graph, X):
    sq = pairwise_sqdist(X, graph.centers)
    worst = 0.0
    for r in range(X.shape[0]):
        w = [bucket_weight(slot, graph.epsilon) for slot in ref_key(graph, sq[r])]
        for j in range(graph.k):
            s = 0.0 if sq[r, j] < graph.contract_below else sq[r, j]
            if s == 0.0:
                worst = math.inf if w[j] != 0.0 else worst
                continue
            worst = max(worst, abs(w[j] - s) / s)
    return worst


def ref_peel(remaining, keys, cost, total):
    """The per-point greedy peel; returns (owners, total) or raises."""
    owners = []
    for r, key in enumerate(keys):
        units = remaining.get(key)
        if units is None or units.sum() <= 0:
            raise InfeasiblePartitionError(r)
        j = int(np.flatnonzero(units > 0)[0])
        units[j] -= 1
        total += cost[r, j]
        owners.append((j,))
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
    # in grid units: contract a squared distance of 1 to zero
    contract = draw(st.sampled_from([0.0, 1.5]))
    f = draw(st.sampled_from([1.0, 0.001, 37.5]))
    bounds = sorted({0, n, *draw(st.lists(st.integers(1, n), max_size=3))})
    return C * f, X * f, contract * f * f, bounds


def blocks_of(X, bounds):
    for lo, hi in zip(bounds, bounds[1:]):
        yield X[lo:hi]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances())
def test_block_keys_match_scalar_keys(inst):
    C, X, contract, bounds = inst
    g = CompressedGraph(C, EPS, contract_below=contract)
    ref_vertices = {}
    for P in blocks_of(X, bounds):
        sq = pairwise_sqdist(P, C)
        want = [ref_key(g, sq[r]) for r in range(len(P))]
        assert [vertex_key(key) for key in row_keys(g, P)] == want
        g.add_block(P)
        for key in want:
            ref_vertices[key] = ref_vertices.get(key, 0) + 1
        # same keys, counts and insertion order, also for keys seen in
        # an earlier block
        assert vertex_items(g) == list(ref_vertices.items())
        # the solvers' arrays: weights bit-equal to bucket_weight slot by
        # slot, all finite, and 0.0 at zeros
        W, counts = g.vertex_arrays()
        slots = np.array(list(ref_vertices)).reshape(-1, g.k)
        want_w = np.array([[bucket_weight(x, EPS) for x in row] for row in slots.tolist()])
        assert W.tobytes() == want_w.reshape(W.shape).tobytes()
        assert np.isfinite(W).all()
        assert np.array_equal(W == 0.0, slots == ZERO_ID)
        assert counts.tolist() == list(g.vertices.values())
    assert max_weight_error(g, X) == ref_weight_error(g, X)


@st.composite
def stacks(draw):
    """m graphs of one k over one stream in d dimensions: plain graphs,
    graphs with a fixed floor, and aspect graphs, each with its own
    d_star."""
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
            # n=1 keeps the floor (u/n^2)^2 = u^2 on the grid's scale, u the
            # larger of d_star and the largest center gap
            graphs.append(aspect_graph(C, EPS, draw(st.sampled_from([0.5, 1.0, 2.0])) * f, 1))
        elif shape == "floor":
            graphs.append(CompressedGraph(C, EPS, contract_below=1.5 * f * f))
        else:
            graphs.append(CompressedGraph(C, EPS))
    bounds = sorted({0, n, *draw(st.lists(st.integers(1, n), max_size=3))})
    return graphs, X, bounds


def check_stacked_pass(graphs, X, bounds):
    """Key every block for all graphs at once and compare each graph's
    keys, counts and vertices with the scalar reference, block by block:
    the block's distinct slot rows projected alone, and the row table."""
    k = graphs[0].k
    kb = KeyBuilder(graphs)
    stacked = np.vstack([g.centers for g in graphs])
    assert np.array_equal(kb.centers[kb.col].view(np.int64), stacked.view(np.int64))
    refs = [{} for _ in graphs]
    for P in blocks_of(X, bounds):
        b = P.shape[0]
        sq = pairwise_sqdist(P, kb.centers)
        M = kb.slot_rows(sq)
        first, _inverse, counts = _distinct_rows(M)
        keys, counts, owner = kb.project(M[first], counts)
        assert len(set(zip(owner, keys))) == len(keys)      # distinct per graph
        for j, g in enumerate(graphs):
            alone = pairwise_sqdist(P, g.centers)
            # the projected distances are the per-graph ones, bit for bit
            assert np.array_equal(sq[:, kb.col[j * k:(j + 1) * k]], alone)
            block = {}
            for r in range(b):
                want = ref_key(g, alone[r])
                block[want] = block.get(want, 0) + 1
                refs[j][want] = refs[j].get(want, 0) + 1
            # graph j's keys and counts, in order of first occurrence
            assert [(vertex_key(key), c) for key, c, o in zip(keys, counts.tolist(), owner)
                    if o == j] == list(block.items())
        kb.bucket_block(sq)
        kb.flush()
        # each graph's vertices: same keys, counts and insertion order
        for g, ref in zip(graphs, refs):
            assert vertex_items(g) == list(ref.items())
    return kb


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stacks())
def test_stacked_pass_matches_each_graph_alone(inst):
    check_stacked_pass(*inst)


@st.composite
def shared_stacks(draw):
    """m graphs whose centers come from one pool of 2k points, as a
    list's candidates do from the 2k seed centers: graph 0 repeats a
    center, and a plain, a floor and an aspect graph share pool point 0,
    so one distinct center carries several floors."""
    k = draw(st.integers(2, 3))
    m = draw(st.integers(3, 6))
    d = draw(st.integers(1, 3))
    f = draw(st.sampled_from([1.0, 0.001, 37.5]))
    grid = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    pool = np.array(draw(st.lists(grid, min_size=2 * k, max_size=2 * k)), dtype=float) * f
    picks = [draw(st.lists(st.integers(0, 2 * k - 1), min_size=k, max_size=k))
             for _ in range(m)]
    picks[0][1] = picks[0][0]
    for j in range(3):
        picks[j][draw(st.integers(0, k - 1))] = 0
    n = draw(st.integers(1, 30))
    X = np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float) * f
    for r in range(0, n, 2):                            # exact zeros on pool points
        X[r] = pool[draw(st.integers(0, 2 * k - 1))]
    shapes = ["plain", "floor", "aspect"] + [
        draw(st.sampled_from(["plain", "floor", "aspect"])) for _ in range(m - 3)]
    graphs = []
    for j, (pick, shape) in enumerate(zip(picks, shapes)):
        C = pool[pick]
        if shape == "aspect":
            graphs.append(aspect_graph(C, EPS, draw(st.sampled_from([0.5, 1.0, 2.0])) * f, 1))
        elif shape == "floor":
            # past graph 1, whose floor must differ from graph 2's aspect
            # floor, whole numbers too: grid points land on them exactly
            floors = [0.5, 1.5, 2.5, 4.5] + ([1.0, 2.0, 4.0] if j > 1 else [])
            below = draw(st.sampled_from(floors))
            graphs.append(CompressedGraph(C, EPS, contract_below=below * f * f))
        else:
            graphs.append(CompressedGraph(C, EPS))
    bounds = sorted({0, n, *draw(st.lists(st.integers(1, n), max_size=3))})
    return graphs, X, bounds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shared_stacks())
def test_shared_centers_key_like_each_graph_alone(inst):
    graphs, X, _bounds = inst
    kb = check_stacked_pass(*inst)
    m, k = len(graphs), graphs[0].k
    assert len(kb.centers) < m * k
    # pool point 0 is one distinct center with three floors: 0, a fixed
    # floor and an aspect floor
    assert len({g.contract_below for g in graphs[:3]}) == 3


@st.composite
def table_streams(draw):
    """A shared stack fed in blocks of 1, 7 or more than n rows."""
    graphs, X, _bounds = draw(shared_stacks())
    n = X.shape[0]
    b = draw(st.sampled_from([1, 7, n + 5]))
    return graphs, [X[lo:lo + b] for lo in range(0, n, b)]


def feed_table(kb, blocks):
    """Count every block into kb's row table and flush once at the end.
    Pins the table's bound after each block and records every flush of
    a non-empty table as (its rows, the rows of the block being
    counted, or None at the end of the pass)."""
    flushes, current = [], [None]
    flush = kb.flush

    def spy():
        b = current[0]
        if kb.table:
            # mid-pass, only a full table projects the table
            assert b is None or len(kb.table) >= b
            flushes.append((len(kb.table), b))
        flush()
    kb.flush = spy
    for P in blocks:
        b = P.shape[0]
        current[0] = b
        before = list(kb.table)
        kb.bucket_block(pairwise_sqdist(P, kb.centers))
        # a block leaves at most its own row count in the table, or only
        # added points to rows already there
        assert len(kb.table) <= b or list(kb.table) == before
    current[0] = None
    kb.flush()
    assert not kb.table
    return flushes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table_streams())
def test_row_table_spans_blocks_like_each_graph_alone(inst):
    graphs, blocks = inst
    kb = KeyBuilder(graphs)
    feed_table(kb, blocks)
    refs = [{} for _ in graphs]
    for P in blocks:
        for g, ref in zip(graphs, refs):
            alone = pairwise_sqdist(P, g.centers)
            for r in range(P.shape[0]):
                key = ref_key(g, alone[r])
                ref[key] = ref.get(key, 0) + 1
    # each graph's vertices: same keys, counts and insertion order
    for g, ref in zip(graphs, refs):
        assert vertex_items(g) == list(ref.items())


def test_row_table_holds_at_most_a_block():
    # one center at 0 and points at 1.5^i: every point has its own
    # bucket, so every row of the stream is new
    g = CompressedGraph(np.zeros((1, 1)), EPS)
    X = 1.5 ** np.arange(12.0)[:, None]
    kb = KeyBuilder([g])
    flushes = feed_table(kb, [X[lo:lo + 4] for lo in range(0, 12, 4)])
    # the table fills to a block's 4 rows; the next new row projects it
    assert flushes == [(4, 4), (4, 4), (4, None)]
    assert list(g.vertices.values()) == [1] * 12
    # rows already in a full table only add points: no projection
    g = CompressedGraph(np.zeros((1, 1)), EPS)
    kb = KeyBuilder([g])
    flushes = feed_table(kb, [X[:4], X[3::-1], X[:2]])
    assert flushes == [(4, None)]
    assert list(g.vertices.values()) == [3, 3, 2, 2]
    # a smaller block is a smaller bound: its first new row projects a
    # table that a larger block filled
    g = CompressedGraph(np.zeros((1, 1)), EPS)
    kb = KeyBuilder([g])
    flushes = feed_table(kb, [X[:4], X[:1], X[4:5]])
    assert flushes == [(4, 1), (1, None)]
    assert len(g.vertices) == 5


def test_key_width_is_one_column_per_center_floor_pair():
    a, b, c = [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]
    X = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])

    def widths(graphs):
        kb = KeyBuilder(graphs)
        return len(kb.centers), kb.slot_rows(pairwise_sqdist(X, kb.centers)).shape[1]

    plain = [CompressedGraph(np.array([a, b]), EPS), CompressedGraph(np.array([b, c]), EPS)]
    # no floor: a column per distinct center
    assert widths(plain) == (3, 3)
    # floors: a column per distinct (center, floor) pair, 3 with floor 0
    # and (a, 2), (a, 4), (b, 1), (b, 4), (c, 1)
    floored = plain + [CompressedGraph(np.array([b, c]), EPS, contract_below=1.0),
                       CompressedGraph(np.array([c, b]), EPS, contract_below=1.0),
                       CompressedGraph(np.array([a, a]), EPS, contract_below=2.0),
                       CompressedGraph(np.array([a, b]), EPS, contract_below=4.0)]
    assert widths(floored) == (3, 8)


def test_stacked_graphs_share_k_and_epsilon():
    a = CompressedGraph(np.ones((2, 2)), EPS)
    for b in (CompressedGraph(np.ones((3, 2)), EPS), CompressedGraph(np.ones((2, 2)), 0.25)):
        with pytest.raises(ValueError, match="same k and epsilon"):
            KeyBuilder([a, b])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances(), st.sampled_from(["classical", "r_gather"]))
def test_peel_matches_greedy_per_point_peel(inst, kind):
    C, X, contract, bounds = inst
    k = C.shape[0]
    variant = {"classical": Variant.classical(),
               "r_gather": Variant.r_gather(max(1, X.shape[0] // k))}[kind]
    g = CompressedGraph(C, EPS, contract_below=contract)
    for P in blocks_of(X, bounds):
        g.add_block(P)
    try:
        sol = compressed_partition(g, variant)
    except InfeasiblePartitionError:
        return
    ref_flows = sol.flows.copy()
    # rows of ref_flows, peeled in place
    ref = {vertex_key(key): row for key, row in zip(g.vertices, ref_flows)}
    ref_total = sol.peeled_cost
    # two passes over the stream: the second one runs out of flow
    for _pass in range(2):
        for P in blocks_of(X, bounds):
            sq = pairwise_sqdist(P, C)
            keys = [ref_key(g, sq[r]) for r in range(len(P))]
            try:
                want, ref_total = ref_peel(ref, keys, sq, ref_total)
            except InfeasiblePartitionError:
                before = sol.flows.copy()
                with pytest.raises(InfeasiblePartitionError):
                    sol.assign_block(P)
                # an overdrawn block takes no unit
                assert np.array_equal(before, sol.flows)
                assert _pass == 1
                return
            assert np.array_equal(sol.assign_block(P), want)
            assert sol.peeled_cost == ref_total         # bit-equal, same order
            assert np.array_equal(ref_flows, sol.flows)
    pytest.fail("the second pass never ran out of flow")


def test_peel_rejects_a_vertex_outside_the_graph():
    C = np.array([[0.0, 0.0], [10.0, 0.0]])
    g = CompressedGraph(C, EPS)
    g.add_block(np.array([[1.0, 0.0], [9.0, 0.0]]))
    sol = compressed_partition(g, Variant.classical())
    with pytest.raises(InfeasiblePartitionError):
        sol.assign_block(np.array([[1.0, 0.0], [4.0, 3.0]]))
    assert np.array_equal(sol.assign_block(np.array([[9.0, 0.0], [1.0, 0.0]])), [[1], [0]])


@pytest.mark.parametrize("variant, owners", [(Variant.classical(), [(1,), (0,)]),
                                             (Variant.r_gather(1), [(1,), (0,)])])
def test_an_overdrawn_block_takes_no_unit(variant, owners):
    # the block overdraws the vertex at (1, 0) while the one at (9, 0)
    # still has its unit: neither may lose a unit
    C = np.array([[0.0, 0.0], [10.0, 0.0]])
    g = CompressedGraph(C, EPS)
    g.add_block(np.array([[1.0, 0.0], [9.0, 0.0]]))
    sol = compressed_partition(g, variant)
    with pytest.raises(InfeasiblePartitionError, match="no flow left"):
        sol.assign_block(np.array([[9.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(sol.assign_block(np.array([[9.0, 0.0], [1.0, 0.0]])), owners)


@pytest.mark.parametrize("case", ["r_gather", "aspect graph"])
def test_assign_pass_dicts_stay_within_the_winner(case):
    # a block whose rows an earlier block peeled, one of them on a
    # vertex with no units left, takes no unit
    rng = np.random.default_rng(5)
    C = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = C[rng.integers(0, 3, size=240)] + rng.integers(-3, 4, size=(240, 2)) * 0.5
    if case == "aspect graph":
        g, variant = aspect_graph(C, EPS, 2.0, 4), Variant.classical()
        assert g.contract_below > 0
    else:
        g, variant = CompressedGraph(C, EPS), Variant.r_gather(60)
    blocks = list(blocks_of(X, [0, 50, 100, 150, 200, 240]))
    for P in blocks:
        g.add_block(P)
    sol = compressed_partition(g, variant)
    keys = row_keys(g, X)
    for P in blocks[:-1]:
        sol.assign_block(P)
    spent = [i for i in range(200) if not sol.flows[sol.row[keys[i]]].any()]
    assert spent
    P = blocks[-1]
    before = sol.flows.copy()
    with pytest.raises(InfeasiblePartitionError, match="no flow left"):
        sol.assign_block(np.vstack([P, X[spent[:1]]]))
    assert np.array_equal(before, sol.flows)
    sol.assign_block(P)
    assert not sol.flows.any()
