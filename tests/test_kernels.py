"""Per-variant assignment kernels against the generic min-cost flow.

The partition module solves each variant with its own exact kernel on
the quantized integer costs.  The reference here is the bipartite
network every variant used to be built as, solved by
solve_min_cost_flow; the exhaustive oracle is a third, independent
search on every generated instance.  transport_assign's flows, which
owners are read from, are compared with numpy_repair_reference, the
repair loop it replaced.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckmeans.data import Dataset
from ckmeans.flow import FlowNetwork, solve_min_cost_flow
from ckmeans.geometry import pairwise_sqdist
from ckmeans.oracle import OracleLimit, opt_constrained
from ckmeans.partition import (
    Variant,
    _exact_total,
    _LeftSide,
    _solve_left,
    quantize_costs,
    semi_supervised_cost_terms,
    transport_assign,
)

KINDS = ("classical", "r_gather", "r_capacity", "chromatic", "fault_tolerant",
         "semi_supervised")


def ssp_assign(w_int, counts, low, cap):
    """Exact int cost of the left-vertex / center / sink network, or None."""
    L, k = w_int.shape
    s, t = 0, 1 + L + k
    net = FlowNetwork(2 + L + k, s, t, int(counts.sum()))
    for v in range(L):
        if counts[v] <= 0:
            continue
        net.add_arc(s, 1 + v, int(counts[v]), 0)
        for j in range(k):
            net.add_arc(1 + v, 1 + L + j, int(counts[v]), int(w_int[v, j]))
    for j in range(k):
        net.add_arc(1 + L + j, t, int(cap), 0, lower=int(min(low, cap)))
    res = solve_min_cost_flow(net)
    return res.total_cost if res.feasible and low <= cap else None


_NO_EDGE = np.iinfo(np.int64).max   # marks a center where a vertex holds no flow


def numpy_repair_reference(w_int, counts, low: int, cap: int):
    """transport_assign as it was before its lazy heaps: after every
    repair the (L, k, k) exchange tensor is rebuilt over all rows, and
    held.argmin picks the cheapest move of each center pair, ties to the
    lowest vertex."""
    L, k = w_int.shape
    n = int(counts.sum())
    if low > cap or k * low > n or k * cap < n:
        return None
    flows = np.zeros((L, k), dtype=np.int64)
    flows[np.arange(L), w_int.argmin(axis=1)] = counts
    load = flows.sum(axis=0).tolist()
    y = [min(max(x, low), cap) for x in load]      # sink arc flows
    sink = k
    diff = None
    while True:
        # imbalance: positive at nodes with excess, negative at deficits
        excess = [x - t for x, t in zip(load, y)] + [sum(y) - n]
        if not any(excess):
            return _exact_total(flows, w_int), flows
        if diff is None:
            # diff[v, a, b] = w[v, b] - w[v, a]
            diff = w_int[:, None, :] - w_int[:, :, None]
        held = np.where(flows[:, :, None] > 0, diff, _NO_EDGE)
        via = held.argmin(axis=0)
        hop = np.take_along_axis(held, via[None], axis=0)[0].tolist()
        arcs = [[(b, hop[a][b]) for b in range(k) if b != a and hop[a][b] != _NO_EDGE]
                + ([(sink, 0)] if y[a] < cap else []) for a in range(k)]
        arcs.append([(b, 0) for b in range(k) if y[b] > low])
        # Bellman-Ford from every node with excess (a zero-cost super source)
        dist = [0 if e > 0 else None for e in excess]
        pred = [-1] * (k + 1)
        for _ in range(k + 1):
            changed = False
            for a, da in enumerate(dist):
                if da is None:
                    continue
                for b, c in arcs[a]:
                    if dist[b] is None or da + c < dist[b]:
                        dist[b], pred[b], changed = da + c, a, True
            if not changed:
                break
        ends = [b for b in range(k + 1) if excess[b] < 0 and dist[b] is not None]
        if not ends:
            return None
        b = min(ends, key=lambda j: dist[j])
        path = [b]
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        path.reverse()
        push = min(excess[path[0]], -excess[b])
        for a, b in zip(path, path[1:]):
            if a == sink:
                push = min(push, y[b] - low)
            elif b == sink:
                push = min(push, cap - y[a])
            else:
                push = min(push, int(flows[via[a, b], a]))
        for a, b in zip(path, path[1:]):
            if a == sink:
                y[b] -= push
            elif b == sink:
                y[a] += push
            else:
                v = via[a, b]
                flows[v, a] -= push
                flows[v, b] += push
                load[a] -= push
                load[b] += push


def assert_same_transport(got, want):
    """Equal (int_cost, flows), or both None."""
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


def reference(left, variant, bits=32):
    """(int_cost, scale) of the optimum by min-cost flow, or None."""
    W = left.weights
    L, k = W.shape
    n = left.total
    if variant.kind == "semi_supervised":
        best = None
        for perm in itertools.permutations(range(k)):
            M = semi_supervised_cost_terms(W, left.groups, variant.alpha, perm)
            w, scale = quantize_costs(M, bits)
            c = ssp_assign(w, left.counts, 0, n)
            if c is not None and (best is None or c * scale < best[0] * best[1]):
                best = (c, scale)
        return best
    w, scale = quantize_costs(W, bits)
    if variant.kind == "chromatic":
        parts = [ssp_assign(w[rows], left.counts[rows], 0, 1)
                 for rows in (np.flatnonzero(left.groups == g)
                              for g in np.unique(left.groups))]
        total = None if None in parts else sum(parts)
    elif variant.kind == "fault_tolerant":
        # l replicas of each point, one per center at most
        l = variant.l
        parts = [ssp_assign(np.repeat(w[v][None], l, 0), np.ones(l, dtype=np.int64), 0, 1)
                 for v in range(L)]
        total = None if None in parts else sum(
            c * int(m) for c, m in zip(parts, left.counts))
    else:
        low, cap = {"classical": (0, n), "r_gather": (variant.r, n),
                    "r_capacity": (0, variant.r)}[variant.kind]
        total = ssp_assign(w, left.counts, low, cap)
    return None if total is None else (total, scale)


def check_flows(left, variant, flows):
    per_point = variant.l if variant.kind == "fault_tolerant" else 1
    assert (flows >= 0).all()
    assert (flows.sum(axis=1) == left.counts * per_point).all()
    load = flows.sum(axis=0)
    if variant.kind == "r_gather":
        assert (load >= variant.r).all()
    if variant.kind == "r_capacity":
        assert (load <= variant.r).all()
    if variant.kind == "fault_tolerant":
        assert (flows <= left.counts[:, None]).all()
    if variant.kind == "chromatic":
        for g in np.unique(left.groups):
            assert (flows[left.groups == g].sum(axis=0) <= 1).all()


def variant_of(kind, n, k, param):
    if kind in ("r_gather", "r_capacity"):
        return Variant(kind, r=1 + param % n)
    if kind == "fault_tolerant":
        return Variant(kind, l=1 + param % (k + 1))     # l = k + 1 is infeasible
    if kind == "semi_supervised":
        return Variant(kind, alpha=(0.0, 0.25, 0.5, 1.0)[param % 4])
    return Variant(kind)


@st.composite
def instances(draw):
    """A few points and centers on a 4x4 grid (exact ties, duplicate
    points, zero distances), multiplicities up to 3 and at most 6 points
    in all."""
    k = draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
    L = draw(st.integers(1, 4))
    points = np.array(draw(st.lists(cell, min_size=L, max_size=L)), dtype=float)
    centers = np.array(draw(st.lists(cell, min_size=k, max_size=k)), dtype=float)
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=L, max_size=L)))
    keep = np.cumsum(counts) <= 6
    points, counts = points[keep], counts[keep]
    L = len(counts)
    colors = np.array(draw(st.lists(st.integers(0, 2), min_size=L, max_size=L)))
    targets = np.array(draw(st.lists(st.integers(0, k - 1), min_size=L, max_size=L)))
    params = draw(st.lists(st.integers(0, 20), min_size=len(KINDS), max_size=len(KINDS)))
    return points, centers, counts, colors, targets, params


@settings(deadline=None, derandomize=True, max_examples=120)
@given(instances())
def test_kernels_match_min_cost_flow_and_oracle(inst):
    points, centers, counts, colors, targets, params = inst
    n, k = int(counts.sum()), centers.shape[0]
    W = pairwise_sqdist(points, centers)
    expanded = Dataset(np.repeat(points, counts, axis=0), np.repeat(colors, counts),
                       np.repeat(targets, counts))
    for kind, param in zip(KINDS, params):
        variant = variant_of(kind, n, k, param)
        groups = {"chromatic": colors, "semi_supervised": targets}.get(kind)
        left = _LeftSide(W, counts, groups)
        got = _solve_left(left, variant, 32)
        want = reference(left, variant)
        assert (got is None) == (want is None), variant
        if got is None:
            cost = math.inf
        else:
            check_flows(left, variant, got[2])
            cost = float(got[0]) * got[1]
            assert cost == float(want[0]) * want[1], variant
            if kind != "semi_supervised":
                assert (got[0], got[1]) == want, variant
        oracle = opt_constrained(expanded, centers, variant, OracleLimit(max_n=6))
        assert cost == oracle, variant


def test_kernel_totals_exact_at_62_bits():
    rng = np.random.default_rng(62)
    X = rng.random((40, 2)) * 10
    C = rng.random((3, 2)) * 10
    W = pairwise_sqdist(X, C)
    w, _scale = quantize_costs(W, 62)
    ones = np.ones(40, dtype=np.int64)
    for low, cap in [(12, 40), (0, 14), (0, 40)]:
        got = transport_assign(w, ones, low, cap)
        assert_same_transport(got, numpy_repair_reference(w, ones, low, cap))
        assert got[0] == ssp_assign(w, ones, low, cap)
        assert got[0] > 2**63          # an int64 sum would have wrapped
    left = _LeftSide(W, ones, None)
    for variant in (Variant.r_gather(12), Variant.fault_tolerant(2)):
        solved = _solve_left(left, variant, 62)
        assert (solved[0], solved[1]) == reference(left, variant, 62)



@st.composite
def transport_instances(draw):
    """Up to 40 vertices of count 1-5 over up to 5 centers, costs in
    {0..3} (ties everywhere) scaled by 1 or 2**60, and bounds drawn
    around the balanced load n / k, so most draws need repairs and some
    are infeasible."""
    k = draw(st.integers(1, 5))
    L = draw(st.integers(1, 40))
    cells = draw(st.lists(st.integers(0, 3), min_size=L * k, max_size=L * k))
    w = np.array(cells, dtype=np.int64).reshape(L, k) * draw(st.sampled_from([1, 2**60]))
    counts = np.array(draw(st.lists(st.integers(1, 5), min_size=L, max_size=L)))
    n = int(counts.sum())
    low = draw(st.integers(0, n // k + 1))
    cap = draw(st.integers(max(0, -(-n // k) - 1), n))
    return w, counts, low, cap


@settings(deadline=None, derandomize=True, max_examples=300)
@given(transport_instances())
def test_transport_flows_match_numpy_repair(inst):
    w, counts, low, cap = inst
    assert_same_transport(transport_assign(w, counts, low, cap),
                          numpy_repair_reference(w, counts, low, cap))


def test_long_repair_sequence_flows_match_numpy_repair():
    # two of three centers 0.01 apart: about n/3 single-unit repairs,
    # each leaving stale heap entries behind
    rng = np.random.default_rng(3000)
    X = rng.normal(scale=0.3, size=(3000, 2))
    C = np.array([[0.0, 0.0], [0.01, 0.0], [1.0, 1.0]])
    w, _scale = quantize_costs(pairwise_sqdist(X, C), 32)
    ones = np.ones(3000, dtype=np.int64)
    got = transport_assign(w, ones, 1000, 3000)
    assert_same_transport(got, numpy_repair_reference(w, ones, 1000, 3000))
    assert (got[1].sum(axis=0) == 1000).all()
