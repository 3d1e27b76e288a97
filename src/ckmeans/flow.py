"""Integral min-cost flow with arc lower bounds.

Successive shortest augmenting paths with Johnson potentials.  Lower
bounds are folded into node imbalances up front (the usual excess
transformation), so the solver itself only ever sees plain capacities.
Costs must be non-negative integers; to_fixed_point maps real costs
there.  Infeasibility is reported in the result, never raised.

No pipeline path calls solve_min_cost_flow: the per-variant kernels in
partition solve the same networks, and the tests hold them to it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")


def to_fixed_point(costs, precision_bits: int = 32) -> np.ndarray:
    """Scale non-negative real costs to integers in [0, 2**precision_bits].

    The maximum cost lands exactly on 2**precision_bits, zero stays
    zero, and order is preserved up to quantization.  All-zero input
    maps to all zeros.
    """
    a = np.asarray(costs, dtype=np.float64)
    if a.size and (not np.all(np.isfinite(a)) or np.any(a < 0)):
        raise ValueError("costs must be finite and non-negative")
    if precision_bits < 1 or precision_bits > 62:
        raise ValueError("precision_bits out of range")
    if a.size == 0:
        return np.zeros(a.shape, dtype=np.int64)
    m = float(a.max())
    if m == 0.0:
        return np.zeros(a.shape, dtype=np.int64)
    return np.rint(a / m * float(2**precision_bits)).astype(np.int64)


@dataclass
class FlowNetwork:
    """Directed network with integer capacities, costs and lower bounds.

    Node ids run 0..num_nodes-1.  required_value units must travel from
    source to sink.
    """

    num_nodes: int
    source: int
    sink: int
    required_value: int
    arcs: list = field(default_factory=list)  # (tail, head, lower, cap, cost)

    def add_arc(self, tail: int, head: int, cap: int, cost: int, lower: int = 0) -> int:
        if not (0 <= tail < self.num_nodes and 0 <= head < self.num_nodes):
            raise ValueError("arc endpoint out of range")
        if not (0 <= lower <= cap):
            raise ValueError("need 0 <= lower <= cap")
        if cost < 0:
            raise ValueError("costs must be non-negative")
        self.arcs.append((tail, head, int(lower), int(cap), int(cost)))
        return len(self.arcs) - 1


@dataclass
class FlowResult:
    feasible: bool
    total_cost: int
    arc_flow: list


def solve_min_cost_flow(net: FlowNetwork) -> FlowResult:
    """Cheapest feasible flow of net.required_value units, or infeasible."""
    n = net.num_nodes + 2
    ss, tt = net.num_nodes, net.num_nodes + 1

    # residual structure: paired arcs, reverse is index ^ 1
    head: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]

    def add_residual(u, v, c, w):
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        cost.append(w)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)
        cost.append(-w)

    # fold lower bounds into imbalances
    b = [0] * n
    residual_of_arc = []
    for tail, hd, lower, capacity, w in net.arcs:
        b[hd] += lower
        b[tail] -= lower
        residual_of_arc.append(len(head))
        add_residual(tail, hd, capacity - lower, w)
    b[net.source] += net.required_value
    b[net.sink] -= net.required_value

    supply = 0
    for v in range(net.num_nodes):
        if b[v] > 0:
            add_residual(ss, v, b[v], 0)
            supply += b[v]
        elif b[v] < 0:
            add_residual(v, tt, -b[v], 0)

    # successive shortest paths from ss to tt
    potential = [0] * n
    shipped = 0
    while shipped < supply:
        dist = [INF] * n
        dist[ss] = 0
        parent_arc = [-1] * n
        pq = [(0, ss)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            for e in adj[u]:
                if cap[e] <= 0:
                    continue
                v = head[e]
                nd = d + cost[e] + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_arc[v] = e
                    heapq.heappush(pq, (nd, v))
        if dist[tt] == INF:
            break
        for v in range(n):
            if dist[v] < INF:
                potential[v] += dist[v]
        # bottleneck along the path
        push = supply - shipped
        v = tt
        while v != ss:
            e = parent_arc[v]
            push = min(push, cap[e])
            v = head[e ^ 1]
        v = tt
        while v != ss:
            e = parent_arc[v]
            cap[e] -= push
            cap[e ^ 1] += push
            v = head[e ^ 1]
        shipped += push

    if shipped < supply:
        return FlowResult(False, 0, [0] * len(net.arcs))

    flows = []
    total = 0
    for i, (tail, hd, lower, capacity, w) in enumerate(net.arcs):
        e = residual_of_arc[i]
        f = lower + cap[e ^ 1]  # reverse residual equals pushed flow
        flows.append(f)
        total += f * w
    return FlowResult(True, total, flows)
