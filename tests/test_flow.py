"""Min-cost flow against exhaustive flow enumeration on tiny networks."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from ckmeans.flow import FlowNetwork, solve_min_cost_flow
from ckmeans.partition import quantize_costs


def enumerate_min_cost(net):
    """Try every integral flow vector within bounds; None if infeasible.

    Exponential in arcs * cap, so only for tiny nets (the point is that
    it shares no code with the solver).
    """
    ranges = [range(lower, cap + 1) for _t, _h, lower, cap, _c in net.arcs]
    best = None
    for flows in itertools.product(*ranges):
        ex = [0] * net.num_nodes
        for (tail, head, _lo, _cap, _c), f in zip(net.arcs, flows):
            ex[tail] -= f
            ex[head] += f
        ex[net.source] += net.required_value
        ex[net.sink] -= net.required_value
        if any(ex):
            continue
        cost = sum(f * c for (_t, _h, _lo, _cap, c), f in zip(net.arcs, flows))
        if best is None or cost < best[0]:
            best = (cost, flows)
    return best


def random_net(rng, with_lowers=True):
    n = int(rng.integers(3, 6))
    net = FlowNetwork(n, 0, n - 1, int(rng.integers(1, 4)))
    m = int(rng.integers(3, 9))
    for _ in range(m):
        tail = int(rng.integers(0, n))
        head = int(rng.integers(0, n))
        if tail == head:
            continue
        cap = int(rng.integers(1, 4))
        lower = int(rng.integers(0, cap + 1)) if with_lowers and rng.random() < 0.4 else 0
        net.add_arc(tail, head, cap, int(rng.integers(0, 20)), lower)
    return net


@pytest.mark.parametrize("with_lowers", [False, True])
def test_solver_matches_enumeration(with_lowers):
    rng = np.random.default_rng(42 if with_lowers else 43)
    agree_feasible = 0
    for _ in range(60):
        net = random_net(rng, with_lowers)
        res = solve_min_cost_flow(net)
        ref = enumerate_min_cost(net)
        if ref is None:
            assert not res.feasible
        else:
            assert res.feasible
            assert res.total_cost == ref[0]
            agree_feasible += 1
    assert agree_feasible >= 8  # the sample must actually exercise feasible nets


def test_reported_arc_flows_are_consistent():
    rng = np.random.default_rng(7)
    for _ in range(40):
        net = random_net(rng)
        res = solve_min_cost_flow(net)
        if not res.feasible:
            continue
        ex = [0] * net.num_nodes
        total = 0
        for (tail, head, lower, cap, cost), f in zip(net.arcs, res.arc_flow):
            assert lower <= f <= cap
            ex[tail] -= f
            ex[head] += f
            total += f * cost
        ex[net.source] += net.required_value
        ex[net.sink] -= net.required_value
        assert not any(ex)
        assert total == res.total_cost


def test_simple_two_path_choice():
    # 0 -> 1 -> 3 costs 2, 0 -> 2 -> 3 costs 5; one unit takes the cheap path
    net = FlowNetwork(4, 0, 3, 1)
    net.add_arc(0, 1, 1, 1)
    net.add_arc(1, 3, 1, 1)
    net.add_arc(0, 2, 1, 2)
    net.add_arc(2, 3, 1, 3)
    res = solve_min_cost_flow(net)
    assert res.feasible and res.total_cost == 2
    assert res.arc_flow == [1, 1, 0, 0]


def test_lower_bound_forces_expensive_arc():
    net = FlowNetwork(4, 0, 3, 1)
    net.add_arc(0, 1, 1, 1)
    net.add_arc(1, 3, 1, 1)
    net.add_arc(0, 2, 1, 2, lower=1)
    net.add_arc(2, 3, 1, 3, lower=1)
    res = solve_min_cost_flow(net)
    # the lower bound saturates the expensive path; demand rides it
    assert res.feasible and res.total_cost == 5
    assert res.arc_flow == [0, 0, 1, 1]


def test_infeasible_is_a_value_not_an_exception():
    net = FlowNetwork(3, 0, 2, 2)
    net.add_arc(0, 1, 1, 1)
    net.add_arc(1, 2, 1, 1)
    res = solve_min_cost_flow(net)
    assert not res.feasible


def test_zero_value_zero_cost():
    net = FlowNetwork(2, 0, 1, 0)
    net.add_arc(0, 1, 5, 9)
    res = solve_min_cost_flow(net)
    assert res.feasible and res.total_cost == 0


def test_disconnected_sink_infeasible():
    net = FlowNetwork(3, 0, 2, 1)
    net.add_arc(0, 1, 3, 1)
    assert not solve_min_cost_flow(net).feasible


def test_arc_validation():
    net = FlowNetwork(2, 0, 1, 1)
    with pytest.raises(ValueError):
        net.add_arc(0, 5, 1, 1)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, 1, -3)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, 1, 1, lower=2)


# fixed point quantization -------------------------------------------------

def test_fixed_point_endpoints():
    bits = 16
    q = quantize_costs([0.0, 2.5, 5.0], bits)[0]
    assert q[0] == 0
    assert q[2] == 2**bits
    assert q[1] == 2**(bits - 1)


def test_fixed_point_all_zero_and_empty():
    assert quantize_costs(np.zeros(4))[0].tolist() == [0, 0, 0, 0]
    assert quantize_costs(np.zeros(0))[0].shape == (0,)


def test_fixed_point_preserves_order_up_to_ties():
    rng = np.random.default_rng(11)
    a = np.sort(rng.random(50) * 1000)
    q = quantize_costs(a, 32)[0]
    assert np.all(np.diff(q) >= 0)


def test_fixed_point_relative_error_bound():
    rng = np.random.default_rng(13)
    a = rng.random(100) * 7 + 0.5
    bits = 32
    q = quantize_costs(a, bits)[0]
    scale = a.max() / 2**bits
    assert np.max(np.abs(q * scale - a)) <= scale / 2 + 1e-15


def test_fixed_point_validation():
    with pytest.raises(ValueError):
        quantize_costs([-1.0])
    with pytest.raises(ValueError):
        quantize_costs([np.inf])
    with pytest.raises(ValueError):
        quantize_costs([1.0], precision_bits=0)
    with pytest.raises(ValueError):
        quantize_costs([1.0], precision_bits=63)


def test_quantized_solve_tracks_rational_solution():
    """Flow on quantized costs approaches the exact rational optimum.

    Costs start life as small fractions so the exact route (common
    denominator, integer solve) is really exact; the quantized route may
    differ only by accumulated fixed-point error.
    """
    rng = np.random.default_rng(17)
    for _ in range(10):
        net = random_net(rng, with_lowers=False)
        fracs = [Fraction(int(rng.integers(1, 200)), int(rng.integers(1, 64)))
                 for _ in net.arcs]
        raw = np.array([float(f) for f in fracs])
        den = np.lcm.reduce([f.denominator for f in fracs])
        exact = FlowNetwork(net.num_nodes, net.source, net.sink, net.required_value)
        for (tail, head, lower, cap, _c), f in zip(net.arcs, fracs):
            exact.add_arc(tail, head, cap, int(f * den), lower)
        q = quantize_costs(raw, 40)[0]
        quant = FlowNetwork(net.num_nodes, net.source, net.sink, net.required_value)
        for (tail, head, lower, cap, _c), w in zip(net.arcs, q):
            quant.add_arc(tail, head, cap, int(w), lower)
        res_e = solve_min_cost_flow(exact)
        res_q = solve_min_cost_flow(quant)
        assert res_e.feasible == res_q.feasible
        if not res_e.feasible:
            continue
        true_cost = res_e.total_cost / den
        scale = raw.max() / 2**40
        got = res_q.total_cost * scale
        cap_sum = sum(cap for _t, _h, _lo, cap, _c in net.arcs)
        slack = 1e-9 * (1 + true_cost) + cap_sum * scale
        assert abs(got - true_cost) <= slack
