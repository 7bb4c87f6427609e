from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmover.gmd import _assign_rows
from graphmover.transport import (Flow, InfeasibleInstanceError, TransportInstance,
                                  check_flow, solve_transport)

from helpers import min_integral_flow_cost, random_integer_transport


def make(supplies, demands, costs):
    return TransportInstance(np.asarray(supplies, float), np.asarray(demands, float),
                             np.asarray(costs, float))


def test_single_pair():
    flow = solve_transport(make([5], [5], [[2]]))
    assert flow.values.tolist() == [[5.0]]
    assert flow.objective == 10.0


def test_two_by_two_identity():
    flow = solve_transport(make([1, 1], [1, 1], [[0, 1], [1, 0]]))
    assert flow.objective == 0.0
    assert flow.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_depicted_flow_is_feasible():
    # four suppliers with weights (1,1,1,2), three consumers with (1,1,3);
    # the routing u1->v3, u2->v2, u3->v1, u4->v3(x2) meets every constraint
    inst = make([1, 1, 1, 2], [1, 1, 3], np.zeros((4, 3)))
    values = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 2]], dtype=float)
    assert check_flow(inst, Flow(values, 0.0)) == []


def test_unbalanced_instance_rejected():
    with pytest.raises(InfeasibleInstanceError):
        make([2], [1], [[1]])


def test_empty_instance_with_nonzero_totals_rejected():
    with pytest.raises(InfeasibleInstanceError):
        make([1], [], np.zeros((1, 0)))


def test_negative_and_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        make([-1, 2], [1], [[1], [1]])
    with pytest.raises(ValueError):
        make([1], [1], [[float("inf")]])
    with pytest.raises(ValueError):
        make([1], [1], [[-3.0]])


def test_zero_total_returns_empty_flow():
    flow = solve_transport(make([0, 0], [0], [[5], [5]]))
    assert flow.objective == 0.0
    assert flow.values.tolist() == [[0.0], [0.0]]


def test_zero_supply_rows_carry_no_flow():
    inst = make([0, 2], [1, 1], [[0, 0], [3, 5]])
    flow = solve_transport(inst)
    assert flow.values.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert flow.objective == 8.0


def test_check_flow_reports_each_violation():
    inst = make([1, 1], [2], [[1], [3]])
    good = solve_transport(inst)
    assert check_flow(inst, good) == []
    assert good.objective == 4.0

    with pytest.raises(ValueError):
        check_flow(inst, Flow(np.zeros((3, 1)), 0.0))
    report = check_flow(inst, Flow(np.array([[2.0], [-1.0]]), -1.0))
    assert any("negative" in line for line in report)
    assert any("supplier" in line and "residual" in line for line in report)
    short = check_flow(inst, Flow(np.array([[0.5], [1.0]]), 3.5))
    assert any("supplier 0" in line for line in short)
    assert any("consumer 0" in line for line in short)


def test_matches_exhaustive_enumeration_on_small_integer_instances():
    rng = np.random.default_rng(11)
    for _ in range(40):
        s, d, c = random_integer_transport(rng)
        flow = solve_transport(make(s, d, c))
        assert flow.objective == min_integral_flow_cost(s, d, c)
        assert np.array_equal(flow.values, np.round(flow.values))
        assert check_flow(make(s, d, c), flow) == []


def test_deterministic_output():
    rng = np.random.default_rng(2)
    s, d, c = random_integer_transport(rng)
    first = solve_transport(make(s, d, c))
    second = solve_transport(make(s, d, c))
    assert np.array_equal(first.values, second.values)
    assert first.objective == second.objective


weights = st.lists(st.integers(0, 3), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(weights, st.integers(1, 4), st.data())
def test_cost_shift_and_scale_properties(supply, n_consumers, data):
    total = sum(supply)
    demand = [0] * n_consumers
    for _ in range(total):
        demand[data.draw(st.integers(0, n_consumers - 1))] += 1
    costs = np.array([[data.draw(st.integers(0, 9)) for _ in range(n_consumers)]
                      for _ in range(len(supply))], dtype=float)
    inst = make(supply, demand, costs)
    base = solve_transport(inst)

    scaled = solve_transport(make(supply, demand, 3.0 * costs))
    assert scaled.objective == pytest.approx(3.0 * base.objective, abs=1e-9)
    assert check_flow(inst, Flow(scaled.values, float((scaled.values * costs).sum()))) == []

    shifted = solve_transport(make(supply, demand, costs + 2.0))
    assert shifted.objective == pytest.approx(base.objective + 2.0 * total, abs=1e-9)

    transposed = solve_transport(make(demand, supply, costs.T))
    assert transposed.objective == pytest.approx(base.objective, abs=1e-9)


def test_float_weights_solve_and_validate():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        s = rng.uniform(0.0, 3.0, m)
        d = rng.uniform(0.1, 3.0, n)
        d *= s.sum() / d.sum()
        inst = make(s, d, rng.uniform(0.0, 10.0, (m, n)))
        flow = solve_transport(inst)
        assert check_flow(inst, flow, tol=1e-7) == []


def brute_force_assignment(cost) -> float:
    """Least total cost over every injective row-to-column map."""
    m, n = cost.shape
    return min(sum(cost[i, cols[i]] for i in range(m)) for cols in permutations(range(n), m))


def assignment_cost(cost, cols) -> float:
    assert len(set(cols)) == len(cols) == cost.shape[0]
    assert all(0 <= j < cost.shape[1] for j in cols)
    return sum(cost[i, j] for i, j in enumerate(cols))


def test_assignment_square():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    cols = _assign_rows(cost.tolist(), 3)
    assert cols == [1, 0, 2]
    assert assignment_cost(cost, cols) == 5.0


def test_assignment_rectangular_with_negative_costs():
    cost = np.array([[0.0, -2.0, -3.0, 1.0], [-1.0, -4.0, 0.0, -1.0]])
    cols = _assign_rows(cost.tolist(), 4)
    assert cols == [2, 1]
    assert assignment_cost(cost, cols) == -7.0
    # the tie rule: among tied columns the last free one ends the path
    assert _assign_rows([[-1.0, -1.0, 0.0]], 3) == [1]


def test_assignment_all_zero_and_empty():
    assert len(set(_assign_rows(np.zeros((3, 5)).tolist(), 5))) == 3
    assert _assign_rows([], 4) == []
    assert _assign_rows([], 0) == []


def test_assignment_with_ties_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 6))
        cost = rng.integers(-1, 2, size=(m, n)).astype(float)
        cols = _assign_rows(cost.tolist(), n)
        assert assignment_cost(cost, cols) == brute_force_assignment(cost)
