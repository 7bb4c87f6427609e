from itertools import combinations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from graphmover.geometry import CostParams, GeometricGraph, translate
from graphmover.ggd import InstanceTooLargeError
from graphmover.gmd import _solve_stack, gmd
from graphmover.transport import TransportInstance, check_flow, solve_transport

from conftest import LETTER_COSTS, UNIT_COSTS
from helpers import assigned_flow, gmd_bruteforce, random_graph_pair


def test_zero_distance_pair_is_zero(zero_distance_pair):
    g, h = zero_distance_pair
    for params in (UNIT_COSTS, LETTER_COSTS):
        assert gmd(g, h, params).value == pytest.approx(0.0, abs=1e-9)
    assert gmd_bruteforce(g, h, UNIT_COSTS) == pytest.approx(0.0, abs=1e-9)


def test_self_distance_is_exactly_zero(zero_distance_pair):
    g, _ = zero_distance_pair
    assert gmd(g, g, UNIT_COSTS).value == 0.0


def test_segment_pair_value_and_flow(segment_pair):
    g, h = segment_pair
    result = gmd(g, h, UNIT_COSTS)
    assert result.value == pytest.approx(4.0, abs=1e-9)
    assert result.value == pytest.approx(gmd_bruteforce(g, h, UNIT_COSTS), abs=1e-9)
    # the flow is integral and feasible for the unit/dummy weights
    values = result.flow.values
    assert np.allclose(values, np.round(values), atol=1e-9)
    supplies = np.array([1.0, 1.0, 1.0, 2.0])
    demands = np.array([1.0, 1.0, 3.0])
    inst = TransportInstance(supplies, demands, result.matrix.entries)
    assert check_flow(inst, result.flow) == []


def test_two_single_vertices_cost_nothing():
    a = GeometricGraph.build([(0, 0)], [])
    b = GeometricGraph.build([(7, -3)], [])
    assert gmd(a, b, LETTER_COSTS).value == 0.0


def test_empty_graph_pays_all_edge_lengths(segment_pair):
    _, h = segment_pair
    empty = GeometricGraph(1, (), ())
    # the single length-4 stroke is charged once per endpoint entry
    assert gmd(empty, h, UNIT_COSTS).value == pytest.approx(8.0, abs=1e-9)
    assert gmd_bruteforce(empty, h, UNIT_COSTS) == pytest.approx(8.0, abs=1e-9)
    other = GeometricGraph(1, (), ())
    assert gmd(empty, other, UNIT_COSTS).value == 0.0
    assert gmd_bruteforce(empty, other, UNIT_COSTS) == 0.0


def test_dimension_mismatch_rejected(segment_pair):
    g, _ = segment_pair
    plane = GeometricGraph.build([(0, 0)], [])
    with pytest.raises(ValueError):
        gmd(g, plane, UNIT_COSTS)


def test_bruteforce_size_cap():
    big = GeometricGraph.build([(i, 0) for i in range(7)], [])
    small = GeometricGraph.build([(0, 0)], [])
    with pytest.raises(InstanceTooLargeError):
        gmd_bruteforce(big, small, UNIT_COSTS)


def test_matches_bruteforce_on_random_pairs():
    rng = np.random.default_rng(33)
    for _ in range(60):
        g, h = random_graph_pair(rng, max_vertices=5)
        fast = gmd(g, h, UNIT_COSTS)
        slow = gmd_bruteforce(g, h, UNIT_COSTS)
        assert fast.value == pytest.approx(slow, abs=1e-9)
        assert np.allclose(fast.flow.values, np.round(fast.flow.values), atol=1e-9)


def test_symmetry_nonnegativity_translation_scale():
    rng = np.random.default_rng(34)
    for _ in range(25):
        g, h = random_graph_pair(rng, max_vertices=6)
        value = gmd(g, h, UNIT_COSTS).value
        assert value >= 0.0
        assert gmd(h, g, UNIT_COSTS).value == pytest.approx(value, abs=1e-9)
        t = rng.uniform(-5, 5, 2)
        assert gmd(translate(g, t), translate(h, t), UNIT_COSTS).value == pytest.approx(
            value, abs=1e-9)
        scale = 4.0
        gs = GeometricGraph.build([tuple(scale * x for x in v) for v in g.vertices],
                                  g.edges, dim=2)
        hs = GeometricGraph.build([tuple(scale * x for x in v) for v in h.vertices],
                                  h.edges, dim=2)
        assert gmd(gs, hs, UNIT_COSTS).value == pytest.approx(
            scale * value, rel=1e-9, abs=1e-9)


def test_vertex_order_matters():
    # the same drawing with reversed vertex numbering is a different ordered
    # graph, and the distance between the two orderings is positive
    path = GeometricGraph.build([(0, 0), (1, 0), (3, 0)], [(0, 1), (1, 2)])
    reversed_path = GeometricGraph.build([(3, 0), (1, 0), (0, 0)], [(2, 1), (1, 0)])
    assert gmd(path, path, UNIT_COSTS).value == 0.0
    assert gmd(path, reversed_path, UNIT_COSTS).value > 0.5


def gmd_instance(result) -> TransportInstance:
    m, n = result.matrix.m, result.matrix.n
    supplies = np.ones(m + 1)
    supplies[m] = n
    demands = np.ones(n + 1)
    demands[n] = m
    return TransportInstance(supplies, demands, result.matrix.entries)


@st.composite
def hard_graph_pairs(draw):
    """Two graphs of 0-6 vertices in 2 or 3 dimensions, on a coarse grid (so
    vertices coincide and costs tie) scaled by a power of ten from 1e-6 to 1e6."""
    dim = draw(st.sampled_from((2, 3)))
    scale = 10.0 ** draw(st.integers(-6, 6))

    def graph():
        n = draw(st.integers(0, 6))
        points = [tuple(scale * draw(st.integers(0, 3)) for _ in range(dim)) for _ in range(n)]
        pairs = list(combinations(range(n), 2))
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return GeometricGraph(dim, tuple(points), tuple(sorted(edges)))

    return graph(), graph()


@settings(max_examples=150, deadline=None)
@given(hard_graph_pairs(),
       st.sampled_from((CostParams(), CostParams(1.0, 1.0), CostParams(0.1, 3.0))))
def test_assignment_path_matches_transport_and_bruteforce(pair, params):
    g, h = pair
    result = gmd(g, h, params)
    inst = gmd_instance(result)
    tol = 1e-9 * max(1.0, abs(result.value))
    assert abs(result.value - solve_transport(inst).objective) <= tol
    assert abs(result.value - gmd_bruteforce(g, h, params)) <= tol
    assert abs(result.value - gmd(h, g, params).value) <= tol
    assert gmd(g, g, params).value == 0.0
    assert gmd(h, h, params).value == 0.0
    assert np.array_equal(result.flow.values, np.round(result.flow.values))
    assert result.flow.objective == result.value
    assert check_flow(inst, result.flow, tol) == []


# reduced costs where a float tie or an absorbed term could change an
# assignment: subnormals, exact ties, and magnitudes 2**40 apart
TRAP_VALUES = (0.0, 0.0, 0.0, 1.0, 2.0, -1.0, -2.0, -5e-324, -1e-310, 5e-324,
               -2.0 ** 40, -2.0 ** -40, 2.0 ** 40, -2.0 ** 80, -3.0)


@st.composite
def cost_stacks(draw):
    """A stack of 1-4 cost matrices (k, m+1, n+1) with m and n from 0 to 6
    (both orientations, an empty side included). The dummy row and column are
    zero about half the time, so that the reduced costs are exactly the trap
    values; a drawn density keeps both the cases with negative entries in
    distinct rows and columns and the crowded cases common."""
    k, m, n = draw(st.integers(1, 4)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    density = draw(st.sampled_from((0.1, 0.3, 0.7)))
    dummy = st.sampled_from((0.0, 1.0, 2.0 ** 40, 5e-324, 3.0))
    entries = np.zeros((k, m + 1, n + 1))
    for t in range(k):
        for i in range(m):
            for j in range(n):
                negative = draw(st.floats(0, 1)) < density
                entries[t, i, j] = draw(st.sampled_from(
                    [v for v in TRAP_VALUES if (v < 0) == negative]))
        if draw(st.booleans()):
            entries[t, :m, n] = draw(st.lists(dummy, min_size=m, max_size=m))
            entries[t, m, :n] = draw(st.lists(dummy, min_size=n, max_size=n))
    return entries


@settings(max_examples=300, deadline=None)
@given(cost_stacks())
def test_direct_flows_equal_the_assignment_flows(entries):
    values, flows = _solve_stack(entries)
    for t, costs in enumerate(entries):
        expected = assigned_flow(costs)
        assert flows[t].tobytes() == expected.tobytes()
        assert values[t] == (expected * costs).reshape(-1).sum()
