import sys
from itertools import combinations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from graphmover.geometry import CostParams, GeometricGraph, translate
from graphmover.ggd import InstanceTooLargeError
from graphmover.gmd import _cost_stack, _reference_stacks, _solve_stack, _stack, gmd
from graphmover.transport import TransportInstance, check_flow, solve_transport

from conftest import LETTER_COSTS, UNIT_COSTS
from helpers import (assigned_flow, certify_flow, gmd_bruteforce, matched_flow,
                     mixed_size_graphs, random_graph_pair, solve_layout, solve_stack, stacks_of)


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
    assert certify_flow(result.matrix.entries, result.flow.values, result.value) == []


# reduced costs where a float tie or an absorbed term could change an
# assignment: subnormals, exact ties, values 1 ulp apart (either side of -1)
# and magnitudes 2**40 apart
TRAP_VALUES = (0.0, 0.0, 0.0, 1.0, 2.0, -1.0, -2.0, -5e-324, -1e-310, 5e-324,
               -2.0 ** 40, -2.0 ** -40, 2.0 ** 40, -2.0 ** 80, -3.0,
               -1.0 - 2.0 ** -52, -1.0 + 2.0 ** -53)


@st.composite
def cost_stacks(draw):
    """A stack of 1-4 cost matrices (k, m+1, n+1) with m and n from 0 to 6
    (both orientations, an empty side included). The dummy row and column are
    zero about half the time, so that the reduced costs are exactly the trap
    values. The negative entries are placed at a drawn density, which keeps
    both the cases with negative entries in distinct rows and columns and
    the crowded cases common, or as stars: each column left of a cut holds
    at most one, in a row above another cut (stars of one row), and each
    row below that cut at most one, in a column right of the first (stars
    of one column)."""
    k, m, n = draw(st.integers(1, 4)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    density = draw(st.sampled_from((0.1, 0.3, 0.7, "stars")))
    dummy = st.sampled_from((0.0, 1.0, 2.0 ** 40, 5e-324, 3.0))
    entries = np.zeros((k, m + 1, n + 1))
    for t in range(k):
        negative = np.zeros((m, n), dtype=bool)
        if density == "stars":
            a, b = draw(st.integers(0, m)), draw(st.integers(0, n))
            for j in range(b):
                i = draw(st.integers(-1, a - 1))  # -1: none in this column
                if i >= 0:
                    negative[i, j] = True
            for i in range(a, m):
                j = draw(st.integers(b - 1, n - 1))  # b - 1: none in this row
                if j >= b:
                    negative[i, j] = True
        else:
            for i in range(m):
                for j in range(n):
                    negative[i, j] = draw(st.floats(0, 1)) < density
        for i in range(m):
            for j in range(n):
                entries[t, i, j] = draw(st.sampled_from(
                    [v for v in TRAP_VALUES if (v < 0) == negative[i, j]]))
        if draw(st.booleans()):
            entries[t, :m, n] = draw(st.lists(dummy, min_size=m, max_size=m))
            entries[t, m, :n] = draw(st.lists(dummy, min_size=n, max_size=n))
    return entries


@pytest.mark.parametrize("n", [0, 1, 3])
def test_strided_stack_solves_as_its_c_ordered_copy(n):
    """Sets of k >= 2 graphs of n vertices, laid out as `_cost_stack` lays
    them out for Q = 1 to 3 queries of m + 1 = 2 to 13 rows, and taken from a
    wider array, so that each stack is strided. Their values and flows are
    the bytes of the stack solved alone in C order: the value sums follow the
    memory order, and summed across a strided axis the matrices of one column
    (references of 0 vertices) read other last bits."""
    rng = np.random.default_rng(24 + n)
    for _ in range(100):
        k, m, offset = int(rng.integers(2, 6)), int(rng.integers(1, 13)), int(rng.integers(4))
        q = int(rng.integers(1, 4))
        layout = solve_layout([(k, n)])
        out = rng.uniform(0.0, 10.0, (q, m + 1, offset + k * (n + 1)))[:, :, offset:]
        out[:, m, layout[5]] = 0.0  # the dummy corners, as `_cost_stack` prices them
        stack, = stacks_of(out, layout[0])
        assert not stack.flags.c_contiguous
        values, flows = _solve_stack(out, layout)
        expected_values, expected_flows = solve_stack(
            np.ascontiguousarray(stack).reshape(q * k, m + 1, n + 1))
        assert flows.flags.c_contiguous
        assert values.tobytes() == expected_values.tobytes()
        assert stacks_of(flows, layout[0])[0].tobytes() == expected_flows.tobytes()


# reduced costs with a star of one column of the assignment, -1 below
# -5e-324, beside a lone -5e-324: `_assign_rows`'s path sum -1 - 5e-324
# rounds to -1, so it leaves the lone entry unmatched, which settling the star
# directly matches
ABSORBED = np.zeros((6, 7))
ABSORBED[[0, 3, 4], [1, 2, 5]] = -1.0
ABSORBED[[2, 5], [5, 4]] = -5e-324


def test_certificate_rejects_broken_flows_and_accepts_absorbed_ones():
    """`certify_flow` rejects a flow that breaks a row or a column sum, a
    non-integral flow, a flow with two matched pairs swapped so that the
    cost rises, one with a matched pair moved to a free column that costs 1
    more, and a value 1 ulp off; it accepts both flows of each `ABSORBED`
    matrix, whose objectives differ by 5e-324."""
    # 3 x 4 vertices: the pairs (i, i) cost 0, (0, 3) costs 1, every other
    # real pair 5 and every deletion 3, so matching (i, i) is the optimum
    costs = np.full((4, 5), 5.0)
    costs[[0, 1, 2], [0, 1, 2]] = 0.0
    costs[0, 3] = 1.0
    costs[:3, 4] = costs[3, :4] = 3.0
    costs[3, 4] = 0.0
    flow = matched_flow(3, 4, [0, 1, 2], [0, 1, 2])

    def objective(flow):
        return (flow * costs).reshape(-1).sum()

    value = objective(flow)
    assert certify_flow(costs, flow, value) == []
    moved_in_column = flow.copy()
    moved_in_column[[0, 1], 0] = [0.0, 2.0]  # the column sums hold
    moved_in_row = flow.copy()
    moved_in_row[0, [0, 1]] = [0.0, 2.0]  # the row sums hold
    for broken, where in ((moved_in_column, "row 0 ships"), (moved_in_column, "row 1 ships"),
                          (moved_in_row, "column 0 receives"),
                          (moved_in_row, "column 1 receives")):
        assert any(where in problem for problem in certify_flow(costs, broken, objective(broken)))
    swapped = matched_flow(3, 4, [0, 1, 2], [1, 0, 2])
    assert objective(swapped) >= value + 1.0
    assert certify_flow(costs, swapped, objective(swapped)) != []
    to_free = matched_flow(3, 4, [0, 1, 2], [3, 1, 2])
    assert objective(to_free) == value + 1.0
    assert certify_flow(costs, to_free, objective(to_free)) != []
    for off in (np.inf, -np.inf):
        assert certify_flow(costs, flow, np.nextafter(value, off)) != []
    # on zero costs every feasible flow is optimal, so only integrality fails
    zeros = np.zeros((3, 3))
    half = matched_flow(2, 2, [0, 1], [0, 1])
    half[:2, :2] = 0.5
    assert certify_flow(zeros, half, 0.0) == ["the flow is not integral"]
    assert certify_flow(zeros, matched_flow(2, 2, [0, 1], [1, 0]), 0.0) == []
    # the assigned flows leave the lone -5e-324 unmatched, the direct ones match it
    direct = ([0, 3, 4, 5], [1, 2, 5, 4])
    for red, (rows, cols) in ((ABSORBED, direct), (ABSORBED.T, direct[::-1])):
        costs = np.pad(red, (0, 1))
        flows = assigned_flow(costs), matched_flow(*red.shape, rows, cols)
        assert flows[0].tobytes() != flows[1].tobytes()
        for flow in flows:
            assert certify_flow(costs, flow, (flow * costs).reshape(-1).sum()) == []


@settings(max_examples=300, deadline=None)
# a star of one row whose least entries tie: `_assign_rows` gives the row its
# last tied free column, which the solve does not settle on its own
@example(np.array([[[-1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]))
# stars of one row and of one column whose least entries are 1 ulp apart,
# with m < n and with m > n
@example(np.array([[[-1.0, -1.0 + 2.0 ** -53, 0.0, 0.0], [0.0, 0.0, -1.0 - 2.0 ** -52, 0.0],
                    [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]))
@example(np.array([[[-1.0 + 2.0 ** -53, 0.0, 0.0], [-1.0, 0.0, 0.0],
                    [0.0, -3.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.0]]]))
@example(np.zeros((2, 1, 4)))  # m = 0
@example(np.pad(ABSORBED, (0, 1))[None])  # m < n
@example(np.pad(ABSORBED.T, (0, 1))[None])  # m > n
@given(cost_stacks())
def test_direct_flows_are_optimal_and_assigned_without_a_column_star(entries):
    """Every flow of the solve passes `certify_flow`, its value the bits of
    the flow's C-order sum. A matrix without a star of one column of the
    assignment gets the bytes of `assigned_flow`; one with such a star may
    get another optimal flow, as `_assign_rows`' path sums can round (the
    `ABSORBED` examples)."""
    k, rows, cols = entries.shape
    values, flows = _solve_stack(entries.swapaxes(0, 1).reshape(1, rows, -1),
                                 solve_layout([(k, cols - 1)]))
    for t, costs in enumerate(entries):
        flow = flows[0, :, t * cols:(t + 1) * cols]
        assert certify_flow(costs, flow, values[0, t]) == []
        if not holds_column_star(costs):
            assert flow.tobytes() == assigned_flow(costs).tobytes()


def solve_each_stack_alone(out, fused):
    """Values (Q, K) and flows (Q, m+1, C) of `_solve_stack`'s layout, each
    stack of the set solved alone by the `solve_stack` oracle."""
    q, rows = out.shape[:2]
    values, flows = [], []
    for costs in stacks_of(out, fused[0]):
        k, cols = costs.shape[1], costs.shape[3]
        stack_values, stack_flows = solve_stack(costs.reshape(q * k, rows, cols))
        values.append(stack_values.reshape(q, k))
        flows.append(stack_flows.reshape(q, k, rows, cols).swapaxes(1, 2).reshape(q, rows, -1))
    return np.concatenate(values, axis=1), np.concatenate(flows, axis=2)


# 5-vertex queries against references of 0-7 vertices: the swap differs
# inside one set, and it holds matrices solved directly, stars settled
# without an assignment and components that need one
FUSED_SOLVE_CASE = (5, 2, 5, 3, [3, 7, 5, 0, 6, 7, 2, 0], LETTER_COSTS, False)


@settings(max_examples=150, deadline=None)
@example(*FUSED_SOLVE_CASE)
# empty queries, and queries larger than every reference
@example(6, 2, 0, 2, [3, 0, 4, 0], UNIT_COSTS, False)
@example(7, 3, 9, 2, [1, 0, 6, 2, 0], CostParams(0.1, 3.0), False)
# in dimension 8 each stack is a set of its own
@example(8, 8, 4, 2, [9, 3, 0, 9], UNIT_COSTS, False)
# one 9-vertex query against a stack of empty references: each value sums
# the 10 entries of a one-column matrix, pairwise only in C order
@example(9, 2, 9, 1, [0, 3, 0, 5, 0], LETTER_COSTS, False)
# a star of one row whose least reduced costs tie exactly
@example(95, 1, 1, 3, [0, 0, 4, 5], UNIT_COSTS, False)
# a star whose two least reduced costs are 1 ulp apart
@example(62, 2, 5, 2, [4, 2], LETTER_COSTS, True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3, 8)), st.integers(0, 10),
       st.integers(1, 3), st.lists(st.integers(0, 10), min_size=1, max_size=8),
       st.sampled_from((LETTER_COSTS, UNIT_COSTS, CostParams(0.1, 3.0))), st.booleans())
def test_fused_solve_equals_each_stack_solved_alone(seed, dim, m, count, sizes, params, grid):
    """One `_solve_stack` call over a set of `_reference_stacks` gives the
    bytes of the values and flows of each of its stacks solved alone, every
    flow passing `certify_flow`. A matrix with a star of one column of the
    assignment is settled at the star's least entry, which the oracle
    assigns: there both flows pass the certificate and the values agree
    within 1e-9 (relative above 1)."""
    queries = mixed_size_graphs(seed, dim, [m] * count, grid)
    references = mixed_size_graphs(seed + 1, dim, sizes, grid)
    for columns, fused in _reference_stacks(references):
        out = _cost_stack(_stack(queries), fused, params)
        values, flows = _solve_stack(out, fused)
        expected_values, expected_flows = solve_each_stack_alone(out, fused)
        assert values.shape == (count, len(columns))
        assert flows.shape == out.shape
        graph = 0
        for costs, flow, expected_flow in zip(*(stacks_of(array, fused[0])
                                                for array in (out, flows, expected_flows))):
            for t, a in np.ndindex(costs.shape[:2]):
                value, expected = values[t, graph + a], expected_values[t, graph + a]
                assert certify_flow(costs[t, a], flow[t, a], value) == []
                if holds_column_star(costs[t, a]):
                    assert certify_flow(costs[t, a], expected_flow[t, a], expected) == []
                    assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
                else:
                    assert value.tobytes() == expected.tobytes()
                    assert flow[t, a].tobytes() == expected_flow[t, a].tobytes()
            graph += costs.shape[1]


def negative_components(red: np.ndarray) -> list[tuple[set, set]]:
    """The components of the entries red < 0 of one matrix, each as its sets
    of rows and of columns: two such entries join when they share a row or
    a column."""
    m = red.shape[0]
    parent = list(range(m + red.shape[1]))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    entries = list(zip(*np.nonzero(red < 0.0)))
    for i, j in entries:
        parent[root(int(i))] = root(m + int(j))
    components: dict[int, tuple[set, set]] = {}
    for i, j in entries:
        rows, columns = components.setdefault(root(int(i)), (set(), set()))
        rows.add(int(i))
        columns.add(int(j))
    return list(components.values())


def holds_column_star(costs: np.ndarray) -> bool:
    """Whether the reduced costs of one (m+1) x (n+1) cost matrix hold a star
    of one column of the assignment: two or more red < 0 in one column of
    red when m <= n (in one row when m > n), each alone in its row (its
    column), which the solve settles at its least entry without
    `_assign_rows`."""
    m, n = costs.shape[0] - 1, costs.shape[1] - 1
    red = costs[:m, :n] - costs[:m, n:] - costs[m:, :n]
    if m > n:
        red = red.T
    return any(len(rows) > 1 and len(columns) == 1
               for rows, columns in negative_components(red))


def test_fused_solve_case_holds_crowded_and_direct_matrices(monkeypatch):
    """The first explicit case above is one set that holds matrices whose
    reduced costs below 0 lie in distinct rows and columns, matrices with a
    star of them (two or more in one row, or in one column) whose least
    entry is unique, and matrices with a component of at least 2 rows and 2
    columns. Only the matrices with such a component, or with a star whose
    least entries tie, go to `_assign_rows`, one call each."""
    seed, dim, m, count, sizes, params, grid = FUSED_SOLVE_CASE
    queries = mixed_size_graphs(seed, dim, [m] * count, grid)
    (_, fused), = _reference_stacks(mixed_size_graphs(seed + 1, dim, sizes, grid))
    out = _cost_stack(_stack(queries), fused, params)
    kinds = []
    for costs in stacks_of(out, fused[0]):
        n = costs.shape[3] - 1
        red = costs[:, :, :m, :n] - costs[:, :, :m, n:] - costs[:, :, m:, :n]
        for matrix in red.reshape(costs.shape[0] * costs.shape[1], m, n):
            kind = "direct"
            for rows, columns in negative_components(matrix):
                least = sorted(matrix[i, j] for i in rows for j in columns if matrix[i, j] < 0.0)
                if len(rows) > 1 and len(columns) > 1:
                    kind = "component"
                    break
                if len(least) > 1 and least[0] == least[1]:
                    kind = "assigned"
                elif len(least) > 1 and kind == "direct":
                    kind = "star"
            kinds.append(kind)
    assert {"direct", "star", "component"} <= set(kinds)
    gmd_module = sys.modules["graphmover.gmd"]
    calls = []

    def counting(cost_rows, n, _original=gmd_module._assign_rows):
        calls.append(n)
        return _original(cost_rows, n)

    monkeypatch.setattr(gmd_module, "_assign_rows", counting)
    _solve_stack(out, fused)
    assert len(calls) == kinds.count("component") + kinds.count("assigned")
