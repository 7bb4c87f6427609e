import math
import tracemalloc

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from graphmover.experiments import random_graph
from graphmover.geometry import CostParams, GeometricGraph, translate
from graphmover.gmd import (_SEQUENTIAL_TERMS, _cost_stack, _fuse, _reference_stacks, _stack,
                            gmd, ground_cost_matrix)

from conftest import LETTER_COSTS, UNIT_COSTS, geometric_graphs
from helpers import (adjacency_matrix, coordinates, dense_ground_cost, mixed_size_graphs,
                     naive_ground_cost, stacks_of)


def test_matched_twin_vertices_cost_zero(zero_distance_pair):
    g, h = zero_distance_pair
    mat = ground_cost_matrix(g, h, UNIT_COSTS)
    # first vertex of G coincides with second vertex of H and their incident
    # length vectors agree entry for entry
    assert mat.entries[0, 1] == 0.0


def test_dummy_corner_is_zero(zero_distance_pair):
    g, h = zero_distance_pair
    mat = ground_cost_matrix(g, h, UNIT_COSTS)
    assert mat.entries[mat.m, mat.n] == 0.0


def test_segment_pair_middle_entry(segment_pair):
    g, h = segment_pair
    mat = ground_cost_matrix(g, h, UNIT_COSTS).entries
    # displacement |3-4| plus truncated length-vector difference |3-4| + |0-0|
    assert mat[1, 1] == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(mat, naive_ground_cost(g, h, UNIT_COSTS), atol=1e-9)


def test_dimension_mismatch_rejected(segment_pair):
    g, _ = segment_pair
    square = GeometricGraph.build([(0, 0), (1, 1)], [(0, 1)])
    with pytest.raises(ValueError):
        ground_cost_matrix(g, square, UNIT_COSTS)


def test_degenerate_empty_sides():
    empty = GeometricGraph(2, (), ())
    h = GeometricGraph.build([(0, 0), (4, 0)], [(0, 1)])
    mat = ground_cost_matrix(empty, h, UNIT_COSTS)
    assert mat.entries.shape == (1, 3)
    assert mat.entries[0, :2] == pytest.approx([4.0, 4.0])
    assert mat.entries[0, 2] == 0.0
    both = ground_cost_matrix(empty, GeometricGraph(2, (), ()), UNIT_COSTS)
    assert both.entries.shape == (1, 1)
    assert both.entries[0, 0] == 0.0


@settings(max_examples=40, deadline=None)
@given(geometric_graphs(max_vertices=5), geometric_graphs(max_vertices=5))
def test_matches_naive_oracle_and_transpose_symmetry(g, h):
    mat_gh = ground_cost_matrix(g, h, UNIT_COSTS).entries
    mat_hg = ground_cost_matrix(h, g, UNIT_COSTS).entries
    assert np.allclose(mat_gh, naive_ground_cost(g, h, UNIT_COSTS), atol=1e-9)
    assert np.allclose(mat_gh, mat_hg.T, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(geometric_graphs(max_vertices=5), geometric_graphs(max_vertices=5))
def test_scale_equivariance_and_translation_invariance(g, h):
    mat = ground_cost_matrix(g, h, UNIT_COSTS).entries
    scale = 3.0
    scaled = [GeometricGraph.build([tuple(scale * x for x in v) for v in q.vertices],
                                   q.edges, dim=q.dim) for q in (g, h)]
    mat_scaled = ground_cost_matrix(scaled[0], scaled[1], UNIT_COSTS).entries
    assert np.allclose(mat_scaled, scale * mat, rtol=1e-9, atol=1e-9)
    shifted = ground_cost_matrix(translate(g, (1.5, -2.0)),
                                 translate(h, (1.5, -2.0)), UNIT_COSTS).entries
    assert np.allclose(shifted, mat, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(geometric_graphs(max_vertices=5), geometric_graphs(max_vertices=5))
def test_real_entries_dominate_displacement_term(g, h):
    params = CostParams(2.0, 0.5)
    mat = ground_cost_matrix(g, h, params).entries
    for i in range(g.n_vertices):
        for j in range(h.n_vertices):
            gap = params.vertex_cost * math.dist(g.vertices[i], h.vertices[j])
            assert mat[i, j] >= gap - 1e-12
            assert mat[i, j] >= 0.0


@pytest.mark.parametrize("n_second", [200, 130])
def test_blocked_l1_term_is_bounded_and_exact(n_second):
    """One m*n*p float64 temporary is 64 MB at 200 x 200 and 27 MB at 200 x 130,
    and a single broadcast makes two; the blocked build stays below 48 MB and
    equals the single-broadcast formula bit for bit. So does all of gmd, whose
    flow stack is the size of the matrix."""
    rng = np.random.default_rng(200)
    g, h = random_graph(rng, 200), random_graph(rng, n_second)
    eg, eh = adjacency_matrix(g), adjacency_matrix(h)  # built before tracing
    tracemalloc.start()
    try:
        entries = ground_cost_matrix(g, h, UNIT_COSTS).entries
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        gmd(g, h, UNIT_COSTS)
        gmd_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6
    assert gmd_peak < 48e6
    p = min(g.n_vertices, h.n_vertices)
    diff = coordinates(g)[:, None, :] - coordinates(h)[None, :, :]
    whole = (np.sqrt((diff * diff).sum(axis=-1))
             + np.abs(eg[:, None, :p] - eh[None, :, :p]).sum(axis=-1))
    assert entries[:-1, :-1].tobytes() == whole.tobytes()


@pytest.mark.parametrize("n_second", [20, 13])
def test_query_stack_is_blocked_and_equals_each_pair(n_second):
    """100 queries of 20 vertices against 6 graphs of 20 (of 13): one
    Q*k*m*n*p float64 temporary is 38 MB (25 MB), and a single broadcast
    makes two; the build in blocks of queries stays below 48 MB, and every
    matrix of the stack equals the pair's own ground cost matrix bit for bit."""
    rng = np.random.default_rng(100)
    queries = [random_graph(rng, 20) for _ in range(100)]
    protos = [random_graph(rng, n_second) for _ in range(6)]
    batch, stack = _stack(queries), _fuse([_stack(protos)])
    tracemalloc.start()
    try:
        out = _cost_stack(batch, stack, UNIT_COSTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    costs, = stacks_of(out, stack[0])
    assert peak < 48e6
    assert costs.shape == (100, 6, 21, n_second + 1)
    for query, rows in zip(queries, costs):
        for proto, entries in zip(protos, rows):
            expected = ground_cost_matrix(query, proto, UNIT_COSTS).entries
            assert entries.tobytes() == expected.tobytes()


def test_displacement_term_is_blocked_when_the_dimension_exceeds_p():
    """1,100 one-vertex 3-D queries against one 2,000-vertex graph: p is 1, so
    the displacement temporaries (difference and square, d = 3 floats per
    pair) outweigh the L1 ones. Blocks sized by p alone hold 1,048 queries,
    two 50 MB temporaries (117 MB above the output at peak); sized by
    max(p, d) they hold 349, two 17 MB temporaries (50 MB at peak). Every
    matrix equals the pair's own ground cost matrix."""
    rng = np.random.default_rng(3)
    queries = [GeometricGraph.build(rng.uniform(-5.0, 5.0, size=(1, 3)), [], dim=3)
               for _ in range(1100)]
    ring = rng.uniform(-5.0, 5.0, size=(2000, 3))
    proto = GeometricGraph.build(ring, [(i, (i + 1) % 2000) for i in range(2000)], dim=3)
    batch, stack = _stack(queries), _fuse([_stack([proto])])
    tracemalloc.start()
    try:
        out = _cost_stack(batch, stack, UNIT_COSTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    costs, = stacks_of(out, stack[0])
    assert peak < costs.nbytes + 64e6
    for query, entries in zip(queries[::100], costs[::100, 0]):
        assert entries.tobytes() == ground_cost_matrix(query, proto, UNIT_COSTS).entries.tobytes()


def test_numpy_sums_up_to_seven_terms_in_order():
    """The rule `_SEQUENTIAL_TERMS` stands for, on the installed numpy: a row
    sum of at most 7 non-negative terms is the same float with zero terms
    appended up to 7, and the same float summed across the rows of the
    transposed terms. From 8 terms on numpy keeps 8 partial sums, so padding
    4 to 7 terms up to 8 changes some sums."""
    assert _SEQUENTIAL_TERMS == 7
    rng = np.random.default_rng(7)
    for p in range(1, 8):
        terms = np.abs(rng.standard_normal((4000, p))) * rng.uniform(0.0, 1e3, (4000, 1))
        row_sums = terms.sum(axis=-1).tobytes()
        padded = np.zeros((4000, 8))
        padded[:, :p] = terms
        assert padded[:, :7].sum(axis=-1).tobytes() == row_sums
        assert np.ascontiguousarray(terms.T).sum(axis=0).tobytes() == row_sums
        if p >= 4:
            assert padded.sum(axis=-1).tobytes() != row_sums


@settings(max_examples=150, deadline=None)
# queries of 9 vertices against stacks of 3 to 12: fused, padded and alone
@example(1, 2, 9, 2, [3, 5, 8, 12, 0, 5, 7, 4], LETTER_COSTS)
# queries larger than every reference; in dimension 8 each stack alone, the
# displacement summed pairwise
@example(2, 8, 12, 1, [6, 2, 7, 3], UNIT_COSTS)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 3, 8)), st.integers(0, 12),
       st.integers(1, 3), st.lists(st.integers(0, 12), min_size=1, max_size=8),
       st.sampled_from((LETTER_COSTS, UNIT_COSTS, CostParams(0.1, 3.0))))
def test_one_pass_over_mixed_sizes_prices_each_stack_as_alone(seed, dim, m, count, sizes,
                                                              params):
    """Reference stacks of 0-12 vertices, priced in one `_cost_stack` call per
    set of `_reference_stacks`, give the bytes of each stack priced alone and
    of each pair's own dense ground cost matrix."""
    *queries, = mixed_size_graphs(seed, dim, [m] * count)
    references = mixed_size_graphs(seed + 1, dim, sizes)
    batch = _stack(queries)
    sets = _reference_stacks(references)
    widths = [[n for _, n in fused[0]] for _, fused in sets]
    # one set of every stack with n and d at most 7, then one per other
    # stack, each in order of first appearance
    order = list(dict.fromkeys(sizes))
    small = [n for n in order if max(n, dim) <= 7]
    assert widths == [small] * bool(small) + [[n] for n in order if max(n, dim) > 7]
    for columns, fused in sets:
        start = 0
        for costs in stacks_of(_cost_stack(batch, fused, params), fused[0]):
            indices = columns[start:start + costs.shape[1]]
            start += costs.shape[1]
            alone = _fuse([_stack([references[a] for a in indices])])
            alone, = stacks_of(_cost_stack(batch, alone, params), alone[0])
            assert costs.shape == alone.shape
            assert costs.tobytes() == alone.tobytes()
            for query, row in zip(queries, costs):
                for a, entries in zip(indices, row):
                    expected = dense_ground_cost(query, references[a], params)
                    assert entries.tobytes() == expected.tobytes()
