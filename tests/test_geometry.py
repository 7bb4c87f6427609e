import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphmover.dataset import GraphFormatError, read_json_graph
from graphmover.geometry import (MAX_COORD, CostParams, GeometricGraph, adjacency_lengths,
                                 perturb, segment_intersection, translate)

from conftest import geometric_graphs
from helpers import (adjacency_matrix, adjacency_norm_loop, coordinates, hausdorff_vertices,
                     packaged_graph, total_length, validate_graph)


def test_cost_params_require_positive_coefficients():
    CostParams(4.5, 1.0)
    with pytest.raises(ValueError):
        CostParams(0.0, 1.0)
    with pytest.raises(ValueError):
        CostParams(1.0, -2.0)
    with pytest.raises(ValueError):
        CostParams(float("nan"), 1.0)
    CostParams(np.float64(0.5), 2)
    for vertex_cost, edge_cost in ((True, 1.0), (1.0, False), ("4.5", 1.0), (None, 1.0),
                                   (np.bool_(True), 1.0), (1.0, b"1"), (10 ** 400, 1.0)):
        with pytest.raises(ValueError, match=r"^(vertex|edge)_cost must be a positive finite"):
            CostParams(vertex_cost, edge_cost)


def test_graph_normalizes_edge_orientation_and_order():
    g = GeometricGraph.build([(0, 0), (1, 0), (0, 1)], [(2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.dim == 2
    assert g.vertices[1] == (1.0, 0.0)


def test_graph_rejects_bad_vertices():
    with pytest.raises(ValueError):
        GeometricGraph(2, ((0.0, 0.0, 0.0),), ())
    with pytest.raises(ValueError):
        GeometricGraph(2, ((0.0, float("inf")),), ())
    with pytest.raises(ValueError):
        GeometricGraph(0, (), ())
    with pytest.raises(ValueError, match="dim"):
        GeometricGraph(True, ((0.0,),), ())
    with pytest.raises(ValueError, match="vertex 1 has a coordinate too large") as exc:
        GeometricGraph(1, ((0,), (10 ** 399,)), ())
    assert "000" not in str(exc.value)
    with pytest.raises(ValueError, match="vertex 0 has a coordinate too large"):
        GeometricGraph.build([(10 ** 399, 0)], [])
    assert GeometricGraph.build([(MAX_COORD, -MAX_COORD), (-MAX_COORD, MAX_COORD)],
                                [(0, 1)]).vertices[0] == (MAX_COORD, -MAX_COORD)
    beyond = math.nextafter(MAX_COORD, math.inf)
    for x in (beyond, -beyond, float("nan"), -math.inf):
        with pytest.raises(ValueError, match=r"^vertex 1 has a coordinate that is not finite "
                                             r"or exceeds 2\*\*510 in magnitude$"):
            GeometricGraph(2, ((0.0, 0.0), (0.0, x)), ())
    with pytest.raises(GraphFormatError, match=r"^vertex 0 has a coordinate that is not finite "
                                               r"or exceeds 2\*\*510 in magnitude$"):
        read_json_graph('{"d":2,"vertices":[[1e300,0]],"edges":[]}')


@pytest.mark.parametrize("vertices, message", [
    (((0.0,), (True,)), r"^vertex 1: coordinate True is not a number$"),
    (((np.bool_(False),),), r"^vertex 0: coordinate np.False_ is not a number$"),
    (((0.0,), ("3",)), r"^vertex 1: coordinate '3' is not a number$"),
    ((("3" * 10 ** 5,),), r"^vertex 0: coordinate '3{12}\.\.\.3{13}' is not a number$"),
    (((b"3",),), r"^vertex 0: coordinate b'3' is not a number$"),
    (((None,),), r"^vertex 0: coordinate None is not a number$"),
    (((0.0,), 5), r"^vertex 1 is not a sequence of coordinates$"),
    ((None,), r"^vertex 0 is not a sequence of coordinates$"),
    (((0.0,), (1.0, 2.0)), r"^vertex 1 does not have dimension 1$"),
], ids=["bool", "numpy-bool", "str", "long-str", "bytes", "none", "int-vertex", "none-vertex", "arity"])
def test_graph_rejects_bad_coordinates(vertices, message):
    with pytest.raises(ValueError, match=message):
        GeometricGraph(1, vertices, ())


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (5, 0)], r"^edge \(0, 5\): index out of range for 2 vertices$"),
    ([(0, 10 ** 400)], r"^edge \(0, 10+\.\.\.0+\): index out of range for 2 vertices$"),
    ([(0, 1), (1, 1)], r"^edge \(1, 1\): self-loop$"),
    ([(0, 1), (1, 0)], r"^edge \(0, 1\): duplicate edge$"),
    ([(0.9, 2.7)], r"^edge 0: index 0\.9 is not an integer$"),
    ([(True, False)], r"^edge 0: index True is not an integer$"),
    ([(0, 1), (1,)], r"^edge 1 is not a pair of vertex indices$"),
    ([(0, 1, 0)], r"^edge 0 is not a pair of vertex indices$"),
    ([(0, 1), 5], r"^edge 1 is not a pair of vertex indices$"),
    ([None], r"^edge 0 is not a pair of vertex indices$"),
    (["01"], r"^edge 0: index '0' is not an integer$"),
], ids=["out-of-range", "huge-index", "self-loop", "duplicate", "float-index", "bool-index",
        "one-index", "three-indices", "int-edge", "none-edge", "str-edge"])
def test_graph_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        GeometricGraph.build([(0, 0), (1, 0)], edges)


def test_graph_vertices_of_any_number_type_make_one_graph():
    # plain floats skip the per-vertex checks; the other forms go through them
    points = [(0.0, 0.0), (3.0, -1.0), (2.0, 5.0), (-4.0, 1.0)]
    edges = [(0, 1), (1, 2), (3, 2)]
    forms = [points, tuple(points), [list(p) for p in points],
             [tuple(map(np.float64, p)) for p in points], list(np.array(points)),
             [tuple(map(int, p)) for p in points], [(0, 0.0), (3.0, -1), (2, 5), (-4, 1.0)],
             (p for p in points), iter(points)]
    graphs = [GeometricGraph(2, vertices, edges) for vertices in forms]
    for g in graphs:
        assert g == graphs[0] and hash(g) == hash(graphs[0])
        assert g.vertices == tuple(points) and type(g.vertices) is tuple
        assert all(type(v) is tuple and all(type(x) is float for x in v) for v in g.vertices)
    assert GeometricGraph(2, [], []) == GeometricGraph(2, (), ()) == GeometricGraph(2, iter(()), ())


BEYOND = math.nextafter(MAX_COORD, math.inf)
NOT_FINITE = r"has a coordinate that is not finite or exceeds 2\*\*510 in magnitude$"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), data=st.data(),
       fault=st.sampled_from([
           ((0.0, True), r": coordinate True is not a number$"),
           ((float("nan"), 0.0), " " + NOT_FINITE),
           ((0.0, -BEYOND), " " + NOT_FINITE),
           # the bulk test's sum is nan here, and 0.0 with both entries out of range
           ((math.inf, -math.inf), " " + NOT_FINITE),
           ((BEYOND, -BEYOND), " " + NOT_FINITE),
           (("3", 0.0), r": coordinate '3' is not a number$"),
           ((0.0, 1.0, 2.0), r" does not have dimension 2$"),
           ((0.0,), r" does not have dimension 2$"),
           (5.0, r" is not a sequence of coordinates$"),
           (None, r" is not a sequence of coordinates$")]),
       outer=st.sampled_from([list, tuple]), inner=st.sampled_from([list, tuple]))
def test_graph_names_the_first_faulty_vertex_among_plain_floats(n, data, fault, outer, inner):
    rng = np.random.default_rng(n)
    vertices = [inner(p) for p in rng.uniform(-MAX_COORD, MAX_COORD, size=(n, 2)).tolist()]
    k = data.draw(st.integers(0, n - 1))
    bad, message = fault
    vertices[k] = inner(bad) if isinstance(bad, tuple) else bad
    if k + 1 < n:  # a later fault is not the one reported
        vertices[data.draw(st.integers(k + 1, n - 1))] = inner((math.inf, "x"))
    with pytest.raises(ValueError, match=rf"^vertex {k}{message}"):
        GeometricGraph(2, outer(vertices), ())


def test_graph_accepts_numpy_integer_indices():
    g = GeometricGraph.build([(0, 0), (1, 0), (0, 1)], [(np.int64(2), np.int32(0))])
    assert g.edges == ((0, 2),)
    assert all(type(i) is int for i in g.edges[0])


def test_validate_planar_triangle_is_clean():
    g = GeometricGraph.build([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)])
    assert validate_graph(g) == []


def test_validate_reports_interior_crossing_with_location():
    g = GeometricGraph.build([(0, 0), (2, 2), (0, 2), (2, 0)], [(0, 1), (2, 3)])
    problems = validate_graph(g)
    assert len(problems) == 1
    assert "interior crossing" in problems[0]
    assert "(1, 1)" in problems[0]


def test_validate_reports_endpoint_on_edge_interior():
    g = GeometricGraph.build([(0, 0), (2, 0), (1, 0), (1, 1)], [(0, 1), (2, 3)])
    problems = validate_graph(g)
    assert len(problems) == 1
    assert "interior" in problems[0]


def test_validate_reports_collinear_overlap():
    g = GeometricGraph.build([(0, 0), (2, 0), (1, 0), (3, 0)], [(0, 1), (2, 3)])
    assert validate_graph(g) == ["edges (0, 1) and (2, 3): collinear overlap"]


@pytest.mark.parametrize("long_end, short_end, shared", [
    ((0.0, 1.75), (1.5, 0.0), (1.4999924161015434, 8.847881532764866e-06)),
    ((0.0, 2.0), (1.0, 0.0), (0.9999999801317856, 3.9736429060768506e-08)),
], ids=["1e-5-piece", "4e-8-piece"])
def test_nearly_parallel_pieces_meet_at_their_shared_vertex(long_end, short_end, shared):
    # two pieces of one split edge; rounding of the split vertex tilts the
    # short piece against the long one by more than the 1e-12 parallel test
    for a, c in ((long_end, short_end), (short_end, long_end)):
        kind, point, t, u = segment_intersection(a, shared, c, shared)
        assert kind == "point"
        assert point == pytest.approx(shared, abs=1e-15)
        assert (t, u) == pytest.approx((1.0, 1.0), abs=1e-9)


def test_adjacency_lengths_zero_distance_twin_row():
    g = packaged_graph("figures/zero_gmd_twin_G")
    row = adjacency_matrix(g)[0]
    assert row == pytest.approx([0.0, 0.0, 0.0, 2.0, math.sqrt(2.0)])


def test_adjacency_lengths_subdivided_segment_middle_vertex(segment_pair):
    g, _ = segment_pair
    assert adjacency_matrix(g)[1] == pytest.approx([3.0, 0.0, 1.0])


def test_adjacency_lengths_isolated_vertex_and_range():
    g = GeometricGraph.build([(0, 0), (5, 5), (9, 1)], [(0, 2)])
    assert adjacency_matrix(g)[1].tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=60, deadline=None)
@given(geometric_graphs())
def test_adjacency_matrix_is_symmetric_and_counts_each_edge_twice(g):
    mat = adjacency_matrix(g)
    assert np.array_equal(mat, mat.T)
    assert mat.sum() == pytest.approx(2.0 * total_length(g), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda dim: geometric_graphs(max_vertices=8, dim=dim, min_vertices=0)))
def test_adjacency_matrix_equals_the_per_edge_norm_loop(g):
    assert adjacency_matrix(g).tobytes() == adjacency_norm_loop(g).tobytes()


@st.composite
def same_size_graphs(draw):
    """1-4 graphs of one size n = 0 to 8 in dimension 1, 2, 3 or 8, each with
    its own edges; some coordinates are +-MAX_COORD, where a length
    overflows to inf from four dimensions on."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    dim = draw(st.sampled_from((1, 2, 3, 8)))
    coordinate = st.one_of(st.floats(-10.0, 10.0), st.sampled_from((MAX_COORD, -MAX_COORD)))
    pairs = list(combinations(range(n), 2))
    graphs = []
    for _ in range(k):
        points = tuple(tuple(draw(coordinate) for _ in range(dim)) for _ in range(n))
        edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
        graphs.append(GeometricGraph(dim, points, tuple(edges)))
    return graphs


@settings(max_examples=150, deadline=None)
@example([GeometricGraph(8, ((MAX_COORD,) * 8, (-MAX_COORD,) * 8), ((0, 1),)),
          GeometricGraph(8, ((0.0,) * 8, (1.0, 2.0, 2.0) + (0.0,) * 5), ((0, 1),))])
@example([GeometricGraph(2, (), ())] * 3)
@given(same_size_graphs())
def test_adjacency_lengths_of_a_group_equal_the_per_edge_norm_loop(graphs):
    """One `adjacency_lengths` pass over graphs of one size gives the bytes
    of each graph's per-edge norms, inf where a length overflows, and of a
    pass over that graph alone."""
    n = graphs[0].n_vertices
    with np.errstate(over="ignore"):
        expected = [adjacency_norm_loop(g).tobytes() for g in graphs]
        batch = adjacency_lengths(np.array([coordinates(g) for g in graphs]),
                                  [g.edges for g in graphs])
        assert batch.shape == (len(graphs), n, n)
        assert [mat.tobytes() for mat in batch] == expected
        assert [adjacency_matrix(g).tobytes() for g in graphs] == expected


def test_hausdorff_identical_and_shared_sets(shared_vertex_pair):
    g, h = shared_vertex_pair
    assert hausdorff_vertices(g, h) == 0.0
    assert hausdorff_vertices(g, g) == 0.0


def test_hausdorff_three_four_five():
    a = GeometricGraph.build([(0, 0)], [])
    b = GeometricGraph.build([(3, 4)], [])
    assert hausdorff_vertices(a, b) == pytest.approx(5.0)


def test_hausdorff_rejects_empty_and_mixed_dim():
    g = GeometricGraph.build([(0, 0)], [])
    empty = GeometricGraph(2, (), ())
    line = GeometricGraph.build([(0,)], [], dim=1)
    with pytest.raises(ValueError):
        hausdorff_vertices(g, empty)
    with pytest.raises(ValueError):
        hausdorff_vertices(g, line)


def test_translate_zero_is_identity_and_preserves_lengths():
    g = GeometricGraph.build([(0, 0), (1, 0), (1, 1), (0, 1)],
                             [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert translate(g, (0.0, 0.0)) == g
    moved = translate(g, (1.0, 0.0))
    assert moved.vertices[0] == (1.0, 0.0)
    assert np.allclose(adjacency_matrix(moved), adjacency_matrix(g))
    with pytest.raises(ValueError):
        translate(g, (1.0,))


def test_translate_shifts_hausdorff_by_step_size():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.uniform(0, 10, size=(4, 2))
        g = GeometricGraph.build(pts, [(0, 1), (2, 3)])
        gaps = [math.dist(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)]
        step = 0.4 * min(gaps)
        if step <= 0:
            continue
        direction = rng.standard_normal(2)
        t = direction / np.linalg.norm(direction) * step
        assert hausdorff_vertices(g, translate(g, t)) == pytest.approx(step, abs=1e-9)


def test_perturb_zero_delta_same_seed_and_bound():
    g = GeometricGraph.build([(0, 0), (3, 1), (5, 5)], [(0, 1), (1, 2)])
    assert perturb(g, 0.0, seed=1) == g
    a = perturb(g, 0.7, seed=42)
    b = perturb(g, 0.7, seed=42)
    assert a == b
    assert a.edges == g.edges
    for old, new in zip(g.vertices, a.vertices):
        assert math.dist(old, new) <= 0.7 + 1e-12
    assert perturb(g, 0.7, seed=43) != a
    with pytest.raises(ValueError):
        perturb(g, -0.1, seed=0)


@settings(max_examples=40, deadline=None)
@given(geometric_graphs(max_vertices=5))
def test_translate_preserves_adjacency_vectors(g):
    # shifted coordinates round, so lengths agree to the last few ulps only
    moved = translate(g, (2.5, -1.25))
    for i in range(g.n_vertices):
        assert np.allclose(adjacency_matrix(g)[i], adjacency_matrix(moved)[i],
                           atol=1e-12, rtol=1e-12)
