import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from graphmover.dataset import (CollinearOverlapError, GraphFormatError, LetterRecord,
                                load_letter_directory, load_prototypes, planarize,
                                read_class_index, read_graph_file, read_gxl_letter,
                                read_json_graph, write_json_graph)
from graphmover.geometry import EPS, GeometricGraph, segment_intersection

from conftest import geometric_graphs
from helpers import crossing_vertices, packaged_graph, total_length, validate_graph

GXL_MINIMAL = """<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE gxl SYSTEM "http://www.gupro.de/GXL/gxl-1.0.dtd">
<gxl xmlns:xlink="http://www.w3.org/1999/xlink">
<graph id="sample" edgeids="false" edgemode="undirected">
<node id="_0"><attr name="x"><float>0.5</float></attr><attr name="y"><float>1.5</float></attr></node>
<node id="_1"><attr name="x"><float>2.0</float></attr><attr name="y"><float>1.5</float></attr></node>
<edge from="_0" to="_1"/>
</graph>
</gxl>
"""


def test_json_round_trip_is_exact():
    g = GeometricGraph.build([(0.1, 2.0 / 3.0), (math.pi, 1e-17)], [(0, 1)])
    assert read_json_graph(write_json_graph(g)) == g
    empty = GeometricGraph(3, (), ())
    assert read_json_graph(write_json_graph(empty)) == empty


def test_json_reader_basic_document():
    g = read_json_graph('{"d":2,"vertices":[[0,0],[1,0]],"edges":[[0,1]]}')
    assert g.n_vertices == 2
    assert g.edges == ((0, 1),)


def test_json_reader_rejects_bad_documents():
    with pytest.raises(GraphFormatError, match="index"):
        read_json_graph('{"d":2,"vertices":[[0,0],[1,0]],"edges":[[0,5]]}')
    with pytest.raises(GraphFormatError):
        read_json_graph("not json at all")
    with pytest.raises(GraphFormatError):
        read_json_graph('{"d":2,"vertices":[[0,0]]}')
    with pytest.raises(GraphFormatError):
        read_json_graph('{"d":2,"vertices":[[0,NaN]],"edges":[]}')
    with pytest.raises(GraphFormatError, match="self-loop"):
        read_json_graph('{"d":2,"vertices":[[0,0],[1,1]],"edges":[[1,1]]}')
    with pytest.raises(GraphFormatError, match="duplicate"):
        read_json_graph('{"d":2,"vertices":[[0,0],[1,1]],"edges":[[0,1],[1,0]]}')
    with pytest.raises(GraphFormatError, match="dim must be a positive integer, got True"):
        read_json_graph('{"d":true,"vertices":[[0.0],[1.0]],"edges":[[0,1]]}')
    with pytest.raises(GraphFormatError, match="edge 0: index True is not an integer"):
        read_json_graph('{"d":1,"vertices":[[0.0],[1.0]],"edges":[[true,false]]}')
    with pytest.raises(GraphFormatError, match="vertex 0: coordinate True is not a number"):
        read_json_graph('{"d":2,"vertices":[[true,0],[1,2]],"edges":[]}')
    with pytest.raises(GraphFormatError, match="vertex 0 has a coordinate too large"):
        read_json_graph('{"d":1,"vertices":[[1%s],[0]],"edges":[]}' % ("0" * 399))
    for arrays in ('"vertices":{},"edges":[]', '"vertices":[],"edges":""'):
        with pytest.raises(GraphFormatError, match="'vertices' and 'edges' must be arrays"):
            read_json_graph('{"d":1,%s}' % arrays)
    for doc in ("[]", "3"):
        with pytest.raises(GraphFormatError, match="document is not a JSON object"):
            read_json_graph(doc)


@settings(max_examples=40, deadline=None)
@given(geometric_graphs(max_vertices=5))
def test_json_round_trip_property(g):
    assert read_json_graph(write_json_graph(g)) == g


def test_gxl_minimal_document():
    g = read_gxl_letter(GXL_MINIMAL)
    assert g.n_vertices == 2
    assert g.vertices[0] == (0.5, 1.5)
    assert g.edges == ((0, 1),)
    labelled = GXL_MINIMAL.replace(
        '<attr name="y"><float>1.5</float></attr>',
        '<attr name="y"><float>1.5</float></attr><attr name="type"><string>A</string></attr>', 1)
    assert read_gxl_letter(labelled) == g


def test_gxl_document_order_defines_vertex_order():
    doc = """<gxl><graph>
    <node id="b"><attr name="x"><float>9</float></attr><attr name="y"><float>9</float></attr></node>
    <node id="a"><attr name="x"><float>1</float></attr><attr name="y"><float>1</float></attr></node>
    <edge from="a" to="b"/>
    </graph></gxl>"""
    g = read_gxl_letter(doc)
    assert g.vertices == ((9.0, 9.0), (1.0, 1.0))
    assert g.edges == ((0, 1),)


def test_gxl_error_cases():
    missing_y = GXL_MINIMAL.replace('<attr name="y"><float>1.5</float></attr>', "", 1)
    with pytest.raises(GraphFormatError, match="missing an x or y"):
        read_gxl_letter(missing_y)
    with pytest.raises(GraphFormatError, match="unknown node"):
        read_gxl_letter(GXL_MINIMAL.replace('to="_1"', 'to="_9"'))
    with pytest.raises(GraphFormatError, match="non-float"):
        read_gxl_letter(GXL_MINIMAL.replace("<float>0.5</float>", "<float>abc</float>"))
    with pytest.raises(GraphFormatError, match="duplicate node id"):
        read_gxl_letter(GXL_MINIMAL.replace('id="_1"', 'id="_0"'))
    with pytest.raises(GraphFormatError, match="node without id"):
        read_gxl_letter(GXL_MINIMAL.replace('<node id="_1">', "<node>"))
    for empty in ("<float/>", ""):
        with pytest.raises(GraphFormatError, match="attribute 'x' has no value"):
            read_gxl_letter(GXL_MINIMAL.replace("<float>0.5</float>", empty))
    with pytest.raises(GraphFormatError, match=r"edge \(0, 0\): self-loop"):
        read_gxl_letter(GXL_MINIMAL.replace('to="_1"', 'to="_0"'))
    with pytest.raises(GraphFormatError, match="XML"):
        read_gxl_letter("<gxl><graph>")


def test_planarize_crossing_diagonals():
    g = GeometricGraph.build([(0, 0), (2, 2), (0, 2), (2, 0)], [(0, 1), (2, 3)])
    flat = planarize(g)
    assert flat.n_vertices == 5
    assert flat.n_edges == 4
    assert flat.vertices[4] == pytest.approx((1.0, 1.0))
    assert flat.vertices[:4] == g.vertices
    assert validate_graph(flat) == []


def test_planarize_keeps_planar_graph_unchanged():
    g = packaged_graph("figures/zero_gmd_twin_G")
    assert planarize(g) == g


def test_planarize_three_concurrent_segments():
    g = GeometricGraph.build(
        [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1)],
        [(0, 1), (2, 3), (4, 5)])
    flat = planarize(g)
    assert flat.n_vertices == 7
    assert flat.n_edges == 6
    assert flat.vertices[6] == pytest.approx((0.0, 0.0))
    assert validate_graph(flat) == []


def test_planarize_splits_edge_at_touching_vertex():
    # vertex 2 sits in the middle of edge (0, 1): the edge is split there
    g = GeometricGraph.build([(0, 0), (2, 0), (1, 0), (1, 1)], [(0, 1), (2, 3)])
    flat = planarize(g)
    assert flat.n_vertices == 4
    assert set(flat.edges) == {(0, 2), (1, 2), (2, 3)}
    assert validate_graph(flat) == []


def test_planarize_rejects_collinear_overlap():
    g = GeometricGraph.build([(0, 0), (3, 0), (1, 0), (2, 0)], [(0, 1), (2, 3)])
    with pytest.raises(CollinearOverlapError):
        planarize(g)


def test_planarize_rejects_split_pieces_that_coincide():
    # vertex 0 lies within EPS of edge (1, 4), whose split at vertex 0 would
    # repeat edge (0, 1): an overlap within the drawing tolerance
    g = GeometricGraph.build([(1, 0), (0, 1e-9), (0, 0), (0, 1), (2, 0), (0, 0)],
                             [(0, 1), (0, 3), (1, 4)])
    with pytest.raises(CollinearOverlapError):
        planarize(g)


def test_planarize_rejects_non_2d():
    line = GeometricGraph.build([(0,), (1,)], [(0, 1)], dim=1)
    with pytest.raises(ValueError):
        planarize(line)


@pytest.mark.parametrize("points, edges", [
    # edge (0, 3) crosses edge (1, 2) 1.2e-5 from vertex 2, so one piece of
    # edge (1, 2) is short and nearly parallel to the other
    ([(0, 0), (0, 1.75), (1.5, 0), (1.6953125, 1e-5), (0, 0)],
     [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]),
    # as above, 4.4e-8 from vertex 1, and the short piece comes first in edge order
    ([(0, 0), (1, 0), (3, 2**-23), (0, 0), (0, 0), (0, 2)], [(0, 1), (0, 2), (1, 5)]),
    # edge (1, 4) crosses edge (0, 2) 1.1e-9 from vertex 0
    ([(1, 0), (0, 1e-9), (0, 1), (0, 0), (5, 0), (0, 0)], [(0, 2), (1, 4)]),
], ids=["short-piece", "short-piece-first", "crossing-near-vertex"])
def test_planarize_pieces_of_one_edge_meet_only_at_their_vertex(points, edges):
    flat = planarize(GeometricGraph.build(points, edges))
    assert validate_graph(flat) == []
    assert planarize(flat) == flat


@settings(max_examples=60, deadline=None)
@given(geometric_graphs(max_vertices=6))
def test_planarize_idempotent_valid_and_length_preserving(g):
    try:
        flat = planarize(g)
    except CollinearOverlapError:
        assume(False)
        return
    assert validate_graph(flat) == []
    assert planarize(flat) == flat
    assert total_length(flat) == pytest.approx(
        total_length(g), abs=1e-9 * max(1.0, total_length(g)))
    assert flat.vertices[:g.n_vertices] == g.vertices


@pytest.mark.parametrize("scale", [1e153, 1e154, 1e300])
def test_planarize_crossing_diagonals_at_large_coordinates(scale):
    # from about 1e154 the cross products of segment_intersection overflow
    g = GeometricGraph.build([(-scale, -scale), (scale, scale), (-scale, scale), (scale, -scale)],
                             [(0, 1), (2, 3)])
    if scale < 1e154:
        assert planarize(g).vertices[4:] == ((0.0, 0.0),)
    else:
        with pytest.raises(ValueError, match="too large to intersect"):
            planarize(g)


def test_planarize_crossing_beyond_the_grid_range():
    # x / (2 * EPS) overflows at x = 1e300, but the crossing itself is finite
    x = 1e300
    g = GeometricGraph.build([(x, 0.0), (x, 1.0), (x - math.ulp(x), 0.5), (x + math.ulp(x), 0.5)],
                             [(0, 1), (2, 3)])
    assert planarize(g).vertices[4:] == ((x, 0.5),)


def _crossing(points, e1, e2):
    kind, point, _, _ = segment_intersection(points[e1[0]], points[e1[1]],
                                             points[e2[0]], points[e2[1]])
    assert kind == "point"
    return point


def _squared_distance(p, q):
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy


def test_planarize_crossing_exactly_eps_from_a_representative_joins_it():
    # (0, 1) x (2, 3) is (1e-9, 0) and (2, 3) x (4, 5) is (0, 0); edge (4, 5)
    # stops short of edge (0, 1). Kept apart, the two crossings would be two
    # vertices.
    points = [(1e-9, -1.0), (1e-9, 1.0), (-1.0, 0.0), (1.0, 0.0), (-0.125, -1.0), (2**-31, 2**-28)]
    edges = [(0, 1), (2, 3), (4, 5)]
    first, last = _crossing(points, (0, 1), (2, 3)), _crossing(points, (2, 3), (4, 5))
    assert _squared_distance(first, last) == EPS * EPS
    flat = planarize(GeometricGraph.build(points, edges))
    assert flat.vertices[6:] == ((1e-9, 0.0),)
    assert flat.edges == ((0, 6), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6))


def test_planarize_cluster_merge_is_not_transitive():
    points = [(-0.72, -0.7), (8e-10, 2.3e-9), (-2.3e-9, -1.6e-9), (0.57, 0.82),
              (0.88, -0.47), (-0.88, 0.47), (-0.62, -0.79), (0.62, 0.79)]
    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    a = _crossing(points, (0, 1), (2, 3))
    b = _crossing(points, (2, 3), (4, 5))
    c = _crossing(points, (4, 5), (6, 7))
    assert _squared_distance(b, a) <= EPS * EPS  # b merges into a's vertex
    assert _squared_distance(c, b) <= EPS * EPS < _squared_distance(c, a)
    flat = planarize(GeometricGraph.build(points, edges))
    assert flat.vertices[8:] == (a, c)
    assert flat.edges == ((0, 8), (1, 8), (2, 8), (3, 8), (4, 9), (5, 8), (6, 9), (7, 9),
                          (8, 9))


def test_planarize_crossing_near_two_representatives_joins_the_lower():
    points = [(-1.8e-9, -4e-10), (0.89, 0.46), (0.75, -0.66), (-2.7e-9, 1.4e-9),
              (-0.37, -0.93), (0.37, 0.93), (0.63, -0.78), (-0.63, 0.78)]
    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    first = _crossing(points, (0, 1), (4, 5))
    second = _crossing(points, (2, 3), (4, 5))
    last = _crossing(points, (4, 5), (6, 7))
    assert EPS * EPS < _squared_distance(first, second)
    assert max(_squared_distance(last, first), _squared_distance(last, second)) <= EPS * EPS
    flat = planarize(GeometricGraph.build(points, edges))
    # joining vertex 9 instead would give edges (4, 5) and (6, 7) a common
    # piece, which planarize rejects
    assert flat.vertices[8:10] == (first, second)
    assert flat.edges == ((0, 3), (0, 8), (0, 9), (1, 8), (2, 10), (4, 9), (5, 8), (6, 10),
                          (7, 8), (8, 9), (8, 10), (9, 10))


@st.composite
def near_concurrent_drawings(draw):
    """Random segments plus bundles whose crossings fall a few EPS apart.

    A bundle's segments pass within 1.5 EPS of a centre on a grid line of
    planarize's 2 * EPS cells, so their crossings straddle cell boundaries;
    some stop 1.2 to 3 EPS past their anchor. Everything sits at offset 0
    or at 1e6 (where floats are 1.2e-10 apart).
    """
    offset = draw(st.sampled_from([0.0, 1e6]))
    unit = st.floats(-1.0, 1.0)
    segments = []
    for _ in range(draw(st.integers(1, 2))):
        cx = offset + draw(st.integers(-3, 3)) * 2 * EPS + draw(unit) * 0.5 * EPS
        cy = offset + draw(st.integers(-3, 3)) * 2 * EPS + draw(unit) * 0.5 * EPS
        for _ in range(draw(st.integers(2, 5))):
            angle = draw(st.floats(0.0, math.pi))
            dx, dy = math.cos(angle), math.sin(angle)
            px, py = cx + draw(unit) * 1.5 * EPS, cy + draw(unit) * 1.5 * EPS
            lo, hi = (draw(st.one_of(st.floats(0.5, 3.0), st.floats(1.2 * EPS, 3 * EPS)))
                      for _ in range(2))
            segments.append(((px - lo * dx, py - lo * dy), (px + hi * dx, py + hi * dy)))
    for _ in range(draw(st.integers(0, 4))):
        segments.append(tuple((offset + draw(st.floats(-3.0, 3.0)),
                               offset + draw(st.floats(-3.0, 3.0))) for _ in range(2)))
    points = [p for segment in segments for p in segment]
    return GeometricGraph.build(points, [(2 * i, 2 * i + 1) for i in range(len(segments))])


@settings(max_examples=150, deadline=None)
@given(near_concurrent_drawings())
def test_planarize_crossing_vertices_match_a_linear_scan(g):
    try:
        flat = planarize(g)
    except CollinearOverlapError:
        assume(False)
        return
    assert list(flat.vertices[g.n_vertices:]) == crossing_vertices(g)


def test_letter_record_validation(segment_pair):
    g, _ = segment_pair
    with pytest.raises(ValueError):
        LetterRecord(g, "Q", "LOW", "x")
    with pytest.raises(ValueError):
        LetterRecord(g, "A", "TINY", "x")


def test_read_class_index():
    doc = """<GraphCollection><fingerprints base="/" classmodel="henry5" count="2">
    <print file="AP1_0000.gxl" class="A"/><print file="EP1_0001.gxl" class="E"/>
    </fingerprints></GraphCollection>"""
    assert read_class_index(doc) == [("AP1_0000.gxl", "A"), ("EP1_0001.gxl", "E")]
    with pytest.raises(GraphFormatError):
        read_class_index("<GraphCollection/>")


def test_load_letter_directory_with_cxl(tmp_path):
    level = tmp_path / "LOW"
    level.mkdir()
    (level / "a0.gxl").write_text(GXL_MINIMAL)
    (level / "test.cxl").write_text(
        '<GraphCollection><print file="a0.gxl" class="A"/></GraphCollection>')
    records = load_letter_directory(level)
    assert len(records) == 1
    assert records[0].label == "A"
    assert records[0].distortion == "LOW"
    assert records[0].source_id == "a0"
    assert records[0].graph.n_vertices == 2


def test_load_letter_directory_with_labels_json(tmp_path):
    level = tmp_path / "MED"
    level.mkdir()
    g = GeometricGraph.build([(0, 0), (1, 1)], [(0, 1)])
    (level / "x1.json").write_text(write_json_graph(g))
    (level / "labels.json").write_text(json.dumps({"x1.json": "X"}))
    records = load_letter_directory(level)
    assert len(records) == 1
    assert records[0].label == "X"
    assert records[0].graph == g


def test_load_letter_directory_planarizes_crossings(tmp_path):
    level = tmp_path / "HIGH"
    level.mkdir()
    crossing = GeometricGraph.build([(0, 0), (2, 2), (0, 2), (2, 0)], [(0, 1), (2, 3)])
    (level / "x.json").write_text(write_json_graph(crossing))
    (level / "labels.json").write_text(json.dumps({"x.json": "X"}))
    records = load_letter_directory(level)
    assert records[0].graph.n_vertices == 5
    assert read_graph_file(level / "x.json") == crossing


def test_load_letter_directory_requires_labels(tmp_path):
    level = tmp_path / "LOW"
    level.mkdir()
    with pytest.raises(GraphFormatError):
        load_letter_directory(level)
    with pytest.raises(ValueError):
        load_letter_directory(tmp_path / "nope")


def test_builtin_prototypes_are_valid_planar_letters():
    protos = load_prototypes()
    assert sorted(protos) == sorted(
        ["A", "E", "F", "H", "I", "K", "L", "M", "N", "T", "V", "W", "X", "Y", "Z"])
    for letter, g in protos.items():
        assert g.dim == 2
        assert g.n_vertices >= 3
        assert g.n_edges >= 2
        assert validate_graph(g) == [], letter
        assert planarize(g) == g


def test_prototypes_from_directory(tmp_path):
    protos = load_prototypes()
    for letter, g in protos.items():
        (tmp_path / f"{letter}.json").write_text(write_json_graph(g))
    again = load_prototypes(tmp_path)
    assert again == protos
    (tmp_path / "A.json").unlink()
    with pytest.raises(GraphFormatError, match="missing prototype"):
        load_prototypes(tmp_path)
