import json
import math

import pytest
from hypothesis import assume, given, settings

from graphmover.dataset import (CollinearOverlapError, GraphFormatError, LetterRecord,
                                load_letter_directory, load_prototypes, planarize,
                                read_class_index, read_graph_file, read_gxl_letter,
                                read_json_graph, write_json_graph)
from graphmover.geometry import GeometricGraph

from conftest import geometric_graphs
from helpers import packaged_graph, total_length, validate_graph

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
