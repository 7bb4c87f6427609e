import itertools
import json
import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from graphmover import geometry
from graphmover.dataset import (GraphFormatError, LetterRecord, load_letter_directory,
                                load_prototypes, read_class_index, read_graph_file,
                                read_gxl_letter, read_json_graph, write_json_graph)
from graphmover.geometry import (EPS, MAX_COORD, CollinearOverlapError, CostParams,
                                 GeometricGraph, planarize, segment_intersection)
from graphmover.ggd import ggd_exact
from graphmover.gmd import gmd

from conftest import geometric_graphs
from helpers import (crossing_vertices, packaged_graph, planarize_loop, total_length,
                     validate_graph)

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
    # nesting beyond the recursion limit, an integer beyond the interpreter's
    # 4,300-digit conversion limit and bytes that are not UTF-8
    for doc in ("[" * 100_000, '{"d":1,"vertices":[[%s]],"edges":[]}' % ("1" * 5000),
                '{"d":%s,"vertices":[],"edges":[]}' % ("2" * 5000), b'{"d":\xff}'):
        with pytest.raises(GraphFormatError, match="^not valid JSON: "):
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


# segment (2, 3) crosses (0, 1) at an angle of 1e-9 with both ends within EPS
# of its line, and the crossing found along each is more than EPS from the
# other: segment_intersection takes them for collinear, an overlap
TINY_ANGLE = [(1.6363099978770614, -1.1499954742726473),
              (-1.6363099978770614, 1.1499954742726473),
              (1.2271327385913122, -0.8624264956357928),
              (-0.4708506423965938, 0.3309129135911991)]


def test_planarize_rejects_collinear_overlap():
    g = GeometricGraph.build([(0, 0), (3, 0), (1, 0), (2, 0)], [(0, 1), (2, 3)])
    with pytest.raises(CollinearOverlapError):
        planarize(g)
    assert segment_intersection(*TINY_ANGLE)[0] == "overlap"
    for g in (_segments(TINY_ANGLE), _segments(TINY_ANGLE + PADDING)):
        with pytest.raises(CollinearOverlapError):
            planarize(g)


# vertex 0 lies within EPS of edge (1, 4); edges (0, 1) and (1, 4) share vertex 1
SPLIT_ONTO_AN_EDGE = ([(1, 0), (0, 1e-9), (0, 0), (0, 1), (2, 0), (0, 0)], [(0, 1), (0, 3), (1, 4)])


def test_planarize_rejects_split_pieces_that_coincide():
    # vertex 0 lies within EPS of edge (1, 4), whose split at vertex 0 would
    # repeat edge (0, 1): an overlap within the drawing tolerance
    g = GeometricGraph.build(*SPLIT_ONTO_AN_EDGE)
    with pytest.raises(CollinearOverlapError):
        planarize(g)


@pytest.mark.parametrize("points, edges, message", [
    ([(0, 0), (3, 0), (1, 0), (2, 0)], [(0, 1), (2, 3)],
     "edges (0, 1) and (2, 3) overlap along a collinear stretch"),
    (*SPLIT_ONTO_AN_EDGE, "edge (1, 4) overlaps another edge along (0, 1) after splitting"),
], ids=["collinear-stretch", "after-splitting"])
@pytest.mark.parametrize("padded", [False, True])
def test_planarize_overlap_messages_name_the_first_overlap(points, edges, message, padded):
    if padded:  # the same drawing through the numpy pass
        start = len(points)
        points = points + PADDING
        edges = edges + [(i, i + 1) for i in range(start, len(points), 2)]
    with pytest.raises(CollinearOverlapError) as caught:
        planarize(GeometricGraph.build(points, edges))
    assert str(caught.value) == message


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
    _assert_checked(flat)
    assert planarize(flat) == flat
    assert total_length(flat) == pytest.approx(
        total_length(g), abs=1e-9 * max(1.0, total_length(g)))
    assert flat.vertices[:g.n_vertices] == g.vertices


def _assert_checked(flat):
    # planarize builds its output without the constructor's checks; tuple
    # equality alone would accept 1 == 1.0 or numpy scalars
    checked = GeometricGraph(2, flat.vertices, flat.edges)
    assert checked == flat and hash(checked) == hash(flat)
    assert all(type(x) is float for v in flat.vertices for x in v)
    assert all(type(i) is int for e in flat.edges for i in e)


# 14 parallel unit segments clear of the drawings below: with them a drawing
# has enough edge pairs for planarize's numpy pass
PADDING = [(x, 100.0 + k) for k in range(14) for x in (0.0, 1.0)]


def _segments(points):
    return GeometricGraph.build(points, [(i, i + 1) for i in range(0, len(points), 2)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e153, MAX_COORD])
def test_planarize_crossing_diagonals_at_large_coordinates(scale):
    diagonals = [(-scale, -scale), (scale, scale), (-scale, scale), (scale, -scale)]
    for g in (_segments(diagonals), _segments(diagonals + PADDING)):
        assert planarize(g).vertices[g.n_vertices:] == ((0.0, 0.0),)


@pytest.mark.filterwarnings("error")
def test_planarize_crossing_beyond_the_grid_range():
    # at the bound the cell index x / (2 * EPS) is about 2**539, and floats
    # are 2**457 apart, so the crossing is on no endpoint
    x = math.nextafter(MAX_COORD, 0.0)
    crossing = [(x, 0.0), (x, 1.0), (x - math.ulp(x), 0.5), (MAX_COORD, 0.5)]
    for g in (_segments(crossing), _segments(crossing + PADDING)):
        assert planarize(g).vertices[g.n_vertices:] == ((x, 0.5),)


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
    some stop 1.2 to 3 EPS past their anchor. A bundle may also hold a
    segment only 1 to 3 EPS long, and a line split into two nearly parallel
    pieces whose joint lies up to 2 EPS off the line. Everything sits at
    offset 0 or at 1e6 (where floats are 1.2e-10 apart). Up to 12 random
    segments take some drawings past planarize's cut-over to its numpy pass,
    and some drawings are scaled up so that their coordinates reach 1% to
    100% of MAX_COORD.
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
        angle = draw(st.floats(0.0, math.pi))
        dx, dy = math.cos(angle), math.sin(angle)
        if draw(st.booleans()):
            length = draw(st.floats(1.0, 3.0)) * EPS
            segments.append(((cx, cy), (cx + length * dx, cy + length * dy)))
        if draw(st.booleans()):
            off = draw(unit) * 2 * EPS
            joint = (cx - off * dy, cy + off * dx)
            segments.append(((cx - 2 * dx, cy - 2 * dy), joint))
            segments.append((joint, (cx + 2 * dx, cy + 2 * dy)))
    for _ in range(draw(st.integers(0, 12))):
        segments.append(tuple((offset + draw(st.floats(-3.0, 3.0)),
                               offset + draw(st.floats(-3.0, 3.0))) for _ in range(2)))
    top = MAX_COORD / (offset + 4.0)  # every coordinate is within offset + 4
    scale = draw(st.one_of(st.just(1.0), st.floats(top / 100, top)))
    points = [(x * scale, y * scale) for segment in segments for x, y in segment]
    return GeometricGraph.build(points, [(2 * i, 2 * i + 1) for i in range(len(segments))])


@st.composite
def crowded_bundles(draw):
    """Bundles of 3 to 5 segments through a square 3 EPS wide, some with a
    collinear or nearly collinear companion.

    The crossings of a bundle fall within a few EPS of each other, so all
    of them are crowded for planarize's x screen, and the lowest-id merge
    meets chains that it must not merge transitively. A companion copies
    the middle of a bundle's last segment (an overlap along a collinear
    stretch), or joins that segment's end to a point within EPS of it (a
    split piece that repeats the companion). Some drawings carry 14
    parallel segments far off, which take planarize past its cut-over to
    the numpy pass.
    """
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        cx, cy = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        count = draw(st.integers(3, 5))
        turn = draw(st.floats(0.0, math.pi))
        for k in range(count):
            px = cx + draw(st.floats(-1.5, 1.5)) * EPS
            py = cy + draw(st.floats(-1.5, 1.5)) * EPS
            # angles at least half of pi / count apart
            angle = turn + (k + draw(st.floats(-0.25, 0.25))) * math.pi / count
            dx, dy = math.cos(angle), math.sin(angle)
            lo, hi = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
            segments.append(((px - lo * dx, py - lo * dy), (px + hi * dx, py + hi * dy)))
        (x0, y0), (x1, y1) = segments[-1]
        companion = draw(st.sampled_from(["none", "none", "stretch", "chord"]))
        if companion == "stretch":
            s = draw(st.floats(0.1, 0.4))
            segments.append(((x0 + s * (x1 - x0), y0 + s * (y1 - y0)),
                             (x1 - s * (x1 - x0), y1 - s * (y1 - y0))))
        elif companion == "chord":
            s = draw(st.floats(0.1, 0.9))
            off = draw(st.floats(-0.9, 0.9)) * EPS / math.hypot(x1 - x0, y1 - y0)
            segments.append(((x1, y1), (x0 + s * (x1 - x0) - off * (y1 - y0),
                                        y0 + s * (y1 - y0) + off * (x1 - x0))))
    points = [p for segment in segments for p in segment]
    if draw(st.booleans()):
        points += PADDING
    return _segments(points)


def _shuffled(draw, points):
    """`_segments(points)` with its vertex ids in an order drawn by Hypothesis,
    so that vertex ids and pair order disagree."""
    order = draw(st.permutations(range(len(points))))
    where = {old: new for new, old in enumerate(order)}
    return GeometricGraph.build([points[i] for i in order],
                                [(where[i], where[i + 1]) for i in range(0, len(points), 2)])


@st.composite
def star_drawings(draw):
    """Segments through and ending at one to three integer hubs, exactly.

    At a hub, 1 to 3 segments pass through and up to 3 end on it, from
    separate vertices, in distinct lattice directions. The crossings there
    are one vertex at t = 0.5 exactly, so an edge holds several stops at
    one t: vertices that touch it and the crossing vertex, whose order the
    (t, vertex id) rule decides. A through segment that misses the hub by
    EPS / 2 meets that vertex at more than one t, and the first event in
    pair order decides. Many such drawings raise, and then the message must
    match. Vertex ids are shuffled, and some drawings carry 14 parallel
    segments far off, which take planarize past its cut-over to the numpy
    pass.
    """
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)]
    points = []
    for _ in range(draw(st.integers(1, 3))):
        hx, hy = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        through = draw(st.integers(1, 3))
        ending = draw(st.integers(0, 3))
        chosen = draw(st.lists(st.sampled_from(directions), min_size=through + ending,
                               max_size=through + ending, unique=True))
        for k, (dx, dy) in enumerate(chosen):
            reach = draw(st.integers(1, 2))
            far = (float(hx + reach * dx), float(hy + reach * dy))
            if k < through:
                # a through segment may miss the hub by under EPS: its
                # crossings there join one vertex at different t
                miss = draw(st.sampled_from([0.0, 0.0, -0.5, 0.5])) * EPS / math.hypot(dx, dy)
                points += [(hx - reach * dx - miss * dy, hy - reach * dy + miss * dx),
                           (far[0] - miss * dy, far[1] + miss * dx)]
            elif draw(st.booleans()):
                points += [(float(hx), float(hy)), far]
            else:
                points += [(float(hx - reach * dx), float(hy - reach * dy)), (float(hx), float(hy))]
    if draw(st.booleans()):
        points += PADDING
    return _shuffled(draw, points)


@st.composite
def random_drawings(draw):
    """The `drawings` benchmark's shape: segments of length 6.5 centred
    uniformly in a 10 x 10 box and uniformly oriented, 2 to 40 of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    centres = rng.uniform(0.0, 10.0, size=(n, 2))
    angles = rng.uniform(0.0, np.pi, size=n)
    half = 3.25 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return _segments([tuple(p) for pair in zip(centres - half, centres + half) for p in pair])


def _crossing_onto_an_endpoint():
    # at 3.35e151 floats are 2**450 apart, so edge (0, 1) is 40 ulps long;
    # edge (2, 3) crosses it at t = 0.9975, far from its end by any margin
    # on t, yet the crossing rounds onto vertex 1
    x, y = 3.35e151, 1e151
    ulp = math.ulp(x)
    return [(x, y), (x + 40 * ulp, y), (x + 39 * ulp, y - 4.5e149), (x + 41 * ulp, y + 5.5e149)]


def _kept_pairs(pts, edges):
    """The pair pass's arrays as (a, b, crossing) per kept pair, where
    crossing is (t, u, (px, py)) for a settled pair and None for one left to
    the loop."""
    a, b, sure, t, u, px, py = geometry._pairs_that_may_meet(pts, edges)
    return [(ai, bi, (ti, ui, (xi, yi)) if ok else None)
            for ai, bi, ok, ti, ui, xi, yi in zip(a.tolist(), b.tolist(), sure.tolist(),
                                                  t.tolist(), u.tolist(), px.tolist(),
                                                  py.tolist())]


def test_pair_pass_leaves_a_crossing_that_rounds_onto_an_endpoint_to_the_loop():
    points = _crossing_onto_an_endpoint()
    kind, point, t, _ = segment_intersection(*points)
    assert kind == "point" and point == points[1] and t < 0.998
    g = _segments(points + PADDING)
    assert (0, 1, None) in _kept_pairs(g.vertices, g.edges)
    flat = planarize(g)
    assert flat.vertices == g.vertices
    assert flat.edges[:3] == ((0, 1), (1, 2), (1, 3))


def _rungs(n):
    """A vertical segment crossed by n parallel horizontal unit segments."""
    return [(0.5, -1.0), (0.5, float(n))] + [(x, float(k)) for k in range(n) for x in (0.0, 1.0)]


def _dashes(n, gaps=None, angle=0.0):
    """A dashed line of n unit segments at `angle`, with unit gaps or the
    given ones, and a unit vertical through the middle of dash n // 2."""
    c, s = math.cos(angle), math.sin(angle)
    gaps = [1.0] * n if gaps is None else gaps
    starts = itertools.accumulate([0.0] + [1.0 + gap for gap in gaps[:n - 1]])
    dashes = [(x * c, x * s) for x0 in starts for x in (x0, x0 + 1.0)]
    mx, my = dashes[n // 2 * 2]
    mx, my = mx + 0.5 * c, my + 0.5 * s
    return [(mx, my - 1.0), (mx, my + 1.0)] + dashes


def _assert_matches_the_loop(g):
    try:
        expected = planarize_loop(g)
    except CollinearOverlapError as exc:
        with pytest.raises(CollinearOverlapError) as caught:
            planarize(g)
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
    else:
        flat = planarize(g)
        assert flat.vertices == expected.vertices
        assert flat.edges == expected.edges


@pytest.mark.parametrize("drawings", [near_concurrent_drawings, crowded_bundles, star_drawings,
                                      random_drawings])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_planarize_matches_the_loop(drawings, data):
    # the numpy clusters, events and split stage against the loop they replaced
    _assert_matches_the_loop(data.draw(drawings()))


@pytest.mark.parametrize("points", [
    TINY_ANGLE + PADDING,
    _crossing_onto_an_endpoint() + PADDING,
    [(-1e4, -4e-9), (1e4, 4e-9), (-1e4, 4e-9), (1e4, -4e-9)] + PADDING,
    # edge (0, 1) meets the crossing at (0, 0) twice, once as itself and once
    # as the crossing with the diagonal that merges into it, and the end of
    # edge (6, 7) between: only the first event per edge and vertex counts
    [(1.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (-0.9999999996464466, -1.0000000003535534),
     (1.0000000003535534, 0.9999999996464466), (-1.0, 1.0), (0.0, 0.0)] + PADDING,
], ids=["tiny-angle", "crossing-onto-an-endpoint", "below-the-parallel-tolerance",
        "vertex-met-twice"])
def test_planarize_matches_the_loop_on_fixed_drawings(points):
    _assert_matches_the_loop(_segments(points))


@settings(max_examples=150, deadline=None)
@given(near_concurrent_drawings())
@example(_segments(_crossing_onto_an_endpoint() + PADDING))
def test_planarize_crossing_vertices_match_a_linear_scan(g):
    try:
        flat = planarize(g)
    except CollinearOverlapError:
        assume(False)
        return
    assert list(flat.vertices[g.n_vertices:]) == crossing_vertices(g)
    _assert_checked(flat)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(near_concurrent_drawings())
@example(_segments(_crossing_onto_an_endpoint() + PADDING))
@example(_segments(TINY_ANGLE + PADDING))
# these two cross at an angle below the parallel tolerance, each end more
# than EPS off the other's line: "none"
@example(_segments([(-1e4, -4e-9), (1e4, 4e-9), (-1e4, 4e-9), (1e4, -4e-9)] + PADDING))
# a line crossed by parallel segments, and parallel segments 0 to 4 EPS apart
@example(_segments(_rungs(20)))
@example(_segments([(x, k * EPS) for k in (0.0, 0.5, 1.5, 2.5, 4.0) for x in (0.0, 1.0)]))
# dashed lines: collinear segments that lie apart, along x and at an angle,
# and ones 0 to 4 EPS apart along the line; a segment on a longer one's line
# reaches past both its ends
@example(_segments(_dashes(20)))
@example(_segments([(4.0, 0.0), (5.0, 0.0), (0.0, 0.0), (10.0, 0.0)] + PADDING))
@example(_segments(_dashes(20, angle=0.3)))
@example(_segments(_dashes(6, [k * EPS for k in (0.0, 0.5, 1.5, 2.5, 4.0)]) + PADDING))
@example(_segments(_dashes(6, [k * EPS for k in (0.0, 0.5, 1.5, 2.5, 4.0)], angle=0.3)
                   + PADDING))
def test_pair_pass_drops_only_pairs_that_do_not_meet(g):
    # and hands over a crossing only where segment_intersection finds the
    # same floats and the crossing is on no endpoint of either edge
    pts, edges = g.vertices, g.edges
    kept = _kept_pairs(pts, edges)
    pairs = [(a, b) for a, b, _ in kept]
    assert pairs == sorted(set(pairs))
    settled = {(a, b): crossing for a, b, crossing in kept}
    for a, b in itertools.combinations(range(len(edges)), 2):
        e1, e2 = edges[a], edges[b]
        found = segment_intersection(pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
        if (a, b) not in settled:
            assert found[0] == "none"
        elif settled[a, b] is not None:
            t, u, point = settled[a, b]
            assert found == ("point", point, t, u)
            assert geometry._nearest_endpoint(pts, e1, point) is None
            assert geometry._nearest_endpoint(pts, e2, point) is None


def test_pair_pass_drops_parallel_segments_on_distinct_lines():
    # segment_intersection calls each such pair "none", so only the crossings
    # of the vertical are kept, and none of the 19,900 parallel pairs
    g = _segments(_rungs(200))
    kept = _kept_pairs(g.vertices, g.edges)
    assert [(a, b) for a, b, _ in kept] == [(0, b) for b in range(1, 201)]
    _assert_matches_the_loop(g)


def test_pair_pass_drops_collinear_segments_that_lie_apart():
    # the dashes lie on one line, so each of their 44,850 pairs passes the
    # parallel and collinearity tests; only the vertical's crossing is kept.
    # Over 256 edges, so that a split stage whose edge ids wrapped in a
    # narrow integer type would join pieces of different edges
    g = _segments(_dashes(300))
    kept = _kept_pairs(g.vertices, g.edges)
    assert [(a, b) for a, b, _ in kept] == [(0, 151)]
    _assert_matches_the_loop(g)


@pytest.mark.parametrize("block", [1, 7, 100])
def test_pair_pass_blocks_keep_the_pairs_and_their_order(block, monkeypatch):
    rng = np.random.default_rng(40)
    g = _segments([tuple(p) for p in rng.uniform(0.0, 10.0, size=(80, 2))])
    expected = _kept_pairs(g.vertices, g.edges)
    assert 0 < len(expected) < 40 * 39 // 2
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    assert _kept_pairs(g.vertices, g.edges) == expected


@pytest.mark.filterwarnings("error")
def test_pair_pass_coordinate_bound_overflows_nothing():
    # scaling by a power of two changes no float operation's rounding, so at
    # the bound segment_intersection and the pass agree with the corners
    # scaled down to 2**500, where no intermediate comes near 2**1024, unless
    # one overflows. Scaled down to 2**10 they would not agree: the absolute
    # EPS tests decide collinear diagonal pairs differently at that size.
    m = MAX_COORD
    corners = [(x, y) for x in (-m, 0.0, m) for y in (-m, 0.0, m)]
    small = [(x * 2.0 ** -10, y * 2.0 ** -10) for x, y in corners]
    g = GeometricGraph.build(corners, list(itertools.combinations(range(9), 2)))
    kinds = set()
    for (i, j), (k, l) in itertools.combinations(g.edges, 2):
        kind, point, t, u = segment_intersection(small[i], small[j], small[k], small[l])
        if point is not None:
            point = (point[0] * 2.0 ** 10, point[1] * 2.0 ** 10)
        assert segment_intersection(corners[i], corners[j], corners[k], corners[l]) == (
            kind, point, t, u)
        kinds.add(kind)
    assert kinds == {"none", "point", "overlap"}
    kept = _kept_pairs(g.vertices, g.edges)
    scaled_up = [(a, b, crossing and (crossing[0], crossing[1],
                                      tuple(x * 2.0 ** 10 for x in crossing[2])))
                 for a, b, crossing in _kept_pairs(small, g.edges)]
    assert kept and kept == scaled_up
    assert any(crossing is not None for _, _, crossing in kept)
    square = GeometricGraph.build([corners[i] for i in (0, 2, 6, 8)],
                                  [(0, 1), (0, 2), (1, 3), (2, 3)])
    for h in (g, square):
        assert math.isfinite(gmd(square, h, CostParams()).value)
    assert math.isfinite(ggd_exact(square, _segments(corners[:4]), CostParams())[0])


def test_planarize_memory_is_bounded_on_3000_edges():
    # 4.5 million edge pairs: one float64 array over all of them is 36 MB,
    # a block of the pass 32 KB
    rng = np.random.default_rng(3000)
    centres = rng.uniform(0.0, 55.0, size=(3000, 2))
    angles = rng.uniform(0.0, np.pi, size=3000)
    half = 0.25 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    g = _segments([tuple(p) for pair in zip(centres - half, centres + half) for p in pair])
    tracemalloc.start()
    try:
        flat = planarize(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flat.n_vertices > g.n_vertices
    assert peak < 4 * 2 ** 20


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
