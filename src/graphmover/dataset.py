"""Graph serialization, GXL ingestion for letter drawings, and planarization.

The native format is a small JSON document::

    {"d": 2, "vertices": [[0.0, 0.0], [1.0, 0.0]], "edges": [[0, 1]]}

with 0-based edge indices, normalized to i < j. Vertex order in the document
is the vertex order of the graph. GXL files are read-only; their <node>
document order likewise defines the vertex order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .geometry import EPS, GeometricGraph, segment_intersection

LETTER_LABELS = ("A", "E", "F", "H", "I", "K", "L", "M", "N", "T", "V", "W", "X", "Y", "Z")
DISTORTION_LEVELS = ("LOW", "MED", "HIGH")


# planarize culls edge pairs with the numpy pass of _pairs_that_may_meet from
# this many pairs on, and tests every pair below. Measured on random drawings
# of equal-length segments in a 10 x 10 box (2-core x86_64, numpy 2.4.6), the
# pass took 1.5-3.4x the loop's time at 10 pairs (5 edges, the size of a
# letter drawing), 1.15-1.3x at 45, 0.9-1.3x at 66 and 78, and 0.84-1.07x at
# 91 (14 edges), where it wins on sparse drawings and ties on dense ones.
_PASS_MIN_PAIRS = 80
# pairs per block of that pass: bounds its temporaries to a few dozen KB
_PAIR_BLOCK = 2 ** 12


class GraphFormatError(ValueError):
    """Malformed graph document or dataset file."""


class CollinearOverlapError(ValueError):
    """Two edges share a collinear stretch; the split is ambiguous."""


@dataclass(frozen=True)
class LetterRecord:
    """One letter drawing: its graph, class label, distortion level and file id."""

    graph: GeometricGraph
    label: str
    distortion: str
    source_id: str

    def __post_init__(self):
        if self.label not in LETTER_LABELS:
            raise ValueError(f"unknown letter label {self.label!r}")
        if self.distortion not in DISTORTION_LEVELS:
            raise ValueError(f"unknown distortion level {self.distortion!r}")


def read_json_graph(data: Union[bytes, str]) -> GeometricGraph:
    """Parse the native format; the GeometricGraph constructor checks the graph."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("document is not a JSON object")
    missing = {"d", "vertices", "edges"} - doc.keys()
    if missing:
        raise GraphFormatError(f"missing keys: {sorted(missing)}")
    # the constructor takes any iterable, so {} or "" would load as an empty graph
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")
    try:
        return GeometricGraph(doc["d"], doc["vertices"], doc["edges"])
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def write_json_graph(g: GeometricGraph) -> str:
    """Serialize to the native format; read_json_graph(write_json_graph(g)) == g."""
    doc = {"d": g.dim,
           "vertices": [list(v) for v in g.vertices],
           "edges": [list(e) for e in g.edges]}
    return json.dumps(doc)


def _parse_xml(data: Union[bytes, str]):
    """The root element of an XML document; imports the XML parser on first use."""
    from xml.etree import ElementTree

    try:
        return ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise GraphFormatError(f"not valid XML: {exc}") from exc


def read_gxl_letter(data: Union[bytes, str]) -> GeometricGraph:
    """Parse a GXL letter drawing: 2D nodes with float attrs x, y, undirected edges."""
    root = _parse_xml(data)
    index: dict[str, int] = {}
    points: list[tuple[float, float]] = []
    for node in root.iter("node"):
        node_id = node.get("id")
        if node_id is None:
            raise GraphFormatError("node without id")
        if node_id in index:
            raise GraphFormatError(f"duplicate node id {node_id!r}")
        coords = {}
        for attr in node.findall("attr"):
            name = attr.get("name")
            if name not in ("x", "y"):
                continue
            value = list(attr)
            if not value or value[0].text is None:
                raise GraphFormatError(f"node {node_id!r}: attribute {name!r} has no value")
            try:
                coords[name] = float(value[0].text.strip())
            except ValueError as exc:
                raise GraphFormatError(
                    f"node {node_id!r}: non-float {name!r} value {value[0].text!r}") from exc
        if "x" not in coords or "y" not in coords:
            raise GraphFormatError(f"node {node_id!r} is missing an x or y attribute")
        index[node_id] = len(points)
        points.append((coords["x"], coords["y"]))
    edges = []
    for edge in root.iter("edge"):
        src, dst = edge.get("from"), edge.get("to")
        if src not in index or dst not in index:
            raise GraphFormatError(f"edge references unknown node: {src!r} -> {dst!r}")
        edges.append((index[src], index[dst]))
    try:
        return GeometricGraph(2, points, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def planarize(g: GeometricGraph) -> GeometricGraph:
    """Insert vertices at edge crossings so segments only meet at endpoints.

    Every interior crossing point becomes a new vertex appended after the
    original vertices (original order preserved) and the crossing edges are
    split there, leaving the drawn point set unchanged. Where an endpoint of
    one edge lies inside another edge, the other edge is split at that
    existing vertex. A crossing within EPS of an earlier crossing's vertex
    (its cluster's representative) merges into the lowest-numbered such
    vertex; the merge is not transitive. Collinear overlapping edges are an
    error, and so are two split pieces that join the same pair of vertices
    (an overlap within EPS).

    Representatives are looked up in a dict keyed by grid cell of side
    2 * EPS, so a crossing within EPS of one lies in the 3x3 block of cells
    around it even after rounding in the cell index. Taking the lowest id
    found in that block returns what a scan of all representatives in
    creation order would, so the new vertices come out in the same order.

    From _PASS_MIN_PAIRS edge pairs on (14 edges), a numpy pass over the
    pairs first drops every pair whose segments' crossing parameter lies
    clearly outside one segment's range, with a margin over the rounding of
    the lengths: such a pair is one `segment_intersection` calls "none", so
    skipping it changes nothing. Of the kept pairs it also settles those
    that are certainly a crossing inside both segments and farther than EPS
    from every endpoint (tests that divide by a length keep a margin; the
    range, the point and its endpoint distances are the same float
    operations as in the loop, so they need none), and hands over their t,
    u and point, which are what `segment_intersection` returns. Every other
    kept pair (nearly parallel, collinear or near an endpoint) goes to
    `segment_intersection`, the only decider. Either way the pairs come in
    the same lexicographic order as without the pass, so cluster ids do not
    change. Below that count (letter drawings have about 10 pairs) the
    pass's fixed numpy cost exceeds the loop's, and every pair is tested.

    The output is valid by construction, so it is built without the
    constructor's checks (`GeometricGraph._from_valid`): the coordinates
    are the input's and the crossing points, all Python floats; every piece
    joins two distinct vertex ids in range, stored as (low, high), since
    the split stage skips v0 == v1; and a duplicate piece raises. A new
    vertex stays within `geometry.MAX_COORD`: a crossing is ax + t*rx with
    t in [0, 1] (or within EPS of ax), rounding is monotone, and
    ax + fl(MAX_COORD - ax) exceeds MAX_COORD by at most half an ulp of a
    number below 2**511, which rounds back to MAX_COORD.
    """
    if g.dim != 2:
        raise ValueError(f"planarize needs a 2D graph, got dim {g.dim}")
    pts = g.vertices
    edges = list(g.edges)
    # events[e] maps a vertex id (existing or len(vertices)+cluster) to its
    # parameter along edge e
    events: dict[int, dict[int, float]] = {}
    clusters: list[tuple[float, float]] = []
    grid: dict[tuple, list[int]] = {}  # cell -> ids of the representatives in it, ascending
    cell = 2 * EPS
    n = g.n_vertices

    def add_event(edge_idx: int, t: float, vertex_id: int) -> None:
        events.setdefault(edge_idx, {}).setdefault(vertex_id, t)

    def cluster_id(point: tuple[float, float]) -> int:
        px, py = point
        i, j = math.floor(px / cell), math.floor(py / cell)
        best = len(clusters)
        for ci in (i - 1, i, i + 1):
            for cj in (j - 1, j, j + 1):
                for cid in grid.get((ci, cj), ()):
                    if cid >= best:
                        break
                    dx, dy = px - clusters[cid][0], py - clusters[cid][1]
                    if dx * dx + dy * dy <= EPS * EPS:
                        best = cid
                        break
        if best == len(clusters):
            clusters.append(point)
            grid.setdefault((i, j), []).append(best)
        return best

    if len(edges) * (len(edges) - 1) // 2 < _PASS_MIN_PAIRS:
        pairs = ((a, b, None) for a, b in itertools.combinations(range(len(edges)), 2))
    else:
        pairs = _pairs_that_may_meet(pts, edges)
    for a, b, crossing in pairs:
        if crossing is not None:
            t, u, point = crossing
        else:
            e1, e2 = edges[a], edges[b]
            kind, point, t, u = segment_intersection(
                pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
            if kind == "overlap":
                raise CollinearOverlapError(
                    f"edges {e1} and {e2} overlap along a collinear stretch")
            if kind != "point":
                continue
            end1 = _nearest_endpoint(pts, e1, point)
            end2 = _nearest_endpoint(pts, e2, point)
            if end1 is not None and end2 is not None:
                continue  # endpoint contact, nothing to split
            if end1 is not None:
                add_event(b, u, end1)
                continue
            if end2 is not None:
                add_event(a, t, end2)
                continue
        cid = cluster_id(point)
        add_event(a, t, n + cid)
        add_event(b, u, n + cid)

    if not events:
        return g

    new_edges: set[tuple[int, int]] = set()
    for idx, (i, j) in enumerate(edges):
        stops = sorted((t, vid) for vid, t in events.get(idx, {}).items())
        chain = [i] + [vid for _, vid in stops] + [j]
        for v0, v1 in zip(chain, chain[1:]):
            if v0 != v1:
                piece = (v0, v1) if v0 < v1 else (v1, v0)
                if piece in new_edges:
                    raise CollinearOverlapError(
                        f"edge {edges[idx]} overlaps another edge along {piece} after splitting")
                new_edges.add(piece)
    return GeometricGraph._from_valid(2, g.vertices + tuple(clusters), tuple(sorted(new_edges)))


def _pairs_that_may_meet(pts, edges):
    """The pairs (a, b, crossing), a < b, of indices into edges in lexicographic
    order, less pairs that `segment_intersection` certainly calls "none".

    A pair is dropped where the non-parallel branch of `segment_intersection`
    returns "none": the cross product `denom` is clear of the parallel
    tolerance and the crossing parameter t or u lies outside its segment's
    range [-EPS/len, 1 + EPS/len]. denom, t and u are the same float
    operations as there and round alike; only `len` (numpy's hypot against
    math.hypot) may round differently, so the pass asks for twice the
    tolerance and widens each range by 2 * EPS/len + 1e-9.

    A kept pair's `crossing` is (t, u, (px, py)) where the pair is certainly a
    crossing inside both segments, and None where `segment_intersection` has
    to decide. It is certain where, with the same margin of two over every
    test that divides by a length, both lengths exceed EPS, denom clears the
    parallel tolerance and neither segment's collinearity test can hold
    (each endpoint test fails, whichever segment is the longer); and then,
    without a margin because no length enters them, where 0 <= t <= 1 and
    0 <= u <= 1, so the range test passes and the clamps change nothing,
    and where the point ax + t*rx, ay + t*ry lies farther than EPS from all
    four endpoints by `_nearest_endpoint`'s own squared-distance test. The
    point and those distances are the same float operations as there, so
    `segment_intersection` returns ("point", (px, py), t, u) for the pair
    and `_nearest_endpoint` None for both edges. A margin on t would not
    do: the point rounds relative to the coordinates' size, not the
    segment's length.

    With coordinates within MAX_COORD, as a GeometricGraph's are, no
    intermediate overflows. The pairs are tested in blocks of at most
    _PAIR_BLOCK.
    """
    ends = np.array([pts[i] + pts[j] for i, j in edges])  # x0, y0, x1, y1 per edge
    x0, y0, x1, y1 = ends.T
    rx, ry = x1 - x0, y1 - y0
    length = np.hypot(rx, ry)
    with np.errstate(divide="ignore", over="ignore"):  # inf for a (near) zero length
        # |t - 0.5| > half is t outside [-reach, 1 + reach]
        half = 0.5 + (2 * EPS / length + 1e-9)
    tol = 2e-12 * length
    m = len(ends)
    r0 = 0
    while r0 < m - 1:
        # rows r0.. pair with columns r0 + 1..m - 1: as many rows as fill a
        # block, or one row in blocks of columns
        rows = max(1, _PAIR_BLOCK // (m - 1 - r0))
        cols = _PAIR_BLOCK // rows
        a = slice(r0, min(r0 + rows, m - 1))
        ax, ay, arx, ary = x0[a, None], y0[a, None], rx[a, None], ry[a, None]
        for c0 in range(r0 + 1, m, cols):
            b = slice(c0, min(c0 + cols, m))
            acx, acy = x0[b] - ax, y0[b] - ay
            denom = arx * ry[b] - ary * rx[b]
            num_t = acx * ry[b] - acy * rx[b]
            num_u = acx * ary - acy * arx
            # where denom is 0, t and u are inf or nan and the tolerance test
            # keeps the pair
            with np.errstate(all="ignore"):
                t = num_t / denom
                u = num_u / denom
                drop = np.abs(denom) > tol[a, None] * length[b]
                drop &= (np.abs(t - 0.5) > half[a, None]) | (np.abs(u - 0.5) > half[b])
            if b.start < a.stop:  # the block reaches the diagonal: drop (a, b) with b <= a
                drop |= np.arange(b.start, b.stop) <= np.arange(a.start, a.stop)[:, None]
            ia, ib = np.nonzero(~drop)
            if not ia.size:  # most blocks of a sparse drawing keep no pair
                continue
            ka, kb = ia + a.start, ib + b.start
            yield from zip(ka.tolist(), kb.tolist(),
                           _settled_crossings(ends[ka], ends[kb], length[ka], length[kb],
                                              denom[ia, ib], num_t[ia, ib], num_u[ia, ib]))
        r0 = a.stop


def _settled_crossings(p, q, len_p, len_q, denom, num_t, num_u):
    """(t, u, (px, py)) for each kept pair of edges p, q (rows x0, y0, x1, y1)
    that is certainly a plain crossing, else None; the tests are those that
    `_pairs_that_may_meet` describes."""
    with np.errstate(all="ignore"):
        t = num_t / denom
        u = num_u / denom
        px = p[:, 0] + t * (p[:, 2] - p[:, 0])
        py = p[:, 1] + t * (p[:, 3] - p[:, 1])
        sure = (len_p > 2 * EPS) & (len_q > 2 * EPS)
        sure &= np.abs(denom) > 2e-12 * len_p * len_q
        sure &= (np.abs(num_u) / len_p > 2 * EPS) & (np.abs(num_t) / len_q > 2 * EPS)
        sure &= (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
        for x, y in (p[:, 0:2].T, p[:, 2:4].T, q[:, 0:2].T, q[:, 2:4].T):
            dx, dy = x - px, y - py
            sure &= dx * dx + dy * dy > EPS * EPS
    return [(ti, ui, (xi, yi)) if ok else None
            for ok, ti, ui, xi, yi in zip(sure.tolist(), t.tolist(), u.tolist(),
                                          px.tolist(), py.tolist())]


def _nearest_endpoint(pts, edge, point) -> Optional[int]:
    best = None
    best_d2 = EPS * EPS
    for k in edge:
        dx, dy = pts[k][0] - point[0], pts[k][1] - point[1]
        d2 = dx * dx + dy * dy
        if d2 <= best_d2:
            best, best_d2 = k, d2
    return best


def read_class_index(data: Union[bytes, str]) -> list[tuple[str, str]]:
    """(file, class) pairs from an XML class file, in document order."""
    root = _parse_xml(data)
    pairs = [(el.get("file"), el.get("class"))
             for el in root.iter()
             if el.get("file") is not None and el.get("class") is not None]
    if not pairs:
        raise GraphFormatError("class file lists no (file, class) entries")
    return pairs


def read_graph_file(path) -> GeometricGraph:
    """Read a graph file: GXL when the suffix is ``.gxl`` (any case), else native JSON."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix.lower() == ".gxl":
        return read_gxl_letter(data)
    return read_json_graph(data)


def load_letter_directory(path) -> list[LetterRecord]:
    """Load one distortion directory of letter drawings.

    The directory's name, in any case, is the distortion level. Labels come
    from the directory's class files (any ``*.cxl``, concatenated in sorted
    filename order) or from a ``labels.json`` object mapping file names to
    letters. Graphs are planarized so that downstream consumers see valid
    geometric graphs.
    """
    root = Path(path)
    distortion = root.name.upper()
    if distortion not in DISTORTION_LEVELS:
        raise ValueError(f"distortion must be one of {DISTORTION_LEVELS}, got {distortion!r}")
    entries: list[tuple[str, str]] = []
    labels_json = root / "labels.json"
    class_files = sorted(root.glob("*.cxl"))
    if labels_json.exists():
        mapping = json.loads(labels_json.read_text())
        if not isinstance(mapping, dict):
            raise GraphFormatError(f"{labels_json} is not a JSON object")
        if not mapping:
            raise GraphFormatError(f"{labels_json} lists no drawings")
        entries = sorted(mapping.items())
    elif class_files:
        for cf in class_files:
            entries.extend(read_class_index(cf.read_bytes()))
    else:
        raise GraphFormatError(f"no labels.json or *.cxl class file in {root}")
    return [LetterRecord(planarize(read_graph_file(root / fname)), label, distortion,
                         Path(fname).stem)
            for fname, label in entries]


def load_prototypes(path=None) -> dict[str, GeometricGraph]:
    """The 15 letter prototypes, keyed by letter, in alphabetical label order.

    Reads ``<LETTER>.json`` from the given directory, or from the package's
    ``data/prototypes`` directory when no path is given.
    """
    root = Path(__file__).parent / "data" / "prototypes" if path is None else Path(path)
    protos = {}
    for label in LETTER_LABELS:
        target = root / f"{label}.json"
        if not target.exists():
            raise GraphFormatError(f"missing prototype for letter {label}: {target}")
        protos[label] = read_graph_file(target)
    return protos
