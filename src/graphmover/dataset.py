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

    The edge pairs are visited in lexicographic order, which fixes the
    vertex ids. From _PASS_MIN_PAIRS pairs on (14 edges), the numpy pass of
    `_pairs_that_may_meet` drops every pair that `segment_intersection`
    certainly calls "none" and settles every pair that is certainly a plain
    crossing, inside both segments and farther than EPS from every endpoint,
    with the t, u and point that `segment_intersection` returns. Only the
    pairs it leaves undecided (nearly parallel, collinear or near an
    endpoint) go through `segment_intersection` and `_nearest_endpoint` in
    Python. Below that count (letter drawings have about 10 pairs) the
    pass's fixed numpy cost exceeds the loop's, and every pair goes through
    them. A drawing where nothing crosses or touches is returned as it is,
    before any further numpy work.

    The crossings stay in arrays, in pair order. Sorted by x, a crossing
    whose neighbours on both sides lie more than 2 * EPS away in x is
    within EPS of no other crossing: float subtraction and squaring are
    monotone, so its squared x distance to any other already exceeds
    EPS * EPS. It is its own representative. Only the crowded rest take the
    lowest-id rule in Python, in pair order: each looks for the earlier
    representatives in the 3x3 block of grid cells of side 2 * EPS around
    it, where one within EPS lies even after rounding in the cell index,
    and joins the lowest-numbered within EPS, which is what a scan of all
    representatives in creation order would return. A grid and not a scan
    keeps this linear where many crossings share one x, as on a line
    crossed by many others. A new vertex's id counts the representatives
    before it in pair order.

    A crossing splits both its edges there, and an endpoint inside an edge
    splits that edge. Where one edge meets one vertex more than once, the
    first event in pair order (edge a's before edge b's) gives the
    parameter. An edge's stops run in (t, vertex id) order between its
    ends; a piece that joins a vertex to itself is dropped, and the first
    piece, in edge order, that repeats an earlier one raises.

    The output is valid by construction, so it is built without the
    constructor's checks (`GeometricGraph._from_valid`): the coordinates
    are the input's and the crossing points, all Python floats; every piece
    joins two distinct vertex ids in range, stored as (low, high); and a
    duplicate piece raises. A new vertex stays within `geometry.MAX_COORD`:
    a crossing is ax + t*rx with t in [0, 1] (or within EPS of ax),
    rounding is monotone, and ax + fl(MAX_COORD - ax) exceeds MAX_COORD by
    at most half an ulp of a number below 2**511, which rounds back to
    MAX_COORD.
    """
    if g.dim != 2:
        raise ValueError(f"planarize needs a 2D graph, got dim {g.dim}")
    pts = g.vertices
    edges = g.edges
    m = len(edges)
    if m * (m - 1) // 2 < _PASS_MIN_PAIRS:
        kept = None
        pairs = zip(itertools.count(), itertools.combinations(range(m), 2))
    else:
        kept = _pairs_that_may_meet(pts, edges)
        undecided = np.flatnonzero(~kept[2])
        pairs = zip(undecided.tolist(),
                    zip(kept[0][undecided].tolist(), kept[1][undecided].tolist()))
    # what segment_intersection finds, each with the position of its pair
    # among the visited pairs
    found = []  # (position, t, u, px, py) per crossing
    touches = []  # (position, edge, t, vertex) per endpoint inside an edge
    for k, (a, b) in pairs:
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
        if end1 is None and end2 is None:
            found.append((k, t, u) + point)
        elif end2 is None:
            touches.append((k, b, u, end1))
        elif end1 is None:
            touches.append((k, a, t, end2))
        # else an endpoint contact: nothing to split
    if not found and not touches and (kept is None or not kept[2].any()):
        return g

    if kept is None:  # every pair went through the loop, and none is settled
        a, b = np.array(list(itertools.combinations(range(m), 2))).T
        kept = (a, b, np.zeros(len(a), dtype=bool), *np.zeros((4, len(a))))
    a, b, crossing, t, u, px, py = kept
    found = np.array(found, dtype=float).reshape(-1, 5).T
    k = found[0].astype(np.intp)
    crossing[k] = True
    t[k], u[k], px[k], py[k] = found[1:]
    at = np.flatnonzero(crossing)
    a, b, t, u, px, py = a[at], b[at], t[at], u[at], px[at], py[at]
    rep = _representatives(px, py)
    new = rep == np.arange(len(rep))
    vid = g.n_vertices - 1 + np.cumsum(new)[rep]

    touch_at, touch_edge, touch_t, touch_vid = np.array(touches, dtype=float).reshape(-1, 4).T
    pieces = _split(edges,
                    np.concatenate([a, b, touch_edge.astype(np.intp)]),
                    np.concatenate([t, u, touch_t]),
                    np.concatenate([vid, vid, touch_vid.astype(np.intp)]),
                    np.concatenate([2 * at, 2 * at + 1, 2 * touch_at.astype(np.intp)]))
    return GeometricGraph._from_valid(
        2, g.vertices + tuple(zip(px[new].tolist(), py[new].tolist())), pieces)


def _representatives(px, py):
    """For each crossing (px, py), in pair order, the index of the crossing
    whose vertex it joins: the lowest-indexed earlier representative within
    EPS, else itself. `planarize` describes the screen and the grid."""
    rep = np.arange(len(px))
    order = np.argsort(px, kind="stable")
    apart = np.diff(px[order]) > 2 * EPS
    lonely = np.ones(len(px), dtype=bool)
    lonely[1:] &= apart
    lonely[:-1] &= apart
    crowded = np.sort(order[~lonely]).tolist()
    xs, ys = px[crowded].tolist(), py[crowded].tolist()
    cell = 2 * EPS
    grid: dict[tuple[int, int], list[int]] = {}  # cell -> representatives in it, ascending
    for j, (x, y) in enumerate(zip(xs, ys)):
        ci, cj = math.floor(x / cell), math.floor(y / cell)
        best = j
        for key in itertools.product((ci - 1, ci, ci + 1), (cj - 1, cj, cj + 1)):
            for r in grid.get(key, ()):
                if r >= best:
                    break
                dx, dy = x - xs[r], y - ys[r]
                if dx * dx + dy * dy <= EPS * EPS:
                    best = r
                    break
        if best == j:
            grid.setdefault((ci, cj), []).append(j)
        else:
            rep[crowded[j]] = crowded[best]
    return rep


def _split(edges, edge, t, vertex, when):
    """The pieces of `edges` split at their events, sorted, as (low, high)
    pairs of Python ints.

    Event k puts `vertex[k]` at parameter `t[k]` along `edges[edge[k]]`;
    where an edge meets a vertex more than once, the event with the lowest
    `when` counts. Each edge's chain is its first end, its stops in
    (t, vertex) order and its second end, with the ends sorted in at
    t = -inf and +inf. np.lexsort, whose float pass is a merge sort, takes
    several times as long as ranking t and sorting one integer key, so it
    only runs where an edge holds two stops at equal t.
    """
    first = np.lexsort((when, vertex, edge))
    e, v = edge[first], vertex[first]
    first = first[np.concatenate(([True], (e[1:] != e[:-1]) | (v[1:] != v[:-1])))]
    ids = np.arange(len(edges))
    ends = np.array(edges).reshape(-1, 2)
    inf = np.full(len(edges), np.inf)
    edge = np.concatenate([ids, edge[first], ids])
    t = np.concatenate([-inf, t[first], inf])
    vertex = np.concatenate([ends[:, 0], vertex[first], ends[:, 1]])
    rank = np.empty(len(t), dtype=np.intp)
    rank[np.argsort(t)] = np.arange(len(t))
    chain = np.argsort(edge * len(t) + rank)
    owner, t = edge[chain], t[chain]
    if ((owner[1:] == owner[:-1]) & (t[1:] == t[:-1])).any():
        chain = chain[np.lexsort((vertex[chain], t, owner))]
        owner = edge[chain]
    chain = vertex[chain]
    v0, v1 = chain[:-1], chain[1:]
    keep = (owner[:-1] == owner[1:]) & (v0 != v1)
    owner, lo, hi = owner[:-1][keep], np.minimum(v0, v1)[keep], np.maximum(v0, v1)[keep]
    piece = lo * (hi.max() + 1) + hi
    order = np.argsort(piece)
    if (piece[order][1:] == piece[order][:-1]).any():
        # the first piece in edge order that an earlier piece repeats
        repeat = np.ones(len(piece), dtype=bool)
        repeat[np.unique(piece, return_index=True)[1]] = False
        r = np.flatnonzero(repeat)[0]
        raise CollinearOverlapError(
            f"edge {edges[owner[r]]} overlaps another edge along "
            f"{(int(lo[r]), int(hi[r]))} after splitting")
    return tuple(zip(lo[order].tolist(), hi[order].tolist()))


def _pairs_that_may_meet(pts, edges):
    """The pairs a < b of indices into edges in lexicographic order, less
    pairs that `segment_intersection` certainly calls "none", as arrays
    (a, b, sure, t, u, px, py) over the kept pairs.

    A pair is dropped where the non-parallel branch of `segment_intersection`
    returns "none": the cross product `denom` is clear of the parallel
    tolerance and the crossing parameter t or u lies outside its segment's
    range [-EPS/len, 1 + EPS/len]. denom, t and u are the same float
    operations as there and round alike; only `len` (numpy's hypot against
    math.hypot) may round differently, so the pass asks for twice the
    tolerance and widens each range by 2 * EPS/len + 1e-9.

    `sure` marks a kept pair that is certainly a crossing inside both
    segments; its t, u and (px, py) are then what `segment_intersection`
    returns, and elsewhere they mean nothing. It is certain where, with the
    same margin of two over every test that divides by a length, both
    lengths exceed EPS, denom clears the parallel tolerance and neither
    segment's collinearity test can hold (each endpoint test fails,
    whichever segment is the longer); and then, without a margin because no
    length enters them, where 0 <= t <= 1 and 0 <= u <= 1, so the range
    test passes and the clamps change nothing, and where the point
    ax + t*rx, ay + t*ry lies farther than EPS from all four endpoints by
    `_nearest_endpoint`'s own squared-distance test. The point and those
    distances are the same float operations as there, so
    `segment_intersection` returns ("point", (px, py), t, u) for the pair
    and `_nearest_endpoint` None for both edges. A margin on t would not
    do: the point rounds relative to the coordinates' size, not the
    segment's length.

    With coordinates within MAX_COORD, as a GeometricGraph's are, no
    intermediate overflows. The pairs are tested in blocks of at most
    _PAIR_BLOCK, so the temporaries grow with the kept pairs, not with all
    pairs.
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
    none, empty = np.zeros(0, dtype=np.intp), np.zeros(0)
    blocks = [(none, none, empty, empty, empty)]
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
            if ia.size:  # most blocks of a sparse drawing keep no pair
                blocks.append((ia + a.start, ib + b.start,
                               denom[ia, ib], num_t[ia, ib], num_u[ia, ib]))
        r0 = a.stop
    ka, kb, denom, num_t, num_u = map(np.concatenate, zip(*blocks))
    p, q = ends[ka], ends[kb]
    len_p, len_q = length[ka], length[kb]
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
    return ka, kb, sure, t, u, px, py


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
