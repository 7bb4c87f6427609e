"""Geometric graphs, where drawn segments meet, and planarization.

Vertex order is significant: the graph mover's distance compares vertices by
index, so loaders and transforms must keep the order in which they were given.
`planarize`'s numpy pass must reproduce the floats of `segment_intersection`.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import reprlib
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

Point = tuple[float, ...]

# Drawing tolerance: segments, crossings and endpoints closer than this coincide.
EPS = 1e-9
# Largest coordinate magnitude of a graph. Differences of two coordinates stay
# within 2**511 and sums of two of their products within 2**1023, so no
# intermediate of segment_intersection or of planarize's numpy pass overflows;
# the crossing diagonals of the box at 1e154 already do.
MAX_COORD = 2.0 ** 510

# planarize culls edge pairs with the numpy pass of _pairs_that_may_meet from
# this many pairs on, and tests every pair below. Measured on random drawings
# of equal-length segments in a 10 x 10 box (2-core x86_64, numpy 2.4.6), the
# pass took 1.5-3.4x the loop's time at 10 pairs (5 edges, the size of a
# letter drawing), 1.15-1.3x at 45, 0.9-1.3x at 66 and 78, and 0.84-1.07x at
# 91 (14 edges), where it wins on sparse drawings and ties on dense ones.
_PASS_MIN_PAIRS = 80
# pairs per block of that pass: bounds its temporaries to a few dozen KB
_PAIR_BLOCK = 2 ** 12

_PLAIN_NUMBERS = frozenset((float, int))  # exact types: a bool still takes the Real test
_SEQUENCES = frozenset((list, tuple))
_FLOAT = frozenset((float,))


class CollinearOverlapError(ValueError):
    """Two edges share a collinear stretch; the split is ambiguous."""


@dataclass(frozen=True)
class CostParams:
    """Positive coefficients weighting vertex displacement and edge length
    terms: finite real numbers, not bools, else ValueError."""

    vertex_cost: float = 4.5
    edge_cost: float = 1.0

    def __post_init__(self):
        for name in ("vertex_cost", "edge_cost"):
            value = getattr(self, name)
            # compared, not converted: an int too large for a float is refused too
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value <= sys.float_info.max):
                raise ValueError(
                    f"{name} must be a positive finite number, got {reprlib.repr(value)}")


@dataclass(frozen=True)
class GeometricGraph:
    """Ordered geometric graph: vertices are points of R^dim, edges index pairs.

    Edges are stored normalized (i < j) and lexicographically sorted. The
    constructor is the one place that decides whether a graph is valid; the
    file readers check only their syntax. A bool or non-positive dim, a
    vertex that is not `dim` real numbers (a bool, str or bytes is not one)
    finite as floats and within MAX_COORD in magnitude, an edge that is not
    two integer indices (a bool or a float is not one) in range, a self-loop
    or a duplicate edge raises ValueError. Instances are immutable and
    hashable. Vertices given as a list or tuple of lists or tuples of
    Python floats, as the JSON reader makes them, are checked in bulk
    (`_plain_vertices`); every other form, and any fault, goes through the
    per-vertex checks, which name the first faulty vertex.
    """

    dim: int
    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.dim) is bool or not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {reprlib.repr(self.dim)}")
        if _plain_vertices(self.vertices, self.dim):
            # through a list: tuple() over a map grows its result from a guessed
            # size, and kept 0.7 MB more resident after 20,000 letter queries
            verts = tuple([tuple(v) for v in self.vertices])
        else:
            verts = []
            for index, v in enumerate(self.vertices):
                try:
                    p = tuple(v)
                except TypeError:
                    raise ValueError(f"vertex {index} is not a sequence of coordinates") from None
                if len(p) != self.dim:
                    raise ValueError(f"vertex {index} does not have dimension {self.dim}")
                if not _PLAIN_NUMBERS.issuperset(map(type, p)):
                    for x in p:
                        if isinstance(x, bool) or not isinstance(x, numbers.Real):
                            raise ValueError(
                                f"vertex {index}: coordinate {reprlib.repr(x)} is not a number")
                try:
                    p = tuple(map(float, p))
                except OverflowError:
                    raise ValueError(
                        f"vertex {index} has a coordinate too large for a float") from None
                # abs(nan) fails the test too
                if not all(map(MAX_COORD.__ge__, map(abs, p))):
                    raise ValueError(f"vertex {index} has a coordinate that is not finite or "
                                     f"exceeds 2**{math.log2(MAX_COORD):g} in magnitude")
                verts.append(p)
        pairs = []
        for index, e in enumerate(self.edges):
            try:
                i, j = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {index} is not a pair of vertex indices") from None
            if type(i) is not int or type(j) is not int:
                i, j = _edge_index(i, index), _edge_index(j, index)
            pairs.append((i, j) if i <= j else (j, i))
        pairs.sort()
        n = len(verts)
        # sorted, so duplicates are adjacent and e[0] <= e[1]
        for previous, e in zip([None] + pairs, pairs):
            if e[0] < 0 or e[1] >= n:
                raise ValueError(f"edge {reprlib.repr(e)}: index out of range for {n} vertices")
            if e[0] == e[1]:
                raise ValueError(f"edge {e}: self-loop")
            if e == previous:
                raise ValueError(f"edge {e}: duplicate edge")
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "edges", tuple(pairs))

    @classmethod
    def build(cls, points: Iterable[Sequence[float]], edges: Iterable[Sequence[int]],
              dim: Optional[int] = None) -> "GeometricGraph":
        if dim is None:
            points = tuple(points)
            if not points:
                raise ValueError("dim is required for a graph with no vertices")
            dim = len(points[0])
        return cls(dim, points, edges)

    @classmethod
    def _from_valid(cls, dim: int, vertices: tuple[Point, ...],
                    edges: tuple[tuple[int, int], ...]) -> "GeometricGraph":
        """The graph with exactly these fields, skipping the constructor's checks.

        Only for a graph that is valid by construction, as `planarize`
        builds its output. The caller guarantees what the checks would
        establish, else equality and hashing with checked graphs break:
        `dim` is a positive int; `vertices` is a tuple of `dim`-tuples of
        Python floats, each within MAX_COORD in magnitude; `edges` is a
        sorted tuple of (int, int) pairs i < j indexing `vertices`, with no
        duplicate (a self-loop is ruled out by i < j). Input from outside
        the program always goes through the constructor.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "dim", dim)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def adjacency_lengths(coords: np.ndarray, edges: Sequence) -> np.ndarray:
    """The adjacency length matrices (k, n, n) of k graphs of n vertices each,
    from their coordinates (k, n, d) and their k edge lists of index pairs
    (i, j): entry (t, i, j) and (t, j, i) is the length of edge (i, j) of
    graph t, every other entry 0. A length that overflows is inf, with
    numpy's overflow warning unless the caller silences it."""
    k, n = coords.shape[:2]
    graph = np.repeat(np.arange(k), [len(pairs) for pairs in edges])
    i, j = np.array(list(itertools.chain.from_iterable(edges)), dtype=np.intp).reshape(-1, 2).T
    d = coords[graph, i] - coords[graph, j]
    # each edge's own dot product, which rounds as np.linalg.norm's does;
    # (d * d).sum(axis=1) and norm(d, axis=1) can differ in the last bit
    length = np.sqrt(d[:, None, :] @ d[:, :, None]).reshape(-1)
    mat = np.zeros((k, n, n))
    mat[graph, i, j] = length
    mat[graph, j, i] = length
    return mat


def _plain_vertices(vertices, dim: int) -> bool:
    """Whether `vertices` is a list or tuple of lists or tuples of `dim`
    Python floats (exact types), each within MAX_COORD in magnitude, so that
    the constructor's per-vertex checks would pass and change no value.

    The test builds one flat list of the coordinates; anything else, ints
    and numpy scalars included, and every fault, is left to the per-vertex
    checks, which name the first faulty vertex. An inf or a nan makes the
    sum non-finite, and with every |x| <= 2**510 a sum of fewer than 2**513
    terms cannot overflow; so a finite sum means finite coordinates, and
    max and min then bound them (with a nan among them, max and min could
    skip it). A coordinate past MAX_COORD fails max or min, or overflows
    the sum. From Python 3.12 sum() of floats adds a compensation term,
    but only where that term is finite, so the sum is finite just as
    before. The sum is only tested, never used.
    """
    if type(vertices) not in _SEQUENCES or not _SEQUENCES.issuperset(map(type, vertices)):
        return False
    flat = list(itertools.chain.from_iterable(vertices))
    return (_FLOAT.issuperset(map(type, flat))
            and all(map(dim.__eq__, map(len, vertices)))
            and math.isfinite(sum(flat))
            and max(flat, default=0.0) <= MAX_COORD and min(flat, default=0.0) >= -MAX_COORD)


def _edge_index(x, index: int) -> int:
    """x as a Python int: an int or numpy integer, never a bool or a float."""
    if not isinstance(x, (bool, np.bool_)):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"edge {index}: index {reprlib.repr(x)} is not an integer")


def segment_intersection(a, b, c, d):
    """Intersection of the closed 2D segments ab and cd.

    Returns (kind, point, t, u) where kind is "none", "point" or "overlap".
    For "point", `point` is the location and t, u are the parameters along ab
    and cd in [0, 1]. "overlap" means the segments are collinear and share a
    stretch longer than EPS. Segments that are collinear within EPS but not
    parallel enough for the 1e-12 test are handled as collinear when rounding
    moves their crossing by more than EPS. The coordinates must lie within
    MAX_COORD in magnitude, as a GeometricGraph's do; then no intermediate
    overflows.
    """
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])
    dx, dy = float(d[0]), float(d[1])
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    len_r = math.hypot(rx, ry)
    len_s = math.hypot(sx, sy)
    if len_r <= EPS or len_s <= EPS:
        return "none", None, None, None
    denom = rx * sy - ry * sx
    acx, acy = cx - ax, cy - ay
    num_t = acx * sy - acy * sx
    num_u = acx * ry - acy * rx
    parallel_tol = 1e-12 * len_r * len_s
    # the shorter segment lies within EPS of the line through the longer one
    if len_r >= len_s:
        collinear = (abs(num_u) / len_r <= EPS
                     and abs((dx - ax) * ry - (dy - ay) * rx) / len_r <= EPS)
    else:
        collinear = (abs(num_t) / len_s <= EPS
                     and abs((bx - cx) * sy - (by - cy) * sx) / len_s <= EPS)
    if abs(denom) > parallel_tol:
        t = num_t / denom
        u = num_u / denom
        if not (-EPS / len_r <= t <= 1 + EPS / len_r and -EPS / len_s <= u <= 1 + EPS / len_s):
            return "none", None, None, None
        # the crossing as found along each segment; rounding parts the two only
        # when the segments are nearly parallel
        if not collinear or math.hypot(acx + u * sx - t * rx, acy + u * sy - t * ry) <= EPS:
            t = min(1.0, max(0.0, t))
            u = min(1.0, max(0.0, u))
            return "point", (ax + t * rx, ay + t * ry), t, u
    elif not collinear:
        return "none", None, None, None
    len_r2 = len_r * len_r
    t_c = (acx * rx + acy * ry) / len_r2
    t_d = ((dx - ax) * rx + (dy - ay) * ry) / len_r2
    lo = max(0.0, min(t_c, t_d))
    hi = min(1.0, max(t_c, t_d))
    if (hi - lo) * len_r > EPS:
        return "overlap", None, None, None
    if hi < lo - EPS / len_r:
        return "none", None, None, None
    t = 0.5 * (lo + hi)
    px, py = ax + t * rx, ay + t * ry
    u = ((px - cx) * sx + (py - cy) * sy) / (len_s * len_s)
    return "point", (px, py), t, min(1.0, max(0.0, u))


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
    EPS * EPS. It is its own representative. The sort need not be stable:
    crossings of equal x lie 0 apart, so all of them are crowded in any
    order, and a crossing next to them sees the same x on that side. Only
    the crowded rest take the lowest-id rule in Python, back in pair order:
    each looks for the earlier representatives in the 3x3 block of grid
    cells of side 2 * EPS around it, where one within EPS lies even after
    rounding in the cell index, and joins the lowest-numbered within EPS,
    which is what a scan of all representatives in creation order would
    return. A grid and not a scan keeps this linear where many crossings
    share one x, as on a line crossed by many others. A new vertex's id
    counts the representatives before it in pair order.

    A crossing splits both its edges there, and an endpoint inside an edge
    splits that edge. Where one edge meets one vertex more than once, the
    first event in pair order (edge a's before edge b's) gives the
    parameter; only a touch or a crossing merged into another's vertex
    can make that happen, so without either no event needs dropping. An
    edge's stops run in (t, vertex id) order between its
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
        ids = _edge_ids(edges)
        kept = _pairs_that_may_meet(pts, ids)
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
        ids = _edge_ids(edges)
        a, b = np.array(list(itertools.combinations(range(m), 2))).T
        kept = (a, b, np.zeros(len(a), dtype=bool), *np.zeros((4, len(a))))
    a, b, crossing, t, u, px, py = kept
    if found:
        found = np.array(found, dtype=float).T
        k = found[0].astype(np.intp)
        crossing[k] = True
        t[k], u[k], px[k], py[k] = found[1:]
    at = np.flatnonzero(crossing)
    a, b, t, u, px, py = a[at], b[at], t[at], u[at], px[at], py[at]
    rep = _representatives(px, py)
    new = rep == np.arange(len(rep))
    vid = g.n_vertices - 1 + np.cumsum(new)[rep]

    touch_at, touch_edge, touch_t, touch_vid = (
        np.array(touches, dtype=float).T if touches else np.zeros((4, 0)))
    # only a touch or a merged crossing can meet an edge at a vertex it already meets
    when = None
    if touches or not new.all():
        when = np.concatenate([2 * at, 2 * at + 1, 2 * touch_at.astype(np.intp)])
    pieces = _split(ids,
                    np.concatenate([a, b, touch_edge.astype(np.intp)]),
                    np.concatenate([t, u, touch_t]),
                    np.concatenate([vid, vid, touch_vid.astype(np.intp)]),
                    when)
    return GeometricGraph._from_valid(
        2, g.vertices + tuple(zip(px[new].tolist(), py[new].tolist())), pieces)


def _representatives(px, py):
    """For each crossing (px, py), in pair order, the index of the crossing
    whose vertex it joins: the lowest-indexed earlier representative within
    EPS, else itself. `planarize` describes the screen and the grid.

    How the sort by x orders crossings of equal x changes nothing: a run
    of equal x is crowded whatever its order, the gap from its end to the
    next x is the same whichever crossing ends it, and the crowded ones
    are sorted back into pair order before the grid sees them.
    """
    rep = np.arange(len(px))
    order = np.argsort(px)
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


def _split(ids, edge, t, vertex, when):
    """The pieces of the edges whose vertex ids are the rows of `ids`
    (m, 2), split at their events, sorted, as (low, high) pairs of Python
    ints.

    Event k puts `vertex[k]` at parameter `t[k]` along edge `edge[k]`;
    where an edge meets a vertex more than once, the event with the lowest
    `when` counts. `when` None says that no edge meets a vertex twice, and
    then no event is dropped. Each edge's chain is its first end, its stops
    in (t, vertex) order and its second end, with the ends sorted in at
    t = -inf and +inf: one argsort of t, then a stable argsort of the edge
    ids in the smallest integer type that holds them, which numpy runs as
    a radix sort and which keeps t's order within each edge. np.lexsort,
    whose float pass is a merge sort, takes several times as long, so it
    only runs where an edge holds two stops at equal t. The pieces are then
    sorted by value as keys low * (h + 1) + high, h the largest high, which
    order as the (low, high) pairs do, and decoded with divmod: 46 us at
    4,500 pieces, where an argsort and two gathers took 75 (2-core x86_64,
    numpy 2.4.6). A key that repeats raises, naming
    the first piece in edge order that repeats an earlier one.
    """
    if when is not None:
        first = np.lexsort((when, vertex, edge))
        e, v = edge[first], vertex[first]
        first = first[np.concatenate(([True], (e[1:] != e[:-1]) | (v[1:] != v[:-1])))]
        edge, t, vertex = edge[first], t[first], vertex[first]
    m = len(ids)
    own = np.arange(m)
    inf = np.full(m, np.inf)
    edge = np.concatenate([own, edge, own])
    t = np.concatenate([-inf, t, inf])
    vertex = np.concatenate([ids[:, 0], vertex, ids[:, 1]])
    chain = np.argsort(t)
    chain = chain[np.argsort(edge[chain].astype(np.min_scalar_type(m)), kind="stable")]
    owner, t = edge[chain], t[chain]
    if ((owner[1:] == owner[:-1]) & (t[1:] == t[:-1])).any():
        chain = chain[np.lexsort((vertex[chain], t, owner))]
        owner = edge[chain]
    chain = vertex[chain]
    v0, v1 = chain[:-1], chain[1:]
    keep = (owner[:-1] == owner[1:]) & (v0 != v1)
    owner, lo, hi = owner[:-1][keep], np.minimum(v0, v1)[keep], np.maximum(v0, v1)[keep]
    base = hi.max() + 1
    piece = lo * base + hi
    key = np.sort(piece)
    if (key[1:] == key[:-1]).any():
        # the first piece in edge order that an earlier piece repeats
        repeat = np.ones(len(piece), dtype=bool)
        repeat[np.unique(piece, return_index=True)[1]] = False
        r = np.flatnonzero(repeat)[0]
        raise CollinearOverlapError(
            f"edge {tuple(ids[owner[r]].tolist())} overlaps another edge along "
            f"{(int(lo[r]), int(hi[r]))} after splitting")
    lo, hi = np.divmod(key, base)
    return tuple(zip(lo.tolist(), hi.tolist()))


def _edge_ids(edges):
    """The (m, 2) array of the vertex ids of m edges."""
    ids = np.fromiter(itertools.chain.from_iterable(edges), np.intp, 2 * len(edges))
    return ids.reshape(-1, 2)


def _pairs_that_may_meet(pts, ids):
    """The pairs a < b of edges in lexicographic order, less pairs that
    `segment_intersection` certainly calls "none", as arrays
    (a, b, sure, t, u, px, py) over the kept pairs. `ids` holds the
    vertex ids of edge k in row k, and `pts` the vertices.

    A pair is dropped where the non-parallel branch of `segment_intersection`
    returns "none": the cross product `denom` is clear of the parallel
    tolerance and the crossing parameter t or u lies outside its segment's
    range [-EPS/len, 1 + EPS/len]. denom, t and u are the same float
    operations as there and round alike; only `len` (numpy's hypot against
    math.hypot) may round differently, so the pass asks for twice the
    tolerance and widens each range by 2 * EPS/len + 1e-9. A kept pair is
    dropped too where |denom| is within half the parallel tolerance and
    |num_u| > 2 * EPS * len_a and |num_t| > 2 * EPS * len_b: parallel, and no
    collinearity test holds, so "none". It is dropped, too, where |denom| is
    within half the tolerance and both ends of b project beyond the same
    end of a: the collinear branch's t_c and t_d, the same float operations
    as there but for len_a, lie outside a's range widened as above, so that
    branch finds neither an overlap nor a point. So no two dashes of a
    dashed line go to the Python loop.

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
    pairs; a block's kept pairs are gathered by their flat positions, in
    the same row-major (a, b) order.
    """
    xy = np.fromiter(itertools.chain.from_iterable(pts), float, 2 * len(pts)).reshape(-1, 2)
    x0, y0, x1, y1 = np.ascontiguousarray(xy[ids].reshape(-1, 4).T)
    rx, ry = x1 - x0, y1 - y0
    length = np.hypot(rx, ry)
    with np.errstate(divide="ignore", over="ignore"):  # inf for a (near) zero length
        # |t - 0.5| > half is t outside [-reach, 1 + reach]
        half = 0.5 + (2 * EPS / length + 1e-9)
    tol = 2e-12 * length
    m = len(ids)
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
                apart = np.abs(denom) > tol[a, None] * length[b]
                drop = apart & ((np.abs(t - 0.5) > half[a, None]) | (np.abs(u - 0.5) > half[b]))
            if b.start < a.stop:  # the block reaches the diagonal: drop (a, b) with b <= a
                drop |= np.arange(b.start, b.stop) <= np.arange(a.start, a.stop)[:, None]
            flat = np.flatnonzero(~drop)
            if flat.size:  # most blocks of a sparse drawing keep no pair
                ka, kb = np.divmod(flat, drop.shape[1])
                ka += a.start
                kb += b.start
                denom, num_t, num_u = denom.ravel(), num_t.ravel(), num_u.ravel()
                if not (apart | drop).all():  # a kept pair is within twice the tolerance
                    la, lb = length[ka], length[kb]
                    # segment_intersection's collinear branch projects c and d
                    # onto a: a pair beside each other on one line has both
                    # beyond the same end of a's range
                    with np.errstate(all="ignore"):
                        la2, ra, sa = la * la, rx[ka], ry[ka]
                        tc = (acx.ravel()[flat] * ra + acy.ravel()[flat] * sa) / la2
                        td = ((x1[kb] - x0[ka]) * ra + (y1[kb] - y0[ka]) * sa) / la2
                    beside = ((np.abs(tc - 0.5) > half[ka]) & (np.abs(td - 0.5) > half[ka])
                              & ((tc > 0.5) == (td > 0.5)))
                    meet = ((np.abs(denom[flat]) > 0.5e-12 * la * lb)
                            | ((np.abs(num_u[flat]) <= 2 * EPS * la)
                               | (np.abs(num_t[flat]) <= 2 * EPS * lb)) & ~beside)
                    flat, ka, kb = flat[meet], ka[meet], kb[meet]
                blocks.append((ka, kb, denom[flat], num_t[flat], num_u[flat]))
        r0 = a.stop
    ka, kb, denom, num_t, num_u = map(np.concatenate, zip(*blocks))
    len_p, len_q = length[ka], length[kb]
    with np.errstate(all="ignore"):
        t = num_t / denom
        u = num_u / denom
        px = x0[ka] + t * rx[ka]
        py = y0[ka] + t * ry[ka]
        sure = (len_p > 2 * EPS) & (len_q > 2 * EPS)
        sure &= np.abs(denom) > 2e-12 * len_p * len_q
        sure &= (np.abs(num_u) / len_p > 2 * EPS) & (np.abs(num_t) / len_q > 2 * EPS)
        sure &= (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
        for x, y in ((x0[ka], y0[ka]), (x1[ka], y1[ka]), (x0[kb], y0[kb]), (x1[kb], y1[kb])):
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


def translate(g: GeometricGraph, t: Sequence[float]) -> GeometricGraph:
    """Shift every vertex by t, keeping edges (and hence all edge lengths)."""
    shift = tuple(float(x) for x in t)
    if len(shift) != g.dim:
        raise ValueError(f"dimension mismatch: translation has {len(shift)} "
                         f"coordinates, graph has dim {g.dim}")
    moved = tuple(tuple(x + s for x, s in zip(v, shift)) for v in g.vertices)
    return GeometricGraph(g.dim, moved, g.edges)


def perturb(g: GeometricGraph, delta: float, seed: int) -> GeometricGraph:
    """Displace each vertex independently by a uniform random vector of norm <= delta.

    The combinatorial structure is unchanged and the output is deterministic
    for a fixed seed.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    rng = np.random.default_rng(seed)
    moved = []
    for v in g.vertices:
        direction = rng.standard_normal(g.dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.zeros(g.dim)
            direction[0] = 1.0
            norm = 1.0
        radius = delta * rng.uniform() ** (1.0 / g.dim)
        step = direction * (radius / norm)
        moved.append(tuple(x + float(s) for x, s in zip(v, step)))
    return GeometricGraph(g.dim, moved, g.edges)
