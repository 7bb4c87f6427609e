"""Geometric graphs: ordered vertex sequences in R^d with straight-line edges.

The vertex order is significant: the graph mover's distance compares vertices
by index, so loaders and transforms must preserve the order in which vertices
were given.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

Point = tuple[float, ...]

# Drawing tolerance: segments, crossings and endpoints closer than this coincide.
EPS = 1e-9

_PLAIN_NUMBERS = frozenset((float, int))  # exact types: a bool still takes the Real test


@dataclass(frozen=True)
class CostParams:
    """Positive coefficients weighting vertex displacement and edge length terms."""

    vertex_cost: float = 4.5
    edge_cost: float = 1.0

    def __post_init__(self):
        for name in ("vertex_cost", "edge_cost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class GeometricGraph:
    """Ordered geometric graph: vertices are points of R^dim, edges index pairs.

    Edges are stored normalized (i < j) and lexicographically sorted. The
    constructor is the one place that decides whether a graph is valid; the
    file readers check only their syntax. A bool or non-positive dim, a
    vertex that is not `dim` real numbers (a bool, str or bytes is not one)
    finite as floats, an edge that is not two integer indices (a bool or a
    float is not one) in range, a self-loop or a duplicate edge raises
    ValueError. Instances are immutable and hashable.
    """

    dim: int
    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.dim) is bool or not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {reprlib.repr(self.dim)}")
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
            if not all(map(math.isfinite, p)):
                raise ValueError(f"vertex {index} has a non-finite coordinate")
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

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def coords(self) -> np.ndarray:
        a = np.asarray(self.vertices, dtype=float).reshape(len(self.vertices), self.dim)
        a.flags.writeable = False
        return a

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency_length_matrix(self) -> np.ndarray:
        """Symmetric matrix whose (i, k) entry is the length of edge (i, k), else 0."""
        n = self.n_vertices
        mat = np.zeros((n, n))
        for i, j in self.edges:
            length = float(np.linalg.norm(self.coords[i] - self.coords[j]))
            mat[i, j] = length
            mat[j, i] = length
        mat.flags.writeable = False
        return mat


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
    moves their crossing by more than EPS.
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
    # an overflow here turns a crossing into "none" or a false overlap
    if not (math.isfinite(denom) and math.isfinite(num_t) and math.isfinite(num_u)
            and math.isfinite(parallel_tol)):
        raise ValueError("segment coordinates are too large to intersect in floating point")
    # the shorter segment lies within EPS of the line through the longer one
    if len_r >= len_s:
        collinear = (abs(num_u) / len_r <= EPS
                     and abs(_checked((dx - ax) * ry - (dy - ay) * rx)) / len_r <= EPS)
    else:
        collinear = (abs(num_t) / len_s <= EPS
                     and abs(_checked((bx - cx) * sy - (by - cy) * sx)) / len_s <= EPS)
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
    len_r2 = _checked(len_r * len_r)
    t_c = _checked(acx * rx + acy * ry) / len_r2
    t_d = _checked((dx - ax) * rx + (dy - ay) * ry) / len_r2
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


def _checked(x: float) -> float:
    """x, or ValueError when an intermediate of segment_intersection overflowed."""
    if not math.isfinite(x):
        raise ValueError("segment coordinates are too large to intersect in floating point")
    return x


def translate(g: GeometricGraph, t: Sequence[float]) -> GeometricGraph:
    """Shift every vertex by t, keeping edges (and hence all edge lengths)."""
    shift = tuple(float(x) for x in t)
    if len(shift) != g.dim:
        raise ValueError(f"dimension mismatch: translation has {len(shift)} "
                         f"coordinates, graph has dim {g.dim}")
    if not all(math.isfinite(x) for x in shift):
        raise ValueError("translation has a non-finite coordinate")
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
