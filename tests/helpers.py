"""Independent oracles and generators shared across test modules.

Everything here recomputes expected values from first principles (explicit
loops, exhaustive enumeration, dense sampling) so the tests stay independent
of the library's vectorized implementations.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

import graphmover
from graphmover.dataset import read_graph_file
from graphmover.geometry import EPS, CostParams, GeometricGraph, segment_intersection
from graphmover.ggd import InstanceTooLargeError, enumerate_matchings
from graphmover.ground_cost import ground_cost_matrix
from graphmover.transport import solve_assignment

BRUTEFORCE_MAX_VERTICES = 6


def packaged_graph(name: str) -> GeometricGraph:
    """A graph fixture shipped with the package, e.g. ``figures/shared_vertices_G``."""
    return read_graph_file(Path(graphmover.__file__).parent / "data" / f"{name}.json")


def matching_count(m: int, n: int) -> int:
    """Number of inexact matchings between vertex sets of sizes m and n."""
    return sum(math.comb(m, k) * math.perm(n, k) for k in range(min(m, n) + 1))


def naive_ground_cost(g: GeometricGraph, h: GeometricGraph, params: CostParams) -> np.ndarray:
    """Ground cost matrix computed entry by entry with plain Python loops."""
    m, n = g.n_vertices, h.n_vertices
    p = min(m, n)

    def lengths(graph, i):
        row = [0.0] * graph.n_vertices
        for a, b in graph.edges:
            if a == i:
                row[b] = math.dist(graph.vertices[a], graph.vertices[b])
            elif b == i:
                row[a] = math.dist(graph.vertices[a], graph.vertices[b])
        return row

    out = np.zeros((m + 1, n + 1))
    for i in range(m):
        gi = lengths(g, i)
        out[i, n] = params.edge_cost * sum(gi)
        for j in range(n):
            hj = lengths(h, j)
            pos = math.dist(g.vertices[i], h.vertices[j])
            adj = sum(abs(gi[k] - hj[k]) for k in range(p))
            out[i, j] = params.vertex_cost * pos + params.edge_cost * adj
    for j in range(n):
        out[m, j] = params.edge_cost * sum(lengths(h, j))
    return out


def gmd_bruteforce(g: GeometricGraph, h: GeometricGraph, params: CostParams) -> float:
    """Independent small-instance oracle for the graph mover's distance.

    Integral optimal flows route each real vertex either to one partner or to
    the dummy, so the optimum is the best partial injection between the vertex
    index sets: matched pairs pay their ground cost, unmatched vertices pay
    their deletion column/row entry.
    """
    m, n = g.n_vertices, h.n_vertices
    if m > BRUTEFORCE_MAX_VERTICES or n > BRUTEFORCE_MAX_VERTICES:
        raise InstanceTooLargeError(
            f"brute force is capped at {BRUTEFORCE_MAX_VERTICES} vertices per graph, "
            f"got {m} and {n}")
    costs = ground_cost_matrix(g, h, params).entries
    best = np.inf
    for pi in enumerate_matchings(g, h):
        value = 0.0
        for i, j in pi.matched:
            value += costs[i, j]
        for i, t in enumerate(pi.targets):
            if t is None:
                value += costs[i, n]
        hit = set(pi.targets)
        for j in range(n):
            if j not in hit:
                value += costs[m, j]
        if value < best:
            best = value
    return float(best)


def dense_gmd_value(g: GeometricGraph, h: GeometricGraph, params: CostParams) -> float:
    """The graph mover's distance by the per-pair numpy path that the library
    used before it batched the ranking, kept to pin its arithmetic bit for
    bit: one broadcast ground cost, the reduced costs, `solve_assignment` on
    min(red, 0), and the flow's objective as sum(flow * costs)."""
    m, n = g.n_vertices, h.n_vertices
    p = min(m, n)
    eg, eh = g.adjacency_length_matrix, h.adjacency_length_matrix
    costs = np.zeros((m + 1, n + 1))
    if m and n:
        diff = g.coords[:, None, :] - h.coords[None, :, :]
        pos = params.vertex_cost * np.sqrt((diff * diff).sum(axis=-1))
        adj = np.abs(eg[:, None, :p] - eh[None, :, :p]).sum(axis=-1)
        costs[:m, :n] = pos + params.edge_cost * adj
    costs[m, :n] = params.edge_cost * eh.sum(axis=1)
    costs[:m, n] = params.edge_cost * eg.sum(axis=1)
    red = costs[:m, :n] - costs[:m, n:] - costs[m:, :n]
    if m <= n:
        rows, cols = solve_assignment(np.minimum(red, 0.0))
    else:
        cols, rows = solve_assignment(np.minimum(red.T, 0.0))
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    keep = red[rows, cols] < 0.0
    rows, cols = rows[keep], cols[keep]
    flow = np.zeros((m + 1, n + 1))
    flow[rows, cols] = 1.0
    flow[:m, n] = 1.0
    flow[rows, n] = 0.0
    flow[m, :n] = 1.0
    flow[m, cols] = 0.0
    flow[m, n] = len(rows)
    return float((flow * costs).sum())


def enumerate_integral_flows(supplies, demands):
    """Every non-negative integer matrix with the given row and column sums."""
    supplies = tuple(int(s) for s in supplies)
    demands = tuple(int(d) for d in demands)
    if not supplies:
        if all(d == 0 for d in demands):
            yield ()
        return
    first, rest = supplies[0], supplies[1:]

    def rows(idx, remaining, acc):
        if idx == len(demands) - 1:
            if remaining <= demands[idx]:
                yield acc + (remaining,)
            return
        for take in range(min(remaining, demands[idx]) + 1):
            yield from rows(idx + 1, remaining - take, acc + (take,))

    if not demands:
        if first == 0:
            yield from ((() ,) + tail for tail in enumerate_integral_flows(rest, demands))
        return
    for row in rows(0, first, ()):
        reduced = tuple(d - r for d, r in zip(demands, row))
        for tail in enumerate_integral_flows(rest, reduced):
            yield (row,) + tail


def min_integral_flow_cost(supplies, demands, costs) -> float:
    costs = np.asarray(costs, dtype=float)
    best = math.inf
    for flow in enumerate_integral_flows(supplies, demands):
        value = float((np.asarray(flow, dtype=float) * costs).sum())
        best = min(best, value)
    return best


def validate_graph(g: GeometricGraph) -> list[str]:
    """Report edge pairs of a 2D drawing that meet other than at a shared endpoint.

    An empty list means the drawing is planar within `EPS`; a graph that is not
    2D gives []. This is the test oracle for `dataset.planarize`, so it keeps
    its own endpoint test instead of sharing the planarizer's.
    """
    if g.dim != 2:
        return []
    problems = []
    pts = g.coords
    edges = g.edges
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            e1, e2 = edges[a], edges[b]
            kind, point, _, _ = segment_intersection(
                pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
            if kind == "overlap":
                problems.append(f"edges {e1} and {e2}: collinear overlap")
            elif kind == "point":
                at1 = _endpoint_near(pts, e1, point)
                at2 = _endpoint_near(pts, e2, point)
                x, y = point
                if at1 is None and at2 is None:
                    problems.append(
                        f"edges {e1} and {e2}: interior crossing at ({x:.9g}, {y:.9g})")
                elif at1 is None or at2 is None:
                    problems.append(
                        f"edges {e1} and {e2}: endpoint touches edge interior "
                        f"at ({x:.9g}, {y:.9g})")
    return problems


def _endpoint_near(pts: np.ndarray, edge: tuple[int, int],
                   point: Sequence[float]) -> Optional[int]:
    """Index of the endpoint of `edge` within EPS of `point`, or None."""
    best = None
    best_d = EPS
    for k in edge:
        d = math.hypot(pts[k][0] - point[0], pts[k][1] - point[1])
        if d <= best_d:
            best, best_d = k, d
    return best


def crossing_vertices(g: GeometricGraph) -> list[tuple[float, float]]:
    """The vertices `dataset.planarize` appends to g, found by a linear scan.

    Walks the edge pairs in planarize's order and keeps the crossings with
    no endpoint of either edge within EPS. Each one joins the first earlier
    representative within EPS (the same squared-distance test as planarize)
    or becomes a new representative, so the merge is by representative and
    not transitive. This is the O(crossings^2) scan that planarize's grid
    lookup replaced.
    """
    pts = g.vertices
    edges = g.edges
    clusters: list[tuple[float, float]] = []
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            e1, e2 = edges[a], edges[b]
            kind, point, _, _ = segment_intersection(
                pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
            if kind != "point" or (_endpoint_near(pts, e1, point) is not None
                                   or _endpoint_near(pts, e2, point) is not None):
                continue
            for cx, cy in clusters:
                dx, dy = point[0] - cx, point[1] - cy
                if dx * dx + dy * dy <= EPS * EPS:
                    break
            else:
                clusters.append(point)
    return clusters


def total_length(g: GeometricGraph) -> float:
    """Sum of the Euclidean edge lengths."""
    return sum(math.dist(g.vertices[i], g.vertices[j]) for i, j in g.edges)


def sample_realization(g: GeometricGraph, per_unit: int = 64) -> np.ndarray:
    """Dense point sample of the drawn graph (vertices plus edge interiors)."""
    points = [np.asarray(v, dtype=float) for v in g.vertices]
    for i, j in g.edges:
        a, b = points[i], points[j]
        steps = max(2, int(per_unit * math.dist(g.vertices[i], g.vertices[j])))
        for t in range(1, steps):
            points.append(a + (t / steps) * (b - a))
    return np.vstack(points)


def hausdorff_vertices(a: GeometricGraph, b: GeometricGraph) -> float:
    """Symmetric Hausdorff distance between the two vertex point sets."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.n_vertices == 0 or b.n_vertices == 0:
        raise ValueError("Hausdorff distance needs non-empty vertex sets")
    return hausdorff_point_sets(a.coords, b.coords)


def hausdorff_point_sets(a: np.ndarray, b: np.ndarray) -> float:
    diff = a[:, None, :] - b[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def random_integer_transport(rng, max_side=4, max_weight=3):
    """Random balanced integer instance with small sides and weights."""
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    supplies = rng.integers(0, max_weight + 1, size=m)
    demands = np.zeros(n, dtype=int)
    for _ in range(int(supplies.sum())):
        demands[rng.integers(n)] += 1
    if demands.max(initial=0) > max_weight:
        return random_integer_transport(rng, max_side, max_weight)
    costs = rng.integers(0, 10, size=(m, n)).astype(float)
    return supplies.astype(float), demands.astype(float), costs


def grid_points(rng, n, spread=10.0):
    return rng.uniform(0.0, spread, size=(n, 2))


def random_graph_pair(rng, max_vertices=5):
    from graphmover.experiments import random_graph

    g = random_graph(rng, int(rng.integers(1, max_vertices + 1)))
    h = random_graph(rng, int(rng.integers(1, max_vertices + 1)))
    return g, h
