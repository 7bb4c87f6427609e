"""Independent oracles and generators shared across test modules.

Everything here recomputes expected values from first principles (explicit
loops, exhaustive enumeration, dense sampling) so the tests stay independent
of the library's vectorized implementations.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

import graphmover
from graphmover.dataset import DISTORTION_LEVELS, LetterRecord, read_graph_file
from graphmover.geometry import (EPS, CollinearOverlapError, CostParams, GeometricGraph,
                                 _nearest_endpoint, adjacency_lengths, segment_intersection)
from graphmover.ggd import MAX_EXACT_VERTICES, InexactMatching, InstanceTooLargeError
from graphmover.gmd import _OVERFLOW, _assign_rows, _fuse, _stack, ground_cost_matrix
from graphmover.letters import _letter_records

BRUTEFORCE_MAX_VERTICES = 6


def packaged_graph(name: str) -> GeometricGraph:
    """A graph fixture shipped with the package, e.g. ``figures/shared_vertices_G``."""
    return read_graph_file(Path(graphmover.__file__).parent / "data" / f"{name}.json")


def matching_count(m: int, n: int) -> int:
    """Number of inexact matchings between vertex sets of sizes m and n."""
    return sum(math.comb(m, k) * math.perm(n, k) for k in range(min(m, n) + 1))


def coordinates(g: GeometricGraph) -> np.ndarray:
    """The vertices of g as an (n, dim) float array, also when n is 0."""
    return np.asarray(g.vertices, dtype=float).reshape(g.n_vertices, g.dim)


def adjacency_matrix(g: GeometricGraph) -> np.ndarray:
    """The adjacency length matrix of g alone, by `adjacency_lengths`."""
    return adjacency_lengths(coordinates(g)[None], [g.edges])[0]


def adjacency_norm_loop(g: GeometricGraph) -> np.ndarray:
    """The adjacency length matrix of g, one `np.linalg.norm` per edge."""
    pts = coordinates(g)
    mat = np.zeros((g.n_vertices, g.n_vertices))
    for i, j in g.edges:
        mat[i, j] = mat[j, i] = float(np.linalg.norm(pts[i] - pts[j]))
    return mat


def enumerate_matchings(g: GeometricGraph, h: GeometricGraph) -> list[InexactMatching]:
    """Every inexact matching of the pair exactly once, in the order whose
    first least-cost matching `ggd.ggd_exact` returns: by number of matched
    pairs, then lexicographically by the matched left set, the matched
    right set (sorted) and the image (the targets in left order). Built by
    sending each left vertex to deletion or to a free right vertex, then
    sorting. InstanceTooLargeError when either graph has more than
    MAX_EXACT_VERTICES vertices."""
    m, n = g.n_vertices, h.n_vertices
    if m > MAX_EXACT_VERTICES or n > MAX_EXACT_VERTICES:
        raise InstanceTooLargeError(f"exhaustive matching enumeration is capped at "
                                    f"{MAX_EXACT_VERTICES} vertices per graph, got {m} and {n}")
    found = []

    def extend(targets: tuple) -> None:
        if len(targets) == m:
            found.append(targets)
            return
        extend(targets + (None,))
        for j in range(n):
            if j not in targets:
                extend(targets + (j,))

    extend(())

    def order(targets: tuple) -> tuple:
        left = tuple(i for i, t in enumerate(targets) if t is not None)
        image = tuple(targets[i] for i in left)
        return len(left), left, tuple(sorted(image)), image

    return [InexactMatching(targets, n) for targets in sorted(found, key=order)]


def matching_cost(g: GeometricGraph, h: GeometricGraph, pi: InexactMatching,
                  params: CostParams) -> float:
    """Cost of one inexact matching, by `matching_cost_oracle` on the pair's
    arrays: vertex displacement for matched vertices, absolute length
    difference for edges mapped onto edges, and full length for every
    deleted edge on either side. ValueError when the dimensions differ or
    the matching does not fit the pair."""
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    return matching_cost_oracle(g, h, pi, params, (coordinates(g), adjacency_matrix(g)),
                                (coordinates(h), adjacency_matrix(h)))


def matching_cost_oracle(g: GeometricGraph, h: GeometricGraph, pi: InexactMatching,
                         params: CostParams, g_arrays: tuple, h_arrays: tuple) -> float:
    """The cost of one matching as the library computed it before it priced
    matchings from a per-pair table: each term read from each graph's
    arrays (`coordinates`, `adjacency_matrix`) in numpy floats, and added in
    order."""
    if len(pi.targets) != g.n_vertices or pi.n_right != h.n_vertices:
        raise ValueError("matching does not fit this graph pair")
    (g_coords, g_lengths), (h_coords, h_lengths) = g_arrays, h_arrays
    cv, ce = params.vertex_cost, params.edge_cost
    targets = pi.targets
    total = 0.0
    for i, j in pi.matched:
        total += cv * float(np.linalg.norm(g_coords[i] - h_coords[j]))
    h_edges = frozenset(h.edges)
    kept = set()  # edges of h that are the image of an edge of g
    for a, b in g.edges:
        ta, tb = targets[a], targets[b]
        length = g_lengths[a, b]
        if ta is not None and tb is not None:
            image = (ta, tb) if ta < tb else (tb, ta)
            if image in h_edges:
                kept.add(image)
                total += ce * abs(length - h_lengths[image[0], image[1]])
                continue
        total += ce * length
    for c, d in h.edges:
        if (c, d) not in kept:
            total += ce * h_lengths[c, d]
    return total


def ggd_loop(g: GeometricGraph, h: GeometricGraph,
             params: CostParams) -> tuple[float, InexactMatching]:
    """`ggd.ggd_exact` as a loop over `enumerate_matchings` that prices each
    matching with `matching_cost_oracle`: the least value, the first matching
    that attains it, and the same ValueError when every cost overflows."""
    best_value = np.inf
    best_matching = None
    with np.errstate(over="ignore", invalid="ignore"):
        g_arrays = coordinates(g), adjacency_matrix(g)
        h_arrays = coordinates(h), adjacency_matrix(h)
        for pi in enumerate_matchings(g, h):
            value = matching_cost_oracle(g, h, pi, params, g_arrays, h_arrays)
            if value < best_value:
                best_value = value
                best_matching = pi
    if best_matching is None:
        raise ValueError("no inexact matching has a finite cost: the costs overflow a float")
    return float(best_value), best_matching


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
    bit: one broadcast ground cost, `assigned_flow` on it, and the flow's
    objective as sum(flow * costs)."""
    costs = dense_ground_cost(g, h, params)
    return float((assigned_flow(costs) * costs).sum())


def dense_ground_cost(g: GeometricGraph, h: GeometricGraph, params: CostParams) -> np.ndarray:
    """The pair's ground cost matrix as one broadcast, each L1 term numpy's
    sum of its row of p = min(m, n) terms."""
    m, n = g.n_vertices, h.n_vertices
    p = min(m, n)
    eg, eh = adjacency_matrix(g), adjacency_matrix(h)
    costs = np.zeros((m + 1, n + 1))
    if m and n:
        diff = coordinates(g)[:, None, :] - coordinates(h)[None, :, :]
        pos = params.vertex_cost * np.sqrt((diff * diff).sum(axis=-1))
        adj = np.abs(eg[:, None, :p] - eh[None, :, :p]).sum(axis=-1)
        costs[:m, :n] = pos + params.edge_cost * adj
    costs[m, :n] = params.edge_cost * eh.sum(axis=1)
    costs[:m, n] = params.edge_cost * eg.sum(axis=1)
    return costs


def assigned_flow(costs: np.ndarray) -> np.ndarray:
    """The 0/1 flow of an (m+1) x (n+1) ground cost matrix as the library built
    it before it wrote some flows directly: `_assign_rows` on min(red, 0) (on
    its transpose when m > n), the assigned pairs with red < 0 matched, and
    every other vertex on its dummy."""
    m, n = costs.shape[0] - 1, costs.shape[1] - 1
    red = costs[:m, :n] - costs[:m, n:] - costs[m:, :n]
    if m <= n:
        rows = np.arange(m)
        cols = np.array(_assign_rows(np.minimum(red, 0.0).tolist(), n), dtype=int)
    else:
        cols = np.arange(n)
        rows = np.array(_assign_rows(np.minimum(red.T, 0.0).tolist(), m), dtype=int)
    keep = red[rows, cols] < 0.0
    return matched_flow(m, n, rows[keep], cols[keep])


def matched_flow(m: int, n: int, rows, cols) -> np.ndarray:
    """The 0/1 flow (m+1) x (n+1) that matches each row rows[k] to the
    column cols[k] and sends every other vertex to its dummy."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    flow = np.zeros((m + 1, n + 1))
    flow[rows, cols] = 1.0
    flow[:m, n] = 1.0
    flow[rows, n] = 0.0
    flow[m, :n] = 1.0
    flow[m, cols] = 0.0
    flow[m, n] = len(rows)
    return flow


def certify_flow(costs: np.ndarray, flow: np.ndarray, value: float) -> list[str]:
    """Every reason why `flow` is not an optimal flow of the graph mover's
    transport problem on the (m+1) x (n+1) ground cost matrix `costs`, or
    why `value` is not its objective; [] proves it optimal by LP duality.

    The supplies are 1 per real row and n for the dummy row, the demands 1
    per real column and m for the dummy column. The flow must be integral,
    non-negative and meet them exactly, and `value` must be the bits of
    sum(flow * costs) in C order. Potentials come from Bellman-Ford on the
    flow's residual network (an arc row -> column of cost c[i, j] for every
    cell, and one back of cost -c[i, j] where the flow is positive), from a
    source joined to every vertex at cost 0: alpha = -distance of a row and
    beta = distance of a column. They must satisfy alpha[i] + beta[j] <=
    c[i, j] + tol on every cell and hold with equality within tol on the
    flow's support. A flow that is not optimal lies on a residual cycle of
    negative cost, and any potentials break some arc of it by at least that
    cost over the cycle's length, so no potentials pass. Uses neither
    `_assign_rows` nor `_solve_stack`.

    tol is 8 (m + n + 2)^2 float64 epsilons of the largest |entry|: the
    m + n + 2 vertices bound the arcs of a shortest path, so a potential
    sums at most that many entries, each partial sum at most that many
    times the largest; and the reduced costs that the library compares
    round each entry with two deletion prices."""
    costs, flow = np.asarray(costs, dtype=float), np.asarray(flow, dtype=float)
    if flow.shape != costs.shape:
        return [f"flow shape {flow.shape} differs from cost shape {costs.shape}"]
    m, n = costs.shape[0] - 1, costs.shape[1] - 1
    supplies = np.append(np.ones(m), n)
    demands = np.append(np.ones(n), m)
    problems = []
    if not np.array_equal(flow, np.round(flow)):
        problems.append("the flow is not integral")
    if (flow < 0.0).any():
        problems.append("the flow has a negative entry")
    for i in np.flatnonzero(flow.sum(axis=1) != supplies):
        problems.append(f"row {i} ships {float(flow[i].sum())!r} instead of {float(supplies[i])!r}")
    for j in np.flatnonzero(flow.sum(axis=0) != demands):
        problems.append(f"column {j} receives {float(flow[:, j].sum())!r} "
                        f"instead of {float(demands[j])!r}")
    objective = (flow * costs).reshape(-1).sum()
    if np.float64(value).tobytes() != objective.tobytes():
        problems.append(f"value {float(value)!r} is not the flow's objective "
                        f"{float(objective)!r}")
    if problems:
        return problems
    support = flow > 0.0
    to_row, to_col = np.zeros(m + 1), np.zeros(n + 1)
    for _ in range(m + n + 2):
        cols = np.minimum(to_col, (to_row[:, None] + costs).min(axis=0))
        rows = np.minimum(to_row, np.where(support, cols - costs, np.inf).min(axis=1))
        if np.array_equal(rows, to_row) and np.array_equal(cols, to_col):
            break
        to_row, to_col = rows, cols
    slack = costs + to_row[:, None] - to_col  # c[i, j] - alpha[i] - beta[j]
    tol = 8.0 * (m + n + 2) ** 2 * np.finfo(float).eps * float(np.abs(costs).max())
    for i, j in zip(*np.nonzero(slack < -tol)):
        problems.append(f"the dual constraint of cell ({i}, {j}) fails by {float(-slack[i, j])!r}")
    for i, j in zip(*np.nonzero(support & (np.abs(slack) > tol))):
        problems.append(f"cell ({i}, {j}) carries flow at reduced cost {float(slack[i, j])!r}")
    return problems


def solve_stack(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances of a stack (k, m+1, n+1) of ground cost matrices, and the
    stack (k, m+1, n+1) of their optimal 0/1 flows (the corner counts the
    matched pairs): the library's solve of one stack of one size before it
    solved a whole fused set at once, kept as that solve's oracle. It
    C-orders the stack first, as the value sums follow the memory order.

    ValueError(_OVERFLOW) when a reduced cost or a distance is not finite.
    """
    entries = np.ascontiguousarray(entries)
    m, n = entries.shape[1] - 1, entries.shape[2] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        red = entries[:, :m, :n] - entries[:, :m, n:] - entries[:, m:, :n]
        if not np.isfinite(red).all():
            raise ValueError(_OVERFLOW)
        # the matched pairs: every red < 0 where those lie in distinct rows and
        # columns, else the assigned pairs with red < 0
        pairs = red < 0.0
        per_row = pairs.sum(axis=2)
        per_col = pairs.sum(axis=1)
        crowded = (per_row > 1).any(axis=1) | (per_col > 1).any(axis=1)
        if crowded.any():
            for t in np.flatnonzero(crowded).tolist():
                # with m > n the assignment's rows are the columns of red
                match = pairs[t] if m <= n else pairs[t].T
                cost_rows = np.minimum(red[t] if m <= n else red[t].T, 0.0).tolist()
                match[:] = False
                for r, c in enumerate(_assign_rows(cost_rows, max(m, n))):
                    if cost_rows[r][c] < 0.0:  # min(red, 0) < 0 exactly where red < 0
                        match[r, c] = True
            per_row = pairs.sum(axis=2)
            per_col = pairs.sum(axis=1)
        # a vertex in no pair goes to its dummy
        flows = np.empty_like(entries)
        flows[:, :m, :n] = pairs
        flows[:, :m, n] = 1 - per_row
        flows[:, m, :n] = 1 - per_col
        flows[:, m, n] = per_row.sum(axis=1)
        values = (flows * entries).reshape(len(entries), -1).sum(axis=1)
        if not np.isfinite(values).all():
            raise ValueError(_OVERFLOW)
    return values, flows


def solve_layout(shapes) -> tuple:
    """A `_fuse`d set of edgeless graphs, one stack of k graphs of n vertices
    per (k, n) of shapes: the layout in which `_solve_stack` solves cost
    matrices of those shapes."""
    return _fuse([_stack([GeometricGraph(1, ((0.0,),) * n, ()) for _ in range(k)])
                  for k, n in shapes])


def stacks_of(array: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the (Q, rows, k, n+1) blocks of a (Q, rows, C) array laid out
    as a `_fuse`d set of stacks of the given shapes (k, n), each swapped to
    (Q, k, rows, n+1): one matrix per query and graph of the stack."""
    q, rows = array.shape[:2]
    stacks = []
    start = 0
    for k, n in shapes:
        block = array[:, :, start:start + k * (n + 1)].reshape(q, rows, k, n + 1)
        stacks.append(block.swapaxes(1, 2))
        start += k * (n + 1)
    return stacks


def mixed_size_graphs(seed, dim, sizes, grid=False):
    """Graphs of the given sizes with random coordinates and about half of
    the vertex pairs joined, so that L1 sums have many non-zero terms. With
    `grid` the coordinates are integers from -2 to 2, so that vertices
    coincide, lengths repeat and reduced costs tie exactly or a few ulps
    apart."""
    rng = np.random.default_rng(seed)
    return [GeometricGraph.build(rng.integers(-2, 3, size=(n, dim)).astype(float) if grid
                                 else rng.uniform(-5.0, 5.0, size=(n, dim)),
                                 [(i, j) for i in range(n) for j in range(i + 1, n)
                                  if rng.random() < 0.5], dim=dim)
            for n in sizes]


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
    2D gives []. This is the test oracle for `geometry.planarize`, so it keeps
    its own endpoint test instead of sharing the planarizer's.
    """
    if g.dim != 2:
        return []
    problems = []
    pts = coordinates(g)
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
    """The vertices `geometry.planarize` appends to g, found by a linear scan.

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


def planarize_loop(g: GeometricGraph) -> GeometricGraph:
    """`geometry.planarize` as a loop over every edge pair, one crossing at a time.

    This is the planarizer before its crossing clusters, edge events and
    split stage moved to numpy, as it ran below `_PASS_MIN_PAIRS`: every
    pair in lexicographic order goes through `segment_intersection`, so it
    shares neither the numpy pair pass nor the x-sorted crowding screen.
    Each crossing finds its cluster's representative in a dict of 2 * EPS
    grid cells (the lowest id within EPS, else a new one), each split is
    recorded with `setdefault` (the first event per edge and vertex wins),
    and each edge's stops are sorted by (t, vertex id). The output equals
    planarize's, and so does the text of every `CollinearOverlapError`.
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

    for a, b in itertools.combinations(range(len(edges)), 2):
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
    return hausdorff_point_sets(coordinates(a), coordinates(b))


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


def make_letter_records(distortion: str, per_letter: int = 150,
                        seed: int = 7) -> list[LetterRecord]:
    """The synthetic drawings of one distortion level, as `graphmover synth`
    writes them, held in memory."""
    if distortion not in DISTORTION_LEVELS:
        raise ValueError(f"distortion must be one of {DISTORTION_LEVELS}, got {distortion!r}")
    return list(_letter_records(distortion, per_letter, seed))


def random_graph_pair(rng, max_vertices=5):
    from graphmover.experiments import random_graph

    g = random_graph(rng, int(rng.integers(1, max_vertices + 1)))
    h = random_graph(rng, int(rng.integers(1, max_vertices + 1)))
    return g, h
