"""Graph mover's distance: optimal transport between two ordered geometric graphs.

The ground cost is an (m+1) x (n+1) matrix. Entry (i, j) prices moving one
unit from vertex i of the first graph to vertex j of the second: a
vertex-displacement term plus the L1 difference of the two adjacency length
vectors truncated to the first p = min(m, n) entries. Every real vertex
supplies (or demands) one unit; a dummy supplier (the extra row) and a dummy
consumer (the extra column) absorb deletions, weighted so the instance
balances at m + n units. A vertex routed to a dummy pays `edge_cost` times
the total length of its incident edges, and the dummy-to-dummy corner is
free. The distance is the optimal transportation objective, computable in
O(n^3) time, which makes it a tractable stand-in for the exact geometric
graph distance.

Deletions are priced per vertex, so an edge whose endpoints are both deleted
is charged once per endpoint. The exact distance charges such an edge only
once, which is one of the ways the two distances differ.

The transport instance is solved as an assignment on reduced costs. An
integral optimal flow sends each real vertex either to one partner or to a
dummy, so it is a partial injection pi between the vertex index sets, and its
cost is the sum of all deletion prices plus the sum over pi of

    red[i, j] = c[i, j] - c[i, n] - c[m, j].

With m <= n (else the graphs swap roles), the least such sum equals the
optimum of the full assignment of rows to columns under min(red, 0): a partial
injection extends to a full assignment by adding pairs whose min(red, 0) is
at most 0, so the full optimum is no larger; and dropping the pairs with
red >= 0 from a full assignment leaves a partial injection whose red sum is
the assignment's cost, so it is no smaller.

Often no assignment needs to run. When the entries with red < 0 lie in
distinct rows and distinct columns, those entries are the optimal partial
injection: each row's least min(red, 0) is its negative entry (or 0 when it
has none), no two rows want the same column, so the pairs reach the lower
bound sum over rows of min(red, 0), and dropping any of them raises the cost.
The flow is then written directly, and only the other matrices go to
`_assign_rows`. The value is the flow's objective, sum(flow * costs).

Every step works on stacks of graphs, so that `gmd` (one pair) and the
letter ranker (a group of same-size drawings against the 15 prototypes)
share one cost formula and one solve. `_stack` holds the arrays of k graphs
of n vertices; `_fuse` lays out one or more stacks of references as columns,
each graph's vertices followed by its dummy; `_cost_stack` prices a stack of
Q queries against all the columns of a fused set in one pass and cuts out
each stack's (Q, k, m+1, n+1) matrices; and `_solve_stack`, once per stack,
is the one place that builds the flows and values. Stacks of different
sizes n are fused only up to `_SEQUENTIAL_TERMS` (7) vertices: their
adjacency rows are zero-padded to the widest n and the terms past each
column's own p = min(m, n) are masked to 0, and numpy sums fewer than 8
terms one after another, so every entry, flow and value is the same float
as in the pair's own solve. `ground_cost_matrix` and `gmd` are the Q = k = 1
case. `_distance_matrix` is the ranker's batch: it groups its graphs by
vertex count (`_stacks_by_size`), keeps the references' fused sets while the
same reference graphs are asked for (`_reference_stacks`), and prices each
query group against each set in one cost pass.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import CostParams, GeometricGraph

_OVERFLOW = "the graph mover's distance overflows a float"

# The costs are built in blocks of queries and rows whose Q x m x C x p
# temporaries of the L1 term (the difference and its absolute value) and
# Q x m x C x d temporaries of the displacement term (the difference and its
# square), for C columns of references, hold at most this many float64 each,
# 16 MB, instead of one O(Q*m*C*max(p, d)) array. A block is at least one row
# of one query, which exceeds the cap only when C * max(p, d) > 2**21; a
# whole level of letter drawings fits in a few blocks.
_BLOCK_ENTRIES = 2 ** 21


@dataclass(frozen=True, eq=False)
class Flow:
    values: np.ndarray
    objective: float


@dataclass(frozen=True, eq=False)
class GroundCostMatrix:
    entries: np.ndarray  # shape (m+1, n+1), read-only
    m: int
    n: int


@dataclass(frozen=True, eq=False)
class GmdResult:
    value: float
    flow: Flow
    matrix: GroundCostMatrix


def gmd(g: GeometricGraph, h: GeometricGraph, params: CostParams) -> GmdResult:
    """Graph mover's distance with the optimal flow and cost matrix behind it.

    ValueError when the distance is not finite: the costs overflow a float.
    """
    matrix = ground_cost_matrix(g, h, params)
    values, flows = _solve_stack(matrix.entries[None])
    value = float(values[0])
    flow = flows[0]
    flow.flags.writeable = False
    return GmdResult(value, Flow(flow, value), matrix)


def ground_cost_matrix(g: GeometricGraph, h: GeometricGraph,
                       params: CostParams) -> GroundCostMatrix:
    """Pairwise unit-transport costs between the vertices of g and h plus dummies."""
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    out = _cost_stack(_stack([g]), _fuse([_stack([h])]), params)[0][0, 0]
    out.flags.writeable = False
    return GroundCostMatrix(out, g.n_vertices, h.n_vertices)


def _stacks_by_size(graphs) -> tuple:
    """The graphs grouped by vertex count in order of first appearance, each
    group as (its indices into graphs, its `_stack`)."""
    groups: dict[int, list[int]] = {}
    for index, graph in enumerate(graphs):
        groups.setdefault(graph.n_vertices, []).append(index)
    return tuple((tuple(indices), _stack([graphs[a] for a in indices]))
                 for indices in groups.values())


def _stack(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinates (k, n, d), adjacency length matrices (k, n, n) and their
    row sums (k, n) of k >= 1 graphs of n vertices each, for `_cost_stack`."""
    with np.errstate(over="ignore", invalid="ignore"):  # a length that overflows is inf
        adj = np.array([h.adjacency_length_matrix for h in graphs])
        # row by row the same sums as each matrix's adj.sum(axis=1)
        return np.array([h.coords for h in graphs]), adj, adj.sum(axis=2)


# numpy adds fewer than 8 terms one after another, in order; from 8 on it
# keeps 8 partial sums. So a sum of at most this many non-negative terms is
# the same float with zero terms appended up to this many, which lets `_fuse`
# pad the stacks of at most this many vertices to one width, and the same
# float when added slice by slice, which lets `_cost_stack` lay such sums out
# term by term. Tests pin both on the installed numpy.
_SEQUENTIAL_TERMS = 7


def _fuse(stacks) -> tuple:
    """The reference columns that `_cost_stack` prices in one pass, from
    `_stack`s of k graphs of n vertices each, all of one dimension d: the
    (k, n) of each stack, then per column its coordinates (C, d), adjacency
    row zero-padded to the widest n, w (C, w), and row sum (C,); the mask of
    each row's own n entries (C, w), or None when all stacks have one n; and
    the indices of the dummy columns. Each graph gives its n vertex columns
    and then a dummy column of zeros, C = sum of k (n + 1) in all, so that
    each graph's (m+1) x (n+1) matrix is one slice of a query's columns."""
    shapes = tuple(sums.shape for _, _, sums in stacks)
    width = max(n for _, n in shapes)
    dim = stacks[0][0].shape[2]
    total = sum(k * (n + 1) for k, n in shapes)
    coords, adj, sums = np.zeros((total, dim)), np.zeros((total, width)), np.zeros(total)
    mask = np.zeros((total, width), dtype=bool)
    start = 0
    for (k, n), (stack_coords, stack_adj, stack_sums) in zip(shapes, stacks):
        columns = slice(start, start + k * (n + 1))
        coords[columns].reshape(k, n + 1, dim)[:, :n] = stack_coords
        adj[columns].reshape(k, n + 1, width)[:, :n, :n] = stack_adj
        sums[columns].reshape(k, n + 1)[:, :n] = stack_sums
        mask[columns].reshape(k, n + 1, width)[:, :n, :n] = True
        start = columns.stop
    dummies = np.cumsum([n + 1 for k, n in shapes for _ in range(k)]) - 1
    if len({n for _, n in shapes}) == 1:
        mask = None
    return shapes, coords, adj, sums, mask, dummies


# The last reference sets asked for, with the graphs they were built from:
# a call with the same graph objects reuses them. The slot holds its graphs,
# so no other graph can take their ids while it is kept; hashing the 15
# frozen graphs by value would cost a fifth of a rebuild. A miss replaces the
# slot in one assignment, so a race between threads costs only a rebuild.
_LAST_REFERENCES: tuple = ((), ())


def _reference_stacks(references) -> tuple:
    """The references' `_stacks_by_size` as `_fuse`d sets, each as (the
    indices of its stacks' graphs into references, its arrays, read-only):
    one set of every stack of at most `_SEQUENTIAL_TERMS` vertices, then one set
    per larger stack. Built once while the same graph objects are asked for."""
    global _LAST_REFERENCES
    kept, sets = _LAST_REFERENCES
    if len(kept) == len(references) and all(map(operator.is_, kept, references)):
        return sets
    small, large = [], []
    for indices, stack in _stacks_by_size(references):
        n = stack[2].shape[1]
        (small if n <= _SEQUENTIAL_TERMS else large).append((indices, stack))
    sets = []
    for groups in ([small] if small else []) + [[group] for group in large]:
        indices, stacks = zip(*groups)
        sets.append((indices, _fuse(stacks)))
        for array in sets[-1][1][1:]:
            if array is not None:
                array.flags.writeable = False
    sets = tuple(sets)
    _LAST_REFERENCES = (tuple(references), sets)
    return sets


def _distance_matrix(graphs, references, params: CostParams) -> np.ndarray:
    """The matrix of gmd(graph, reference, params).value, one row per graph
    and one column per reference, all of one dimension. Each size group of
    the graphs is priced against each set of `_reference_stacks` in one
    `_cost_stack` call, and against each size group of the set in one
    `_solve_stack` call.

    It stacks shallow copies of the graphs, so the coordinate and adjacency
    arrays cached while pricing go with the call instead of staying on every
    graph the caller holds (a whole distortion level in `graphmover
    classify`).

    ValueError(_OVERFLOW) when a distance is not finite.
    """
    sets = _reference_stacks(references)
    distances = np.empty((len(graphs), len(references)))
    for rows, queries in _stacks_by_size([copy.copy(graph) for graph in graphs]):
        block = np.empty((len(rows), len(references)))
        for groups, fused in sets:
            for columns, costs in zip(groups, _cost_stack(queries, fused, params)):
                values, _ = _solve_stack(costs.reshape(-1, *costs.shape[2:]))
                block[:, columns] = values.reshape(len(rows), len(columns))
        distances[rows, :] = block
    return distances


def _cost_stack(queries, references, params: CostParams) -> list[np.ndarray]:
    """The ground cost matrices of each graph of a `_stack` of Q graphs of m
    vertices against each graph of a `_fuse`d set, all of one dimension d:
    for each stack of k graphs of n vertices in the set, its (Q, k, m+1, n+1)
    matrices, cut out of one (Q, m+1, C) array priced in one pass.
    The L1 term of a column sums the first p = min(m, w) entries of the two
    rows, those past the column's own min(m, n) masked to 0; that is exact
    while w <= `_SEQUENTIAL_TERMS`, and a set of one n needs no mask. The
    dummy row and the dummy columns are priced once per pass. An entry that
    overflows is inf or nan, without a warning; `_solve_stack` refuses it."""
    qcoords, qadj, qsums = queries
    shapes, coords, adj, sums, mask, dummies = references
    q, m = qsums.shape
    total, width = adj.shape
    p = min(m, width)
    dim = coords.shape[1]
    # sums of at most _SEQUENTIAL_TERMS terms are laid out term by term and
    # added slice by slice: the same floats, with inner loops over the C
    # columns instead of over a handful of terms; longer sums stay numpy's
    # sums of rows
    across = max(p, dim) <= _SEQUENTIAL_TERMS
    axis = 1 if across else -1  # the terms' axis in the temporaries below
    if across:
        qcoords, qadj = qcoords.swapaxes(1, 2), qadj.swapaxes(1, 2)
        coords, adj = np.ascontiguousarray(coords.T), np.ascontiguousarray(adj[:, :p].T)
        if mask is not None:
            mask = np.ascontiguousarray(mask[:, :p].T)
    out = np.empty((q, m + 1, total))
    with np.errstate(over="ignore", invalid="ignore"):
        if m and width:
            size = total * max(p, dim)  # the entries of one row's temporaries
            rows = min(m, max(1, _BLOCK_ENTRIES // size))
            per = max(1, _BLOCK_ENTRIES // (rows * size))
            for first in range(0, q, per):
                block = slice(first, first + per)
                for start in range(0, m, rows):
                    part = slice(start, min(start + rows, m))
                    if across:  # (Q, terms, rows, C)
                        diff = qcoords[block, :, part, None] - coords[:, None]
                        terms = np.abs(qadj[block, :p, part, None] - adj[:, None])
                        if mask is not None:
                            terms *= mask[:, None]
                    else:  # (Q, rows, C, terms)
                        diff = qcoords[block, part, None, :] - coords
                        terms = np.abs(qadj[block, part, None, :p] - adj[:, :p])
                        if mask is not None:
                            terms *= mask[:, :p]
                    pos = params.vertex_cost * np.sqrt((diff * diff).sum(axis=axis))
                    out[block, part] = pos + params.edge_cost * terms.sum(axis=axis)
                    del diff, terms  # before the next block's temporaries
        # the dummy column of every graph, then the dummy row (0 at the corners)
        out[:, :m, dummies] = params.edge_cost * qsums[:, :, None]
        out[:, m] = params.edge_cost * sums
    groups = []
    start = 0
    for k, n in shapes:
        columns = out[:, :, start:start + k * (n + 1)]
        # a C-ordered copy: the sums of `_solve_stack` follow the memory order
        groups.append(np.ascontiguousarray(columns.reshape(q, m + 1, k, n + 1).swapaxes(1, 2)))
        start += k * (n + 1)
    return groups


def _solve_stack(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances of a stack (k, m+1, n+1) of ground cost matrices, and the
    stack (k, m+1, n+1) of their optimal 0/1 flows (the corner counts the
    matched pairs).

    ValueError(_OVERFLOW) when a reduced cost or a distance is not finite.
    """
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
        # no 0 * inf: with m, n >= 1 a finite red means finite entries, and
        # with m or n = 0 every entry off the corner carries flow 1
        values = (flows * entries).reshape(len(entries), -1).sum(axis=1)
        if not np.isfinite(values).all():
            raise ValueError(_OVERFLOW)
    return values, flows


def _assign_rows(cost_rows: list[list[float]], n: int) -> list[int]:
    """The column of each row in a least-cost assignment of the rows to
    distinct columns, on the matrix's rows as lists of n finite floats of any
    sign (at least as many columns as rows), unchecked: `_solve_stack` checks
    a whole stack at once and orients each matrix so that rows <= columns.

    Rows are added one at a time, each along a shortest augmenting path in
    reduced costs cost[i][j] - u[i] - v[j], which stay non-negative on the
    rows already assigned; among tied columns a free one ends the path. This
    is the Jonker-Volgenant scheme as described by Crouse (2016), over plain
    Python lists, which beat array code on the small matrices of letter
    drawings.
    """
    m = len(cost_rows)
    u = [0.0] * m
    v = [0.0] * n
    col4row = [-1] * m
    row4col = [-1] * n
    inf = float("inf")
    for start in range(m):
        shortest = [inf] * n
        path = [-1] * n
        seen_rows = []
        seen_cols = []
        remaining = list(range(n))
        i = start
        low = 0.0
        while True:
            seen_rows.append(i)
            row = cost_rows[i]
            base = low - u[i]
            best = inf
            best_k = -1
            for k, j in enumerate(remaining):
                r = base + row[j] - v[j]
                if r < shortest[j]:
                    shortest[j] = r
                    path[j] = i
                else:
                    r = shortest[j]
                if r < best or (r == best and row4col[j] < 0):
                    best = r
                    best_k = k
            low = best
            j = remaining[best_k]
            seen_cols.append(j)
            remaining[best_k] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
        # move the potentials so that the path found has reduced cost 0
        u[start] += low
        for i in seen_rows[1:]:
            u[i] += low - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= low - shortest[j]
        # augment: flip the matching along the path back to the start row
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row
