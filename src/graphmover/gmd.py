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

Often no assignment needs to run. Join two entries with red < 0 when they
share a row or a column. The optimal partial injection splits over the
components this makes, as no pair with red >= 0 lowers its cost. A
component that is a star, one row or one column, can give only one pair, so
its least entry is its optimum, the only one when that entry is unique; a
lone entry is a star of one. One numpy pass over a whole fused set keeps
each red < 0 that is least in its row of its graph and in its column, which
is each star's least entry, and writes those flows directly. A graph's
whole matrix goes to `_assign_rows` only when a component has at least 2
rows and 2 columns (it holds a red < 0 whose row and column each hold
another), or when a star's least entry is tied, where the pass keeps both
and the assignment's tie rule picks one. Of the 20,250 matrices of the
1,350 seed-601 letter queries of `perfbench` against the 15 prototypes, 317
need an assignment; 3,758 did when only entries in distinct rows and
columns were written directly. The value is the flow's objective,
sum(flow * costs).

Every step works on stacks of graphs, so that `gmd` (one pair) and the
letter ranker (a group of same-size drawings against the 15 prototypes)
share one cost formula and one solve. `_stack` holds the arrays of k graphs
of n vertices, their adjacency matrices built in one `adjacency_lengths`
pass; `_fuse` lays out one or more stacks of references as columns,
each graph's vertices followed by its dummy; `_cost_stack` prices a stack of
Q queries against all the columns of a fused set in one (Q, m+1, C) pass;
and `_solve_stack`, once per set on that whole array, is the one place that
builds the flows and values: it reduces, counts and writes the flows across
all the set's columns at once, assigns each crowded matrix on its own
slice, and sums each stack's values from its C-ordered matrices. Stacks of
different sizes n in dimension d are fused only while n, d <=
`_SEQUENTIAL_TERMS` (7): their adjacency rows are zero-padded to the widest
n, the terms past each column's own p = min(m, n) are masked to 0, and numpy
sums fewer than 8 terms one after another, so every entry, flow and value is
the same float as in the pair's own solve. `ground_cost_matrix` and `gmd` are
the Q = k = 1 case.
`_distance_matrix` is the ranker's batch: it groups its graphs by vertex
count (`_stacks_by_size`), keeps the references' fused sets while the same
reference graphs are asked for (`_reference_stacks`), and prices and solves
each query group against each set in one call each.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import CostParams, GeometricGraph, adjacency_lengths

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
    shapes = ((1, h.n_vertices),)
    values, flows = _solve_stack(matrix.entries[None], (shapes, *_columns(shapes)))
    value = float(values[0, 0])
    flow = flows[0]
    flow.flags.writeable = False
    return GmdResult(value, Flow(flow, value), matrix)


def ground_cost_matrix(g: GeometricGraph, h: GeometricGraph,
                       params: CostParams) -> GroundCostMatrix:
    """Pairwise unit-transport costs between the vertices of g and h plus dummies."""
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    out = _cost_stack(_stack([g]), _fuse([_stack([h])]), params)[0]
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
    row sums (k, n) of k >= 1 graphs of n vertices each, for `_cost_stack`,
    built from the graphs' vertices and edges in one pass, so that nothing is
    cached on the graphs."""
    k, n, dim = len(graphs), graphs[0].n_vertices, graphs[0].dim
    coords = np.array([h.vertices for h in graphs], dtype=float).reshape(k, n, dim)
    with np.errstate(over="ignore", invalid="ignore"):  # a length that overflows is inf
        adj = adjacency_lengths(coords, [h.edges for h in graphs])
        # row by row the same sums as each matrix's adj.sum(axis=1)
        return coords, adj, adj.sum(axis=2)


# numpy adds fewer than 8 terms one after another, in order; from 8 on it
# keeps 8 partial sums. So a sum of at most this many non-negative terms is
# the same float with zero terms appended up to this many, and the same float
# added slice by slice. `_cost_stack` lays such sums out term by term, so
# `_reference_stacks` pads stacks of several sizes to one width only for n
# and d up to this many. Tests pin both on the installed numpy.
_SEQUENTIAL_TERMS = 7


def _fuse(stacks) -> tuple:
    """The reference columns that `_cost_stack` prices in one pass, from
    `_stack`s of k graphs of n vertices each, all of one dimension d: the
    (k, n) of each stack, then per column its coordinates (C, d), adjacency
    row zero-padded to the widest n, w (C, w), and row sum (C,); the mask of
    each vertex column's own n entries, terms-major (w, C); and the set's
    `_columns`, which `_solve_stack` reads. Each graph gives its n vertex
    columns and then a dummy column of zeros, C = sum of k (n + 1) in all, so
    that each graph's (m+1) x (n+1) matrix is one slice of a query's columns."""
    shapes = tuple(sums.shape for _, _, sums in stacks)
    width = max(n for _, n in shapes)
    dim = stacks[0][0].shape[2]
    total = sum(k * (n + 1) for k, n in shapes)
    coords, adj, sums = np.zeros((total, dim)), np.zeros((total, width)), np.zeros(total)
    mask = np.zeros((width, total), dtype=bool)
    start = 0
    for (k, n), (stack_coords, stack_adj, stack_sums) in zip(shapes, stacks):
        columns = slice(start, start + k * (n + 1))
        coords[columns].reshape(k, n + 1, dim)[:, :n] = stack_coords
        adj[columns].reshape(k, n + 1, width)[:, :n, :n] = stack_adj
        sums[columns].reshape(k, n + 1)[:, :n] = stack_sums
        mask[:, columns].reshape(width, k, n + 1)[:n, :, :n] = True
        start = columns.stop
    return shapes, coords, adj, sums, mask, *_columns(shapes)


@functools.lru_cache(maxsize=64)
def _columns(shapes: tuple) -> tuple:
    """The columns of `_fuse`d stacks of k graphs of n vertices, for each
    (k, n) of shapes: the index of each graph's dummy column (K,) and first
    column (K,), and per column the index of its graph's dummy column (C,)
    and of its graph (C,), read-only. Kept for the last shapes asked for, as
    `gmd` asks for them per pair."""
    widths = np.array([n + 1 for k, n in shapes for _ in range(k)])
    dummies = widths.cumsum() - 1
    columns = (dummies, dummies - widths + 1, dummies.repeat(widths),
               np.arange(len(widths)).repeat(widths))
    for array in columns:
        array.flags.writeable = False
    return columns


# The last reference sets asked for, with the graphs they were built from:
# a call with the same graph objects reuses them. The slot holds its graphs,
# so no other graph can take their ids while it is kept; hashing the 15
# frozen graphs by value would cost a fifth of a rebuild. A miss replaces the
# slot in one assignment, so a race between threads costs only a rebuild.
_LAST_REFERENCES: tuple = ((), ())


def _reference_stacks(references) -> tuple:
    """The references' `_stacks_by_size` as `_fuse`d sets, each as (the
    indices of its graphs into references, in the set's order; its arrays,
    read-only): one set of the stacks with n and d at most
    `_SEQUENTIAL_TERMS`, then one set per other stack. Built once while the
    same graph objects are asked for."""
    global _LAST_REFERENCES
    kept, sets = _LAST_REFERENCES
    if len(kept) == len(references) and all(map(operator.is_, kept, references)):
        return sets
    small, large = [], []
    for indices, stack in _stacks_by_size(references):
        n, dim = stack[0].shape[1:]
        (small if max(n, dim) <= _SEQUENTIAL_TERMS else large).append((indices, stack))
    sets = []
    for groups in ([small] if small else []) + [[group] for group in large]:
        indices, stacks = zip(*groups)
        sets.append((sum(indices, ()), _fuse(stacks)))
        for array in sets[-1][1][1:]:
            array.flags.writeable = False
    sets = tuple(sets)
    _LAST_REFERENCES = (tuple(references), sets)
    return sets


def _distance_matrix(graphs, references, params: CostParams) -> np.ndarray:
    """The matrix of gmd(graph, reference, params).value, one row per graph
    and one column per reference, all of one dimension. Each size group of
    the graphs is priced against each set of `_reference_stacks` in one
    `_cost_stack` call and solved in one `_solve_stack` call.

    `_stack` reads only the graphs' vertices and edges, so no coordinate or
    adjacency array stays cached on a graph the caller holds (a whole
    distortion level in `graphmover classify`).

    ValueError(_OVERFLOW) when a distance is not finite.
    """
    sets = _reference_stacks(references)
    distances = np.empty((len(graphs), len(references)))
    for rows, queries in _stacks_by_size(graphs):
        block = np.empty((len(rows), len(references)))
        for columns, fused in sets:
            values, _ = _solve_stack(_cost_stack(queries, fused, params), fused)
            block[:, columns] = values
        distances[rows, :] = block
    return distances


def _cost_stack(queries, references, params: CostParams) -> np.ndarray:
    """The ground cost matrices of each graph of a `_stack` of Q graphs of m
    vertices against each graph of a `_fuse`d set, all of one dimension d, as
    one (Q, m+1, C) array priced in one pass: a query's matrix against a
    graph is that graph's n + 1 columns.
    The L1 term of a column sums the first p = min(m, w) entries of the two
    rows: laid out term by term while max(p, d) <= `_SEQUENTIAL_TERMS`, those
    past the column's own min(m, n) masked to 0, else numpy's unmasked row
    sums, so a set of several sizes needs w, d <= `_SEQUENTIAL_TERMS`. The
    dummy row and the dummy columns are priced once per pass. An entry that
    overflows is inf or nan, without a warning; `_solve_stack` refuses it."""
    qcoords, qadj, qsums = queries
    _, coords, adj, sums, mask, dummies, _, _, _ = references
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
                        terms *= mask[:p, None]
                    else:  # (Q, rows, C, terms)
                        diff = qcoords[block, part, None, :] - coords
                        terms = np.abs(qadj[block, part, None, :p] - adj[:, :p])
                    pos = params.vertex_cost * np.sqrt((diff * diff).sum(axis=axis))
                    out[block, part] = pos + params.edge_cost * terms.sum(axis=axis)
                    del diff, terms  # before the next block's temporaries
        # the dummy column of every graph, then the dummy row (0 at the corners)
        out[:, :m, dummies] = params.edge_cost * qsums[:, :, None]
        out[:, m] = params.edge_cost * sums
    return out


def _solve_stack(out: np.ndarray, references) -> tuple[np.ndarray, np.ndarray]:
    """The distances (Q, K) of the ground cost matrices (Q, m+1, C) that
    `_cost_stack` prices against the K graphs of a `_fuse`d set, whose dummy
    corners are 0, and their optimal 0/1 flows (Q, m+1, C) in the same layout
    (each corner counts its matrix's matched pairs). It reads only the set's
    shapes (first) and `_columns` (last), so `gmd` passes just those. A
    graph's value sums its matrix's entries in C order, with its stack's
    matrices in one row sum each, as for the C-ordered stack alone.

    ValueError(_OVERFLOW) when a reduced cost or a distance is not finite.
    """
    shapes, dummies, firsts, column_dummies, column_graphs = references[0], *references[-4:]
    q, m = out.shape[0], out.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        # 0 in the dummy columns (x - x - 0), so that they never pair
        red = out[:, :m] - out[:, :m, column_dummies] - out[:, m:]
        if not np.isfinite(red).all():
            raise ValueError(_OVERFLOW)
        # the matched pairs: each red < 0 that is least in its row of its
        # graph and in its column, which settles every star of red < 0 (one
        # row, or one column) whose least entry is unique; the graphs with a
        # tie or with a component of 2 rows and 2 columns are assigned
        negative = red < 0.0
        row_least = np.minimum.reduceat(red, firsts, axis=2)[:, :, column_graphs]
        col_least = red.min(axis=1, initial=np.inf)  # inf when m = 0
        pairs = negative & (red == row_least) & (red == col_least[:, None])
        per_row = np.add.reduceat(pairs, firsts, axis=2)  # (Q, m, K)
        per_col = pairs.sum(axis=1)  # (Q, C)
        # a component of 2 rows and 2 columns holds a red < 0 whose row and
        # whose column each hold another
        many_in_row = np.add.reduceat(negative, firsts, axis=2) > 1
        many_in_col = negative.sum(axis=1) > 1
        meshed = negative & many_in_row[:, :, column_graphs] & many_in_col[:, None]
        crowded = (np.logical_or.reduceat(meshed.any(axis=1), firsts, axis=1)
                   | (per_row > 1).any(axis=1)
                   | (np.maximum.reduceat(per_col, firsts, axis=1) > 1))
        if crowded.any():
            for t, graph in zip(*np.nonzero(crowded)):
                first, dummy = int(firsts[graph]), int(dummies[graph])
                n, columns = dummy - first, slice(first, dummy)
                # with m > n the assignment's rows are the columns of red
                match = pairs[t, :, columns] if m <= n else pairs[t, :, columns].T
                cost_rows = red[t, :, columns] if m <= n else red[t, :, columns].T
                cost_rows = np.minimum(cost_rows, 0.0).tolist()
                match[:] = False
                for r, c in enumerate(_assign_rows(cost_rows, max(m, n))):
                    if cost_rows[r][c] < 0.0:  # min(red, 0) < 0 exactly where red < 0
                        match[r, c] = True
            per_row = np.add.reduceat(pairs, firsts, axis=2)
            per_col = pairs.sum(axis=1)
        # a vertex in no pair goes to its dummy
        flows = np.empty(out.shape)
        flows[:, :m] = pairs
        flows[:, :m, dummies] = 1 - per_row
        flows[:, m] = 1 - per_col
        flows[:, m, dummies] = per_row.sum(axis=1)
        # no 0 * inf: with m >= 1 a finite red means finite entries, the dummy
        # columns' included, and with m = 0 every entry off the corners
        # carries flow 1
        costs = flows * out
        values = []
        start = 0
        for k, n in shapes:
            # the stack's matrices C-ordered: summed across a strided axis, the
            # one-column matrices of n = 0 would read other last bits
            stack = costs[:, :, start:start + k * (n + 1)].reshape(q, m + 1, k, n + 1)
            stack = np.ascontiguousarray(stack.swapaxes(1, 2)).reshape(q * k, -1)
            values.append(stack.sum(axis=1).reshape(q, k))
            start += k * (n + 1)
        values = np.concatenate(values, axis=1)
        if not np.isfinite(values).all():
            raise ValueError(_OVERFLOW)
    return values, flows


def _assign_rows(cost_rows: list[list[float]], n: int) -> list[int]:
    """The column of each row in a least-cost assignment of the rows to
    distinct columns, on the matrix's rows as lists of n finite floats of any
    sign (at least as many columns as rows), unchecked: `_solve_stack` checks
    all its matrices at once and orients each so that rows <= columns.

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
