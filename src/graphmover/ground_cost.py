"""Ground cost matrix for moving supply between two ordered geometric graphs.

The (m+1) x (n+1) matrix prices moving one unit from vertex i of the first
graph to vertex j of the second: a vertex-displacement term plus the L1
difference of the two adjacency length vectors truncated to the first
p = min(m, n) entries. The extra row and column price vertex deletion: a
vertex routed to the dummy pays `edge_cost` times the total length of its
incident edges, and the dummy-to-dummy corner is free.

One function owns this formula: `_cost_stack` prices each of a stack of Q
graphs of one size against each of a stack of k graphs of one size (both
`_stack`s), and `ground_cost_matrix` is its Q = k = 1 case. Within a stack
every L1 sum has the same length p, so each entry is the same float as in
the pair's own matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CostParams, GeometricGraph

# The costs are built in blocks of queries and rows whose Q x k x m x n x p
# temporaries of the L1 term (the difference and its absolute value) and
# Q x k x m x n x d temporaries of the displacement term (the difference and
# its square) hold at most this many float64 each, 16 MB, instead of one
# O(Q*k*m*n*max(p, d)) array. A block is at least one row of one query, which
# exceeds the cap only when k * n * max(p, d) > 2**21; a whole level of letter
# drawings fits in a few blocks.
_BLOCK_ENTRIES = 2 ** 21


@dataclass(frozen=True, eq=False)
class GroundCostMatrix:
    entries: np.ndarray  # shape (m+1, n+1), read-only
    m: int
    n: int


def ground_cost_matrix(g: GeometricGraph, h: GeometricGraph,
                       params: CostParams) -> GroundCostMatrix:
    """Pairwise unit-transport costs between the vertices of g and h plus dummies."""
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")
    out = _cost_stack(_stack([g]), _stack([h]), params)[0, 0]
    out.flags.writeable = False
    return GroundCostMatrix(out, g.n_vertices, h.n_vertices)


def _stack(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinates (k, n, d), adjacency length matrices (k, n, n) and their
    row sums (k, n) of k >= 1 graphs of n vertices each, for `_cost_stack`."""
    with np.errstate(over="ignore", invalid="ignore"):  # a length that overflows is inf
        adj = np.array([h.adjacency_length_matrix for h in graphs])
        # row by row the same sums as each matrix's adj.sum(axis=1)
        return np.array([h.coords for h in graphs]), adj, adj.sum(axis=2)


def _cost_stack(queries, stack, params: CostParams) -> np.ndarray:
    """The (Q, k, m+1, n+1) ground cost matrices of each graph of a `_stack`
    of Q graphs of m vertices against each graph of a `_stack` of k graphs of
    n vertices, all of one dimension. An entry that overflows is inf or nan,
    without a warning; `gmd` refuses it."""
    qcoords, qadj, qsums = queries
    coords, adj, sums = stack
    q, m = qsums.shape
    k, n = sums.shape
    p = min(m, n)
    out = np.zeros((q, k, m + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        if m and n:
            width = k * n * max(p, coords.shape[2])  # the entries of one row's temporaries
            rows = min(m, max(1, _BLOCK_ENTRIES // width))
            per = max(1, _BLOCK_ENTRIES // (rows * width))
            for first in range(0, q, per):
                block = slice(first, first + per)
                for start in range(0, m, rows):
                    part = slice(start, min(start + rows, m))
                    diff = qcoords[block, None, part, None, :] - coords[None, :, None, :, :]
                    pos = params.vertex_cost * np.sqrt((diff * diff).sum(axis=-1))
                    l1 = np.abs(qadj[block, None, part, None, :p]
                                - adj[None, :, None, :, :p]).sum(axis=-1)
                    out[block, :, part, :n] = pos + params.edge_cost * l1
        out[:, :, m, :n] = params.edge_cost * sums
        out[:, :, :m, n] = params.edge_cost * qsums[:, None, :]
    return out
