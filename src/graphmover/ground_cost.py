"""Ground cost matrix for moving supply between two ordered geometric graphs.

The (m+1) x (n+1) matrix prices moving one unit from vertex i of the first
graph to vertex j of the second: a vertex-displacement term plus the L1
difference of the two adjacency length vectors truncated to the first
p = min(m, n) entries. The extra row and column price vertex deletion: a
vertex routed to the dummy pays `edge_cost` times the total length of its
incident edges, and the dummy-to-dummy corner is free.

One function owns this formula: `_cost_stack` prices one graph against a
stack of k graphs of one size (`_stack`), and `ground_cost_matrix` is its
k = 1 case. Within a stack every L1 sum has the same length p, so each entry
is the same float as in the pair's own matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CostParams, GeometricGraph

# The L1 term is built in blocks of rows whose k x m x n x p temporaries (the
# difference and its absolute value) hold at most this many float64 each, 16 MB,
# instead of one O(k*m*n*p) array. A block is at least one row, which exceeds
# the cap only when k * n * p > 2**21; letter-sized stacks fit in one block.
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
    out = _cost_stack(g, _stack([h]), params)[0]
    out.flags.writeable = False
    return GroundCostMatrix(out, g.n_vertices, h.n_vertices)


def _stack(graphs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinates (k, n, d), adjacency length matrices (k, n, n) and their
    row sums (k, n) of k >= 1 graphs of n vertices each, for `_cost_stack`."""
    with np.errstate(over="ignore", invalid="ignore"):  # a length that overflows is inf
        adj = np.array([h.adjacency_length_matrix for h in graphs])
        # row by row the same sums as each matrix's adj.sum(axis=1)
        return np.array([h.coords for h in graphs]), adj, adj.sum(axis=2)


def _cost_stack(g: GeometricGraph, stack, params: CostParams) -> np.ndarray:
    """The (k, m+1, n+1) ground cost matrices of g against each graph of a
    `_stack` of the same dimension. An entry that overflows is inf or nan,
    without a warning; `gmd` refuses it."""
    coords, adj, sums = stack
    k, n = sums.shape
    m = g.n_vertices
    p = min(m, n)
    out = np.zeros((k, m + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        eg = g.adjacency_length_matrix
        if m and n:
            diff = g.coords[None, :, None, :] - coords[:, None, :, :]
            pos = params.vertex_cost * np.sqrt((diff * diff).sum(axis=-1))
            rows = max(1, _BLOCK_ENTRIES // (k * n * p))
            for start in range(0, m, rows):
                stop = min(start + rows, m)
                l1 = np.abs(eg[None, start:stop, None, :p] - adj[:, None, :, :p]).sum(axis=-1)
                out[:, start:stop, :n] = pos[:, start:stop] + params.edge_cost * l1
        out[:, m, :n] = params.edge_cost * sums
        out[:, :m, n] = params.edge_cost * eg.sum(axis=1)
    return out
