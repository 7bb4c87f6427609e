"""Ground cost matrix for moving supply between two ordered geometric graphs.

The (m+1) x (n+1) matrix prices moving one unit from vertex i of the first
graph to vertex j of the second: a vertex-displacement term plus the L1
difference of the two adjacency length vectors truncated to the first
p = min(m, n) entries. The extra row and column price vertex deletion: a
vertex routed to the dummy pays `edge_cost` times the total length of its
incident edges, and the dummy-to-dummy corner is free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CostParams, GeometricGraph

# The L1 term is built in blocks of rows whose m x n x p temporaries (the
# difference and its absolute value) hold at most this many float64 each, 16 MB,
# instead of one O(m*n*p) array. A block is at least one row, which exceeds the
# cap only when n * p > 2**21; letter-sized pairs fit in one block.
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
    m, n = g.n_vertices, h.n_vertices
    p = min(m, n)
    eg = g.adjacency_length_matrix
    eh = h.adjacency_length_matrix
    out = np.zeros((m + 1, n + 1))
    if m and n:
        diff = g.coords[:, None, :] - h.coords[None, :, :]
        pos = params.vertex_cost * np.sqrt((diff * diff).sum(axis=-1))
        rows = max(1, _BLOCK_ENTRIES // (n * p))
        for start in range(0, m, rows):
            stop = min(start + rows, m)
            adj = np.abs(eg[start:stop, None, :p] - eh[None, :, :p]).sum(axis=-1)
            out[start:stop, :n] = pos[start:stop] + params.edge_cost * adj
    if n:
        out[m, :n] = params.edge_cost * eh.sum(axis=1)
    if m:
        out[:m, n] = params.edge_cost * eg.sum(axis=1)
    out.flags.writeable = False
    return GroundCostMatrix(out, m, n)
