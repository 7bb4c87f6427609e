"""Graph mover's distance: optimal transport between two ordered geometric graphs.

Every real vertex supplies (or demands) one unit; a dummy supplier and a dummy
consumer absorb deletions, weighted so the instance balances at m + n units.
The distance is the optimal transportation objective under the ground cost
matrix, computable in O(n^3) time, which makes it a tractable stand-in for the
exact geometric graph distance.

Deletions are priced per vertex: routing a vertex to the dummy pays the total
length of its incident edges, so an edge whose endpoints are both deleted is
charged once per endpoint. The exact distance charges such an edge only once,
which is one of the ways the two distances differ.

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
the assignment's cost, so it is no smaller. `gmd` keeps the assigned pairs
with red < 0, sends every other vertex to its dummy, and prices the resulting
flow under the ground cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CostParams, GeometricGraph
from .ground_cost import GroundCostMatrix, ground_cost_matrix
from .transport import Flow, solve_assignment


@dataclass(frozen=True, eq=False)
class GmdResult:
    value: float
    flow: Flow
    matrix: GroundCostMatrix


def gmd(g: GeometricGraph, h: GeometricGraph, params: CostParams) -> GmdResult:
    """Graph mover's distance with the optimal flow and cost matrix behind it."""
    matrix = ground_cost_matrix(g, h, params)
    entries = matrix.entries
    m, n = matrix.m, matrix.n
    red = entries[:m, :n] - entries[:m, n:] - entries[m:, :n]
    if m <= n:
        rows, cols = solve_assignment(np.minimum(red, 0.0))
    else:
        cols, rows = solve_assignment(np.minimum(red.T, 0.0))
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    keep = red[rows, cols] < 0.0
    rows, cols = rows[keep], cols[keep]
    flow = np.zeros((m + 1, n + 1))
    flow[rows, cols] = 1.0
    # every vertex without a partner goes to its dummy
    flow[:m, n] = 1.0
    flow[rows, n] = 0.0
    flow[m, :n] = 1.0
    flow[m, cols] = 0.0
    flow[m, n] = len(rows)
    flow.flags.writeable = False
    value = float((flow * entries).sum())
    return GmdResult(value, Flow(flow, value), matrix)
